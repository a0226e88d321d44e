#pragma once

// First-touch-aware scratch arenas for the traversal core.
//
// On a NUMA machine, Linux places each page of a fresh allocation on the
// node of the CPU that first writes it. The multi-source BFS scratch
// arrays are thread-local and long-lived, so the policy that keeps
// repeated sweeps on local memory is simple: every worker allocates its
// own arenas, and ArenaBuffer touches every page of newly grown capacity
// from the owning thread at grow time (instead of leaving the first
// touch to whatever thread happens to write first later).

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace dcs {

/// A growable 64-byte-aligned buffer of trivially-copyable elements.
///
/// Unlike std::vector: growth never copies the old contents (the
/// traversal scratch re-initializes via epoch stamps whenever the size
/// changes, so preserving data would be wasted bandwidth) and newly
/// acquired pages are written immediately by the calling thread to fix
/// their NUMA placement. Contents are unspecified after a growing
/// resize().
template <typename T>
class ArenaBuffer {
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "ArenaBuffer holds raw scratch data only");

 public:
  ArenaBuffer() = default;
  ~ArenaBuffer() { release(); }

  ArenaBuffer(const ArenaBuffer&) = delete;
  ArenaBuffer& operator=(const ArenaBuffer&) = delete;

  ArenaBuffer(ArenaBuffer&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)),
        capacity_(std::exchange(other.capacity_, 0)) {}

  ArenaBuffer& operator=(ArenaBuffer&& other) noexcept {
    if (this != &other) {
      release();
      data_ = std::exchange(other.data_, nullptr);
      size_ = std::exchange(other.size_, 0);
      capacity_ = std::exchange(other.capacity_, 0);
    }
    return *this;
  }

  /// Ensure size() == n. Growing discards old contents and first-touches
  /// the whole new allocation from the calling thread; shrinking just
  /// trims the visible size.
  void resize(std::size_t n) {
    if (n > capacity_) {
      release();
      void* p = ::operator new[](n * sizeof(T), std::align_val_t{64});
      // The first write decides NUMA page placement: do it here, on the
      // thread that owns this arena, not lazily on some other thread.
      std::memset(p, 0, n * sizeof(T));
      data_ = static_cast<T*>(p);
      capacity_ = n;
    }
    size_ = n;
  }

  /// resize(n) followed by filling the visible range with `value`.
  void assign(std::size_t n, const T& value) {
    resize(n);
    fill(value);
  }

  void fill(const T& value) {
    if constexpr (sizeof(T) == 1) {
      std::memset(data_, static_cast<unsigned char>(value), size_);
    } else {
      for (std::size_t i = 0; i < size_; ++i) data_[i] = value;
    }
  }

  T* data() { return data_; }
  const T* data() const { return data_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  T& operator[](std::size_t i) {
    assert(i < size_);
    return data_[i];
  }
  const T& operator[](std::size_t i) const {
    assert(i < size_);
    return data_[i];
  }

  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

 private:
  void release() {
    if (data_ != nullptr) {
      ::operator delete[](static_cast<void*>(data_), std::align_val_t{64});
      data_ = nullptr;
    }
    size_ = 0;
    capacity_ = 0;
  }

  T* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
};

}  // namespace dcs
