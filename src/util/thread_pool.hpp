#pragma once

// A small fixed-size thread pool with a static-partition parallel_for.
//
// The verification loops in this library (multi-source BFS batches over
// every non-spanner edge, congestion accumulation over many paths) are
// embarrassingly parallel over large index ranges with roughly uniform
// cost, so static partitioning into one contiguous chunk per worker is the
// right scheduling policy: no queue contention, no atomics on the hot path,
// cache-friendly ranges.

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dcs {

class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size() + 1; }

  /// Runs fn(begin, end, worker_index) on disjoint contiguous subranges of
  /// [begin, end), one per worker (including the calling thread), and blocks
  /// until all complete. worker_index is in [0, size()).
  ///
  /// Safe to call from inside a parallel region (including the pool's own
  /// workers): nested calls degrade to serial execution of the whole range
  /// instead of deadlocking on the pool's completion latch. The pool runs
  /// one top-level call at a time; a top-level call made while another is
  /// running never waits for it, and instead runs its whole range on the
  /// calling thread (worker_index 0), like a nested call.
  void parallel_ranges(
      std::size_t begin, std::size_t end,
      const std::function<void(std::size_t, std::size_t, std::size_t)>& fn);

  /// Process-wide shared pool (lazily constructed).
  static ThreadPool& shared();

 private:
  void worker_loop(std::size_t index);

  struct Job {
    std::size_t begin = 0;
    std::size_t end = 0;
    const std::function<void(std::size_t, std::size_t, std::size_t)>* fn =
        nullptr;
  };

  std::vector<std::thread> workers_;
  std::mutex submit_mutex_;  // held by the one top-level call in flight
  std::mutex mutex_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  std::vector<Job> jobs_;        // one slot per worker thread
  std::uint64_t generation_ = 0; // bumped when a new batch of jobs is posted
  std::size_t pending_ = 0;
  bool stopping_ = false;
  std::exception_ptr first_error_;  // first exception thrown by any worker
};

namespace detail {
/// True while the current thread is executing inside a parallel region;
/// nested parallel constructs then degrade to serial execution instead of
/// deadlocking on the pool's completion latch.
bool& in_parallel_region();
}  // namespace detail

/// Convenience: parallel loop over [begin, end) calling body(i) for each i,
/// using the shared pool. Falls back to serial execution for tiny ranges
/// and when called from inside another parallel region.
template <typename Body>
void parallel_for(std::size_t begin, std::size_t end, Body&& body) {
  constexpr std::size_t kSerialCutoff = 2048;
  if (end <= begin) return;
  if (end - begin < kSerialCutoff || detail::in_parallel_region()) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }
  ThreadPool::shared().parallel_ranges(
      begin, end, [&](std::size_t lo, std::size_t hi, std::size_t) {
        for (std::size_t i = lo; i < hi; ++i) body(i);
      });
}

/// Parallel loop where each worker gets (range, worker_index) — used when the
/// body needs a per-thread accumulator or RNG stream.
template <typename Body>
void parallel_chunks(std::size_t begin, std::size_t end, Body&& body) {
  if (end <= begin) return;
  if (detail::in_parallel_region()) {
    body(begin, end, 0);
    return;
  }
  ThreadPool::shared().parallel_ranges(
      begin, end,
      [&](std::size_t lo, std::size_t hi, std::size_t w) { body(lo, hi, w); });
}

}  // namespace dcs
