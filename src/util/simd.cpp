#include "util/simd.hpp"

#include <atomic>
#include <bit>
#include <cstdlib>
#include <cstring>

namespace dcs::simd {

namespace {

bool cpu_supports_avx2() {
#if defined(DCS_HAVE_AVX2) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

bool env_forces_scalar() {
  const char* v = std::getenv("DCS_FORCE_SCALAR");
  return v != nullptr && v[0] != '\0' && std::strcmp(v, "0") != 0;
}

std::atomic<bool>& force_flag() {
  static std::atomic<bool> flag{env_forces_scalar()};
  return flag;
}

}  // namespace

DispatchTier hardware_tier() {
  static const DispatchTier tier =
      cpu_supports_avx2() ? DispatchTier::kAvx2 : DispatchTier::kScalar;
  return tier;
}

DispatchTier active_tier() {
  if (force_flag().load(std::memory_order_relaxed)) {
    return DispatchTier::kScalar;
  }
  return hardware_tier();
}

const char* tier_name(DispatchTier tier) {
  switch (tier) {
    case DispatchTier::kAvx2:
      return "avx2";
    case DispatchTier::kScalar:
      return "scalar";
  }
  return "unknown";
}

bool force_scalar() { return force_flag().load(std::memory_order_relaxed); }

void set_force_scalar(bool force) {
  force_flag().store(force, std::memory_order_relaxed);
}

// --- scalar reference implementations --------------------------------------

namespace detail {

std::size_t and_popcount_scalar(const std::uint64_t* a, const std::uint64_t* b,
                                std::size_t words) {
  std::size_t count = 0;
  for (std::size_t w = 0; w < words; ++w) {
    count += static_cast<std::size_t>(std::popcount(a[w] & b[w]));
  }
  return count;
}

bool and_popcount_at_least_scalar(const std::uint64_t* a,
                                  const std::uint64_t* b, std::size_t words,
                                  std::size_t k) {
  std::size_t count = 0;
  for (std::size_t w = 0; w < words && count < k; ++w) {
    count += static_cast<std::size_t>(std::popcount(a[w] & b[w]));
  }
  return count >= k;
}

void and_popcount_at_least_run_scalar(const std::uint64_t* a,
                                      const std::uint64_t* rows,
                                      std::size_t words, std::size_t skip,
                                      std::size_t z0, std::size_t z1,
                                      std::size_t k, std::uint64_t* out) {
  for (std::size_t z = z0; z < z1; ++z) {
    const std::uint64_t bit = 1ull << (z & 63);
    if (z != skip &&
        and_popcount_at_least_scalar(a, rows + z * words, words, k)) {
      out[z >> 6] |= bit;
    } else {
      out[z >> 6] &= ~bit;
    }
  }
}

bool rows_meet_scalar(const std::uint64_t* a, const std::uint64_t* b,
                      std::size_t words) {
  for (std::size_t w = 0; w < words; ++w) {
    if ((a[w] & b[w]) != 0) return true;
  }
  return false;
}

bool any_bit_of_scalar(const std::uint32_t* vs, std::size_t count,
                       const std::uint64_t* bits) {
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint32_t v = vs[i];
    if ((bits[v >> 6] >> (v & 63)) & 1) return true;
  }
  return false;
}

void ms_propagate_scalar(const std::uint32_t* vs, std::size_t count,
                         std::uint64_t fmask, const std::uint64_t* seen,
                         const std::uint32_t* seen_stamp, std::uint32_t epoch,
                         std::uint64_t* out) {
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint32_t v = vs[i];
    const std::uint64_t seen_v = seen_stamp[v] == epoch ? seen[v] : 0;
    out[i] = fmask & ~seen_v;
  }
}

}  // namespace detail

// --- dispatch ----------------------------------------------------------------

std::size_t and_popcount(const std::uint64_t* a, const std::uint64_t* b,
                         std::size_t words) {
#ifdef DCS_HAVE_AVX2
  if (avx2_active()) return detail::and_popcount_avx2(a, b, words);
#endif
  return detail::and_popcount_scalar(a, b, words);
}

bool and_popcount_at_least(const std::uint64_t* a, const std::uint64_t* b,
                           std::size_t words, std::size_t k) {
#ifdef DCS_HAVE_AVX2
  if (avx2_active()) {
    return detail::and_popcount_at_least_avx2(a, b, words, k);
  }
#endif
  return detail::and_popcount_at_least_scalar(a, b, words, k);
}

void and_popcount_at_least_run(const std::uint64_t* a,
                               const std::uint64_t* rows, std::size_t words,
                               std::size_t skip, std::size_t z0,
                               std::size_t z1, std::size_t k,
                               std::uint64_t* out) {
#ifdef DCS_HAVE_AVX2
  if (avx2_active()) {
    detail::and_popcount_at_least_run_avx2(a, rows, words, skip, z0, z1, k,
                                           out);
    return;
  }
#endif
  detail::and_popcount_at_least_run_scalar(a, rows, words, skip, z0, z1, k,
                                           out);
}

bool rows_meet(const std::uint64_t* a, const std::uint64_t* b,
               std::size_t words) {
#ifdef DCS_HAVE_AVX2
  if (avx2_active()) return detail::rows_meet_avx2(a, b, words);
#endif
  return detail::rows_meet_scalar(a, b, words);
}

bool any_bit_of(const std::uint32_t* vs, std::size_t count,
                const std::uint64_t* bits) {
#ifdef DCS_HAVE_AVX2
  if (avx2_active()) return detail::any_bit_of_avx2(vs, count, bits);
#endif
  return detail::any_bit_of_scalar(vs, count, bits);
}

void ms_propagate(const std::uint32_t* vs, std::size_t count,
                  std::uint64_t fmask, const std::uint64_t* seen,
                  const std::uint32_t* seen_stamp, std::uint32_t epoch,
                  std::uint64_t* out) {
#ifdef DCS_HAVE_AVX2
  if (avx2_active()) {
    detail::ms_propagate_avx2(vs, count, fmask, seen, seen_stamp, epoch, out);
    return;
  }
#endif
  detail::ms_propagate_scalar(vs, count, fmask, seen, seen_stamp, epoch, out);
}

}  // namespace dcs::simd
