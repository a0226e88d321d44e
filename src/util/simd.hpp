#pragma once

// Runtime-dispatched SIMD kernels for the traversal core.
//
// Four hot loops dominate the traversal engine's cycle budget: the
// word-parallel intersection popcount behind the support oracle (counted
// in full, only up to a threshold, or thresholded over a whole run of
// rows), the rows-meet test behind every d ≤ 3 answer, the bottom-up
// parent search of direction-optimizing BFS, and the 64-wide frontier
// merge of multi-source BFS. Each kernel has exactly one scalar reference
// implementation here and (when the binary was configured with
// DCS_ENABLE_AVX2) one AVX2 implementation in util/simd_avx2.cpp, compiled
// as a separately-flagged translation unit so the rest of the binary stays
// portable.
//
// Dispatch is resolved at runtime: the AVX2 path is taken only when it
// was compiled in AND the executing CPU reports AVX2 AND the
// forced-scalar override is off. The override (DCS_FORCE_SCALAR=1 in the
// environment, or set_force_scalar(true) programmatically) exists so CI
// can run the identical workload on both tiers and diff the checksums,
// and so sanitizer jobs exercise the fallback kernels — see
// docs/performance.md.
//
// Contract: for every kernel, both tiers return bit-identical results on
// identical inputs. tests/test_simd.cpp pins this property; the
// bench_microbench kernel-comparison pass re-asserts it on every perf run.

#include <cstddef>
#include <cstdint>

namespace dcs::simd {

enum class DispatchTier : std::uint8_t {
  kScalar = 0,  ///< portable std::popcount / scalar bit tests
  kAvx2 = 1,    ///< AVX2 translation unit (util/simd_avx2.cpp)
};

/// Best tier compiled into this binary and supported by the executing CPU
/// (ignores the forced-scalar override).
DispatchTier hardware_tier();

/// Tier the kernels dispatch to right now (hardware_tier() unless the
/// forced-scalar override is on).
DispatchTier active_tier();

const char* tier_name(DispatchTier tier);

/// Forced-scalar override. Initialized once from the DCS_FORCE_SCALAR
/// environment variable (any value other than empty or "0" forces the
/// scalar tier); toggleable at runtime for A/B checksum tests.
bool force_scalar();
void set_force_scalar(bool force);

/// True when kernels will take the AVX2 path on the next call.
inline bool avx2_active() { return active_tier() == DispatchTier::kAvx2; }

// --- kernels ---------------------------------------------------------------

/// popcount(a[i] & b[i]) summed over `words` 64-bit words. The adjacency-
/// bitmap intersection loop (AdjacencyBitmap::common_count). No alignment
/// requirement.
std::size_t and_popcount(const std::uint64_t* a, const std::uint64_t* b,
                         std::size_t words);

/// and_popcount(a, b, words) >= k, stopping as soon as the running count
/// reaches k. The support threshold test (the Ê test of Algorithm 1), where
/// the answer is usually settled in the first few words.
bool and_popcount_at_least(const std::uint64_t* a, const std::uint64_t* b,
                           std::size_t words, std::size_t k);

/// The row-run form of and_popcount_at_least, dispatched once per run: for
/// each z in [z0, z1), bit z of `out` (word z/64, bit z%64) becomes
/// z != skip && and_popcount_at_least(a, rows + z·words, words, k). Bits of
/// `out` outside the run keep their value. The supported-base fill
/// (AdjacencyBitmap::supported_bases), where a is row u, skip is u, and
/// nearly every base passes within its first 8 words.
void and_popcount_at_least_run(const std::uint64_t* a,
                               const std::uint64_t* rows, std::size_t words,
                               std::size_t skip, std::size_t z0,
                               std::size_t z1, std::size_t k,
                               std::uint64_t* out);

/// True iff a[i] & b[i] != 0 for some i < words: do the two bit rows
/// meet? The d ≤ 3 test B₂(u) ∩ N(v) ≠ ∅
/// (AdjacencyBitmap::distance_within_3).
bool rows_meet(const std::uint64_t* a, const std::uint64_t* b,
               std::size_t words);

/// True iff any of the `count` 32-bit vertex ids in `vs` has its bit set
/// in the bitset `bits` (bit v lives in bits[v >> 6]). The bottom-up
/// parent search: "does any neighbor of v sit on the frontier?".
bool any_bit_of(const std::uint32_t* vs, std::size_t count,
                const std::uint64_t* bits);

/// The MS-BFS frontier merge: out[i] = fmask & ~seen_at(vs[i]) for
/// i < count, where seen_at(v) = (seen_stamp[v] == epoch ? seen[v] : 0).
/// The caller applies the non-zero lanes (next-mask update + frontier
/// push) scalar — the gathers are the vectorizable part.
void ms_propagate(const std::uint32_t* vs, std::size_t count,
                  std::uint64_t fmask, const std::uint64_t* seen,
                  const std::uint32_t* seen_stamp, std::uint32_t epoch,
                  std::uint64_t* out);

namespace detail {

// Scalar reference implementations (always compiled; the semantic
// definition of each kernel and the forced-scalar/sanitizer path).
std::size_t and_popcount_scalar(const std::uint64_t* a,
                                const std::uint64_t* b, std::size_t words);
bool and_popcount_at_least_scalar(const std::uint64_t* a,
                                  const std::uint64_t* b, std::size_t words,
                                  std::size_t k);
void and_popcount_at_least_run_scalar(const std::uint64_t* a,
                                      const std::uint64_t* rows,
                                      std::size_t words, std::size_t skip,
                                      std::size_t z0, std::size_t z1,
                                      std::size_t k, std::uint64_t* out);
bool rows_meet_scalar(const std::uint64_t* a, const std::uint64_t* b,
                      std::size_t words);
bool any_bit_of_scalar(const std::uint32_t* vs, std::size_t count,
                       const std::uint64_t* bits);
void ms_propagate_scalar(const std::uint32_t* vs, std::size_t count,
                         std::uint64_t fmask, const std::uint64_t* seen,
                         const std::uint32_t* seen_stamp, std::uint32_t epoch,
                         std::uint64_t* out);

#ifdef DCS_HAVE_AVX2
// AVX2 implementations (util/simd_avx2.cpp, compiled with -mavx2; only
// ever called after the runtime cpuid check).
std::size_t and_popcount_avx2(const std::uint64_t* a, const std::uint64_t* b,
                              std::size_t words);
bool and_popcount_at_least_avx2(const std::uint64_t* a, const std::uint64_t* b,
                                std::size_t words, std::size_t k);
void and_popcount_at_least_run_avx2(const std::uint64_t* a,
                                    const std::uint64_t* rows,
                                    std::size_t words, std::size_t skip,
                                    std::size_t z0, std::size_t z1,
                                    std::size_t k, std::uint64_t* out);
bool rows_meet_avx2(const std::uint64_t* a, const std::uint64_t* b,
                    std::size_t words);
bool any_bit_of_avx2(const std::uint32_t* vs, std::size_t count,
                     const std::uint64_t* bits);
void ms_propagate_avx2(const std::uint32_t* vs, std::size_t count,
                       std::uint64_t fmask, const std::uint64_t* seen,
                       const std::uint32_t* seen_stamp, std::uint32_t epoch,
                       std::uint64_t* out);
#endif

}  // namespace detail

}  // namespace dcs::simd
