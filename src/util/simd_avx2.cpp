// AVX2 implementations of the traversal kernels. This translation unit is
// the only one compiled with -mavx2 (see src/CMakeLists.txt); nothing here
// runs unless the runtime cpuid check in simd.cpp passed, so the rest of
// the binary stays portable to pre-AVX2 x86-64.

#include "util/simd.hpp"

#ifdef DCS_HAVE_AVX2

#include <immintrin.h>

#include <algorithm>
#include <bit>

namespace dcs::simd::detail {

namespace {

// Mula nibble-LUT popcount: per-byte popcounts via two PSHUFB lookups.
inline __m256i popcount_epi8(__m256i v) {
  const __m256i lookup = _mm256_setr_epi8(
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  return _mm256_add_epi8(_mm256_shuffle_epi8(lookup, lo),
                         _mm256_shuffle_epi8(lookup, hi));
}

// The byte counts horizontally summed into the four 64-bit lanes with
// PSADBW.
inline __m256i popcount_epi64(__m256i v) {
  return _mm256_sad_epu8(popcount_epi8(v), _mm256_setzero_si256());
}

/// Writes bits [z0, z1) of `out` one 64-bit word at a time: bit z becomes
/// z != skip && passes(row z). The word is built in a register and merged
/// into `out` once, so a run may start or end mid-word.
template <typename Passes>
void threshold_run(const std::uint64_t* rows, std::size_t words,
                   std::size_t skip, std::size_t z0, std::size_t z1,
                   std::uint64_t* out, Passes passes) {
  for (std::size_t z = z0; z < z1;) {
    const std::size_t w = z >> 6;
    const std::size_t end = std::min(z1, (w + 1) * 64);
    const std::size_t hi = end - w * 64;
    const std::uint64_t run = (hi == 64 ? ~0ull : (1ull << hi) - 1) &
                              ~((1ull << (z & 63)) - 1);
    std::uint64_t set = 0;
    for (; z < end; ++z) {
      set |= static_cast<std::uint64_t>(passes(rows + z * words)) << (z & 63);
    }
    if (skip >> 6 == w) set &= ~(1ull << (skip & 63));
    out[w] = (out[w] & ~run) | set;
  }
}

}  // namespace

std::size_t and_popcount_avx2(const std::uint64_t* a, const std::uint64_t* b,
                              std::size_t words) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t w = 0;
  // Two 256-bit lanes per iteration hides the shuffle latency behind the
  // loads; the accumulator lanes cannot overflow for any realistic bitmap
  // (2^64 bits would be needed).
  for (; w + 8 <= words; w += 8) {
    const __m256i x0 = _mm256_and_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + w)),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + w)));
    const __m256i x1 = _mm256_and_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + w + 4)),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + w + 4)));
    acc = _mm256_add_epi64(acc, popcount_epi64(x0));
    acc = _mm256_add_epi64(acc, popcount_epi64(x1));
  }
  for (; w + 4 <= words; w += 4) {
    const __m256i x = _mm256_and_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + w)),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + w)));
    acc = _mm256_add_epi64(acc, popcount_epi64(x));
  }
  alignas(32) std::uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  std::size_t count = lanes[0] + lanes[1] + lanes[2] + lanes[3];
  for (; w < words; ++w) {
    count += static_cast<std::size_t>(std::popcount(a[w] & b[w]));
  }
  return count;
}

bool and_popcount_at_least_avx2(const std::uint64_t* a, const std::uint64_t* b,
                                std::size_t words, std::size_t k) {
  // The blocks of and_popcount_avx2, with the running count reduced and
  // compared with k after each 8-word block: support thresholds are small
  // next to the expected intersection, so most calls stop after one block.
  std::size_t count = 0;
  std::size_t w = 0;
  for (; w + 8 <= words && count < k; w += 8) {
    const __m256i x0 = _mm256_and_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + w)),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + w)));
    const __m256i x1 = _mm256_and_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + w + 4)),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + w + 4)));
    const __m256i block =
        _mm256_add_epi64(popcount_epi64(x0), popcount_epi64(x1));
    const __m128i half = _mm_add_epi64(_mm256_castsi256_si128(block),
                                       _mm256_extracti128_si256(block, 1));
    count += static_cast<std::size_t>(_mm_cvtsi128_si64(half)) +
             static_cast<std::size_t>(_mm_extract_epi64(half, 1));
  }
  for (; w < words && count < k; ++w) {
    count += static_cast<std::size_t>(std::popcount(a[w] & b[w]));
  }
  return count >= k;
}

void and_popcount_at_least_run_avx2(const std::uint64_t* a,
                                    const std::uint64_t* rows,
                                    std::size_t words, std::size_t skip,
                                    std::size_t z0, std::size_t z1,
                                    std::size_t k, std::uint64_t* out) {
  if (words < 8) {
    threshold_run(rows, words, skip, z0, z1, out,
                  [&](const std::uint64_t* r) {
                    return and_popcount_at_least_avx2(a, r, words, k);
                  });
    return;
  }
  // a's first 8 words stay in registers for the whole run. Each row's
  // first 8 words are counted without a branch (byte counts of both
  // halves added before one PSADBW); only a row still short of k after
  // them reads further.
  const __m256i a0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a));
  const __m256i a1 =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + 4));
  threshold_run(rows, words, skip, z0, z1, out, [&](const std::uint64_t* r) {
    const __m256i x0 = _mm256_and_si256(
        a0, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(r)));
    const __m256i x1 = _mm256_and_si256(
        a1, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(r + 4)));
    // Each byte count is at most 8, so the two halves' sum fits a byte.
    const __m256i lanes = _mm256_sad_epu8(
        _mm256_add_epi8(popcount_epi8(x0), popcount_epi8(x1)),
        _mm256_setzero_si256());
    const __m128i half = _mm_add_epi64(_mm256_castsi256_si128(lanes),
                                       _mm256_extracti128_si256(lanes, 1));
    const std::size_t head =
        static_cast<std::size_t>(_mm_cvtsi128_si64(half)) +
        static_cast<std::size_t>(_mm_extract_epi64(half, 1));
    return head >= k ||
           and_popcount_at_least_avx2(a + 8, r + 8, words - 8, k - head);
  });
}

bool rows_meet_avx2(const std::uint64_t* a, const std::uint64_t* b,
                    std::size_t words) {
  // VPTEST ands the two rows itself: 4 words per test, 8 per branch.
  auto meet4 = [&](std::size_t w) {
    return _mm256_testz_si256(
               _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + w)),
               _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + w))) ==
           0;
  };
  std::size_t w = 0;
  for (; w + 8 <= words; w += 8) {
    if (meet4(w) | meet4(w + 4)) return true;
  }
  if (w + 4 <= words) {
    if (meet4(w)) return true;
    w += 4;
  }
  for (; w < words; ++w) {
    if ((a[w] & b[w]) != 0) return true;
  }
  return false;
}

bool any_bit_of_avx2(const std::uint32_t* vs, std::size_t count,
                     const std::uint64_t* bits) {
  // View the bitset as 32-bit words (little-endian x86: bit v of the
  // uint64 view is bit (v & 31) of 32-bit word (v >> 5)) so one
  // vpgatherdd fetches eight candidate words at once.
  const int* words32 = reinterpret_cast<const int*>(bits);
  const __m256i thirty_one = _mm256_set1_epi32(31);
  const __m256i one = _mm256_set1_epi32(1);
  std::size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(vs + i));
    const __m256i widx = _mm256_srli_epi32(v, 5);
    const __m256i w = _mm256_i32gather_epi32(words32, widx, 4);
    const __m256i sh = _mm256_and_si256(v, thirty_one);
    const __m256i hit = _mm256_and_si256(_mm256_srlv_epi32(w, sh), one);
    if (!_mm256_testz_si256(hit, hit)) return true;
  }
  for (; i < count; ++i) {
    const std::uint32_t v = vs[i];
    if ((bits[v >> 6] >> (v & 63)) & 1) return true;
  }
  return false;
}

void ms_propagate_avx2(const std::uint32_t* vs, std::size_t count,
                       std::uint64_t fmask, const std::uint64_t* seen,
                       const std::uint32_t* seen_stamp, std::uint32_t epoch,
                       std::uint64_t* out) {
  const __m256i epoch_v = _mm256_set1_epi32(static_cast<int>(epoch));
  const __m256i fmask_v = _mm256_set1_epi64x(static_cast<long long>(fmask));
  std::size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(vs + i));
    // Stamp gather decides which seen words are live this epoch; stale
    // entries contribute 0 without ever being cleared.
    const __m256i stamp = _mm256_i32gather_epi32(
        reinterpret_cast<const int*>(seen_stamp), v, 4);
    const __m256i valid = _mm256_cmpeq_epi32(stamp, epoch_v);
    const __m128i v_lo = _mm256_castsi256_si128(v);
    const __m128i v_hi = _mm256_extracti128_si256(v, 1);
    const __m256i seen_lo = _mm256_i64gather_epi64(
        reinterpret_cast<const long long*>(seen), _mm256_cvtepu32_epi64(v_lo),
        8);
    const __m256i seen_hi = _mm256_i64gather_epi64(
        reinterpret_cast<const long long*>(seen), _mm256_cvtepu32_epi64(v_hi),
        8);
    // Sign-extend the 32-bit all-ones/all-zeros compare masks to 64 bits.
    const __m256i valid_lo =
        _mm256_cvtepi32_epi64(_mm256_castsi256_si128(valid));
    const __m256i valid_hi =
        _mm256_cvtepi32_epi64(_mm256_extracti128_si256(valid, 1));
    const __m256i out_lo = _mm256_andnot_si256(
        _mm256_and_si256(seen_lo, valid_lo), fmask_v);
    const __m256i out_hi = _mm256_andnot_si256(
        _mm256_and_si256(seen_hi, valid_hi), fmask_v);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), out_lo);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i + 4), out_hi);
  }
  for (; i < count; ++i) {
    const std::uint32_t v = vs[i];
    const std::uint64_t seen_v = seen_stamp[v] == epoch ? seen[v] : 0;
    out[i] = fmask & ~seen_v;
  }
}

}  // namespace dcs::simd::detail

#endif  // DCS_HAVE_AVX2
