#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "graph/bfs.hpp"
#include "graph/traversal.hpp"
#include "traversal_corpus.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

// Tier-equivalence tests for the runtime-dispatched SIMD kernels: every
// kernel must be bit-identical between the active tier (AVX2 where the
// CPU has it) and the forced-scalar reference, on adversarial random
// inputs and through the full traversal engine. On hardware without AVX2
// both tiers are the scalar path and these tests pin the reference
// against itself — still meaningful as regression cover for the kernels.
//
// The whole binary also runs under DCS_FORCE_SCALAR=1 as a separate ctest
// entry (test_simd_forced_scalar et al.), which is how sanitizer jobs
// exercise the fallback kernels.

namespace dcs {
namespace {

/// Restores the forced-scalar override on scope exit so test order cannot
/// leak dispatch state.
class ForceScalarGuard {
 public:
  ForceScalarGuard() : previous_(simd::force_scalar()) {}
  ~ForceScalarGuard() { simd::set_force_scalar(previous_); }

 private:
  bool previous_;
};

TEST(Simd, DispatchTiersAreCoherent) {
  ForceScalarGuard guard;
  simd::set_force_scalar(false);
  EXPECT_EQ(simd::active_tier(), simd::hardware_tier());
  simd::set_force_scalar(true);
  EXPECT_EQ(simd::active_tier(), simd::DispatchTier::kScalar);
  EXPECT_FALSE(simd::avx2_active());
  EXPECT_STREQ(simd::tier_name(simd::DispatchTier::kScalar), "scalar");
  EXPECT_STREQ(simd::tier_name(simd::DispatchTier::kAvx2), "avx2");
}

TEST(Simd, AndPopcountMatchesScalarTier) {
  ForceScalarGuard guard;
  Rng rng(101);
  for (std::size_t words : {0u, 1u, 3u, 4u, 7u, 8u, 31u, 64u, 257u}) {
    std::vector<std::uint64_t> a(std::max<std::size_t>(words, 1));
    std::vector<std::uint64_t> b(a.size());
    for (auto& w : a) w = rng();
    for (auto& w : b) w = rng();
    simd::set_force_scalar(true);
    const std::size_t scalar = simd::and_popcount(a.data(), b.data(), words);
    EXPECT_EQ(scalar, simd::detail::and_popcount_scalar(a.data(), b.data(),
                                                        words));
    simd::set_force_scalar(false);
    EXPECT_EQ(simd::and_popcount(a.data(), b.data(), words), scalar)
        << "words=" << words;
  }
}

TEST(Simd, AndPopcountAtLeastMatchesScalarTier) {
  ForceScalarGuard guard;
  Rng rng(106);
  // Word counts straddle the AVX2 body's 8-word blocks and its scalar tail;
  // thresholds include the exact count, where the last word decides.
  for (std::size_t words : {1u, 3u, 4u, 7u, 8u, 9u, 32u, 33u}) {
    std::vector<std::uint64_t> a(words);
    std::vector<std::uint64_t> b(words);
    for (auto& w : a) w = rng();
    for (auto& w : b) w = rng();
    const std::size_t count =
        simd::detail::and_popcount_scalar(a.data(), b.data(), words);
    for (std::size_t k : {std::size_t{0}, std::size_t{1}, count, count + 1}) {
      simd::set_force_scalar(true);
      const bool scalar =
          simd::and_popcount_at_least(a.data(), b.data(), words, k);
      EXPECT_EQ(scalar, count >= k) << "words=" << words << " k=" << k;
      simd::set_force_scalar(false);
      EXPECT_EQ(simd::and_popcount_at_least(a.data(), b.data(), words, k),
                scalar)
          << "words=" << words << " k=" << k;
    }
  }
}

/// `words` random words, each the AND of `sparsity` uniform words, so a
/// bit is set with probability 2^-sparsity.
std::vector<std::uint64_t> sparse_words(Rng& rng, std::size_t words,
                                        int sparsity) {
  std::vector<std::uint64_t> out(words, ~0ull);
  for (auto& w : out) {
    for (int i = 0; i < sparsity; ++i) w &= rng();
  }
  return out;
}

TEST(Simd, AndPopcountAtLeastRunMatchesPerPairReference) {
  ForceScalarGuard guard;
  Rng rng(107);
  // 150 rows, so a run spans three words of `out` and ends mid-word.
  constexpr std::size_t kRows = 150;
  // Word counts 1–40 cover the AVX2 path's short-row fallback (< 8), its
  // 8-word head alone, and heads followed by 8-word blocks and scalar
  // tails of every length.
  for (std::size_t words = 1; words <= 40; ++words) {
    // 1 bit in 4, 8 or 16 set: AND popcounts from about words·4 down to
    // words/4, so a+1 = 6 falls on both sides of many rows.
    const auto rows = sparse_words(rng, kRows * words, 2 + words % 3);
    const std::size_t u = rng.uniform(kRows);
    const std::uint64_t* a = rows.data() + u * words;
    // The fill's own run (u's diagonal block to the end), the whole range,
    // runs that start and end mid-word around u, one bit, and none.
    const std::size_t mid = rng.uniform(kRows);
    const std::pair<std::size_t, std::size_t> runs[] = {
        {u & ~std::size_t{63}, kRows},
        {0, kRows},
        {std::min(u, mid), std::max(u, mid) + 1},
        {u == 0 ? 0 : u - 1, std::min(kRows, u + 70)},
        {u, u + 1},
        {mid, mid},
    };
    for (const std::size_t k : {std::size_t{1}, std::size_t{6},
                                64 * words + 1}) {
      for (const auto& [z0, z1] : runs) {
        // Bits outside the run must keep their (random) values.
        const auto before = sparse_words(rng, (kRows + 63) / 64, 1);
        auto expected = before;
        for (std::size_t z = z0; z < z1; ++z) {
          const bool pass =
              z != u && simd::detail::and_popcount_scalar(
                            a, rows.data() + z * words, words) >= k;
          expected[z >> 6] = (expected[z >> 6] & ~(1ull << (z & 63))) |
                             (std::uint64_t{pass} << (z & 63));
        }
        for (const bool scalar : {true, false}) {
          simd::set_force_scalar(scalar);
          auto out = before;
          simd::and_popcount_at_least_run(a, rows.data(), words, u, z0, z1, k,
                                          out.data());
          EXPECT_EQ(out, expected)
              << "words=" << words << " k=" << k << " u=" << u
              << " run=[" << z0 << "," << z1 << ") scalar=" << scalar;
        }
      }
    }
  }
}

TEST(Simd, RowsMeetMatchesPerWordReference) {
  ForceScalarGuard guard;
  Rng rng(108);
  for (std::size_t words = 1; words <= 40; ++words) {
    const auto check = [&](const std::vector<std::uint64_t>& a,
                           const std::vector<std::uint64_t>& b) {
      const bool expected =
          simd::detail::and_popcount_scalar(a.data(), b.data(), words) > 0;
      for (const bool scalar : {true, false}) {
        simd::set_force_scalar(scalar);
        EXPECT_EQ(simd::rows_meet(a.data(), b.data(), words), expected)
            << "words=" << words << " scalar=" << scalar;
      }
    };
    const auto complement = [](std::vector<std::uint64_t> row) {
      for (auto& w : row) w = ~w;
      return row;
    };
    for (int sparsity = 1; sparsity <= 8; ++sparsity) {
      const auto a = sparse_words(rng, words, sparsity);
      check(a, sparse_words(rng, words, sparsity));
      check(a, complement(a));
      // Rows that meet in one bit of their first or last word: the last
      // sits in the AVX2 path's scalar tail, 4-word step or last block,
      // depending on the word count.
      for (const std::size_t only : {std::size_t{0}, words - 1}) {
        const std::uint64_t bit = 1ull << rng.uniform(64);
        auto a1 = a;
        a1[only] |= bit;
        auto b1 = complement(a1);
        b1[only] |= bit;
        check(a1, b1);
      }
    }
  }
}

TEST(Simd, MsPropagateMatchesScalarTier) {
  ForceScalarGuard guard;
  Rng rng(103);
  constexpr std::size_t kVertices = 512;
  constexpr std::uint32_t kEpoch = 7;
  std::vector<std::uint64_t> seen(kVertices);
  std::vector<std::uint32_t> stamp(kVertices);
  for (std::size_t v = 0; v < kVertices; ++v) {
    seen[v] = rng();
    // Mix of live, stale, and future stamps: stale entries must read as 0.
    stamp[v] = static_cast<std::uint32_t>(rng.uniform(3)) + kEpoch - 1;
  }
  for (std::size_t count : {0u, 1u, 7u, 8u, 15u, 64u, 200u}) {
    std::vector<std::uint32_t> vs(std::max<std::size_t>(count, 1));
    for (auto& v : vs) {
      v = static_cast<std::uint32_t>(rng.uniform(kVertices));
    }
    const std::uint64_t fmask = rng();
    std::vector<std::uint64_t> out_scalar(vs.size() + 1, 0xfeed);
    std::vector<std::uint64_t> out_fast(vs.size() + 1, 0xfeed);
    simd::set_force_scalar(true);
    simd::ms_propagate(vs.data(), count, fmask, seen.data(), stamp.data(),
                       kEpoch, out_scalar.data());
    simd::set_force_scalar(false);
    simd::ms_propagate(vs.data(), count, fmask, seen.data(), stamp.data(),
                       kEpoch, out_fast.data());
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_EQ(out_fast[i], out_scalar[i]) << "count=" << count << " i=" << i;
      const std::uint64_t seen_v = stamp[vs[i]] == kEpoch ? seen[vs[i]] : 0;
      ASSERT_EQ(out_scalar[i], fmask & ~seen_v);
    }
    // Neither tier may write past `count`.
    EXPECT_EQ(out_fast[count], 0xfeedu);
    EXPECT_EQ(out_scalar[count], 0xfeedu);
  }
}

TEST(Simd, HasEdgeMatchesBinarySearchOnCorpus) {
  Rng rng(104);
  for (const Graph& g : testing::corpus()) {
    if (g.num_vertices() == 0) continue;
    for (const Edge& e : g.edges()) {
      ASSERT_TRUE(g.has_edge(e.u, e.v));
      ASSERT_TRUE(g.has_edge(e.v, e.u));
    }
    for (int trial = 0; trial < 60; ++trial) {
      const auto u = static_cast<Vertex>(rng.uniform(g.num_vertices()));
      const auto v = static_cast<Vertex>(rng.uniform(g.num_vertices()));
      const auto nb = g.neighbors(u);
      const bool reference =
          u != v && std::binary_search(nb.begin(), nb.end(), v);
      ASSERT_EQ(g.has_edge(u, v), reference)
          << "n=" << g.num_vertices() << " u=" << u << " v=" << v;
    }
  }
}

TEST(Simd, TraversalEngineIdenticalAcrossTiers) {
  ForceScalarGuard guard;
  Rng rng(105);
  for (const Graph& g : testing::corpus()) {
    if (g.num_vertices() == 0) continue;
    const auto sources = testing::sample_sources(g, rng, kMsBfsBatch);

    simd::set_force_scalar(true);
    std::vector<std::vector<Dist>> ms_scalar(sources.size());
    {
      const MsBfsView view = multi_source_bfs(g, sources);
      for (std::size_t i = 0; i < sources.size(); ++i) {
        ms_scalar[i].resize(g.num_vertices());
        for (Vertex v = 0; v < g.num_vertices(); ++v) {
          ms_scalar[i][v] = view.at(i, v);
        }
      }
    }

    simd::set_force_scalar(false);
    const MsBfsView view = multi_source_bfs(g, sources);
    for (std::size_t i = 0; i < sources.size(); ++i) {
      for (Vertex v = 0; v < g.num_vertices(); ++v) {
        ASSERT_EQ(view.at(i, v), ms_scalar[i][v])
            << "n=" << g.num_vertices() << " i=" << i << " v=" << v;
      }
    }
  }
}

}  // namespace
}  // namespace dcs
