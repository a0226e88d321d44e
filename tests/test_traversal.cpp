#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/support.hpp"
#include "graph/adjacency_bitmap.hpp"
#include "graph/bfs.hpp"
#include "graph/generators.hpp"
#include "graph/traversal.hpp"
#include "traversal_corpus.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

// Equivalence property tests pinning the batched traversal engine
// (multi-source BFS, direction-optimizing BFS) and the bitmap support
// oracle to the scalar reference implementations, over the shared corpus
// (traversal_corpus.hpp) of seeded random / regular / expander graphs
// plus disconnected and star-shaped corner cases.

namespace dcs {
namespace {

using dcs::testing::corpus;
using dcs::testing::disconnected_graph;
using dcs::testing::sample_sources;
using dcs::testing::star_graph;

TEST(Traversal, CorpusHasFiftyGraphs) {
  EXPECT_GE(corpus().size(), 50u);
}

TEST(Traversal, HybridBfsMatchesScalarOnCorpus) {
  Rng rng(7);
  for (const Graph& g : corpus()) {
    for (Vertex s : sample_sources(g, rng, 6)) {
      const auto reference = bfs_distances(g, s);
      const auto hybrid = bfs_distances_hybrid(g, s);
      EXPECT_EQ(hybrid, reference)
          << "n=" << g.num_vertices() << " m=" << g.num_edges()
          << " source=" << s;
    }
  }
}

TEST(Traversal, HybridBfsMatchesScalarBounded) {
  Rng rng(8);
  for (const Graph& g : corpus()) {
    for (Vertex s : sample_sources(g, rng, 3)) {
      for (Dist cap : {Dist{0}, Dist{1}, Dist{2}, Dist{5}}) {
        EXPECT_EQ(bfs_distances_hybrid(g, s, cap),
                  bfs_distances_bounded(g, s, cap))
            << "n=" << g.num_vertices() << " cap=" << cap;
      }
    }
  }
}

TEST(Traversal, MultiSourceMatchesScalarOnCorpus) {
  Rng rng(9);
  for (const Graph& g : corpus()) {
    const auto sources = sample_sources(g, rng, kMsBfsBatch);
    const MsBfsView view = multi_source_bfs(g, sources);
    for (std::size_t i = 0; i < sources.size(); ++i) {
      const auto reference = bfs_distances(g, sources[i]);
      for (Vertex v = 0; v < g.num_vertices(); ++v) {
        ASSERT_EQ(view.at(i, v), reference[v])
            << "n=" << g.num_vertices() << " source=" << sources[i]
            << " v=" << v;
      }
    }
  }
}

TEST(Traversal, MultiSourceMatchesScalarBounded) {
  Rng rng(10);
  for (const Graph& g : corpus()) {
    const auto sources = sample_sources(g, rng, 17);  // partial batch
    for (Dist cap : {Dist{1}, Dist{3}}) {
      const MsBfsView view = multi_source_bfs(g, sources, cap);
      for (std::size_t i = 0; i < sources.size(); ++i) {
        const auto reference = bfs_distances_bounded(g, sources[i], cap);
        for (Vertex v = 0; v < g.num_vertices(); ++v) {
          ASSERT_EQ(view.at(i, v), reference[v]);
        }
      }
    }
  }
}

TEST(Traversal, MultiSourceDuplicateSourcesResolveIdentically) {
  const Graph g = random_regular(64, 6, 5);
  const std::vector<Vertex> sources{3, 3, 7, 3};
  const MsBfsView view = multi_source_bfs(g, sources);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(view.at(0, v), view.at(1, v));
    EXPECT_EQ(view.at(0, v), view.at(3, v));
  }
}

TEST(Traversal, ArenaReuseAcrossMixedCallsStaysCorrect) {
  // Interleave graphs of different sizes and call kinds on one thread so
  // the epoch-stamped arena is resized, reused, and re-stamped; stale
  // state from any earlier call must never leak into a later result.
  const Graph small = cycle_graph(10);
  const Graph big = random_regular(500, 8, 3);
  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(bfs_distances_hybrid(big, 0), bfs_distances(big, 0));
    EXPECT_EQ(bfs_distances_hybrid(small, 1), bfs_distances(small, 1));
    const std::vector<Vertex> sources{0, 5, 9};
    const MsBfsView view = multi_source_bfs(small, sources, 2);
    const auto ref = bfs_distances_bounded(small, 5, 2);
    for (Vertex v = 0; v < small.num_vertices(); ++v) {
      EXPECT_EQ(view.at(1, v), ref[v]);
    }
  }
}

TEST(Traversal, MultiSourceEmptyAndOutOfRange) {
  const Graph g = path_graph(4);
  const MsBfsView view = multi_source_bfs(g, {});
  EXPECT_EQ(view.batch, 0u);
  const std::vector<Vertex> bad{9};
  EXPECT_THROW(multi_source_bfs(g, bad), std::invalid_argument);
  const std::vector<Vertex> too_many(kMsBfsBatch + 1, 0);
  EXPECT_THROW(multi_source_bfs(g, too_many), std::invalid_argument);
  EXPECT_THROW(bfs_distances_hybrid(g, 11), std::invalid_argument);
}

TEST(AdjacencyBitmap, MatchesScalarSupportOnCorpus) {
  Rng rng(11);
  for (const Graph& g : corpus()) {
    if (g.num_vertices() < 2) continue;
    // Force-build regardless of the density heuristic: equivalence must
    // hold everywhere, not just where the bitmap is profitable.
    const AdjacencyBitmap bm(g);
    std::vector<Vertex> out;
    for (int trial = 0; trial < 40; ++trial) {
      const auto u = static_cast<Vertex>(rng.uniform(g.num_vertices()));
      const auto v = static_cast<Vertex>(rng.uniform(g.num_vertices()));
      EXPECT_EQ(bm.test(u, v), g.has_edge(u, v));
      if (u == v) continue;
      const auto reference = common_neighbors(g, u, v);
      const std::size_t support = base_support(g, u, v);
      EXPECT_EQ(bm.common_count(u, v), support);
      EXPECT_TRUE(simd::and_popcount_at_least(
          bm.row(u).data(), bm.row(v).data(), bm.words_per_row(), support));
      EXPECT_FALSE(simd::and_popcount_at_least(bm.row(u).data(),
                                               bm.row(v).data(),
                                               bm.words_per_row(),
                                               support + 1));
      bm.common_into(u, v, out);
      EXPECT_EQ(out, reference);
    }
    // supported_bases tests each unordered base once and mirrors the rest;
    // the corpus sizes that are not a multiple of 64 (checked below) end
    // in a partial diagonal block.
    for (std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      const AdjacencyBitmap bases = bm.supported_bases(k);
      for (Vertex u = 0; u < g.num_vertices(); ++u) {
        for (Vertex z = 0; z < g.num_vertices(); ++z) {
          ASSERT_EQ(bases.test(u, z), u != z && base_support(g, u, z) >= k)
              << "n=" << g.num_vertices() << " k=" << k << " u=" << u
              << " z=" << z;
        }
      }
    }
    // Row u of the two-ball bitmap is the BFS ball of radius 2 around u,
    // and ball_row(g, u) is that row on its own.
    const AdjacencyBitmap ball = bm.two_ball(g);
    std::vector<std::uint64_t> row(bm.words_per_row());
    for (Vertex u = 0; u < g.num_vertices(); ++u) {
      const auto dist = bfs_distances_bounded(g, u, 2);
      for (Vertex v = 0; v < g.num_vertices(); ++v) {
        ASSERT_EQ(ball.test(u, v), dist[v] != kUnreachable)
            << "n=" << g.num_vertices() << " u=" << u << " v=" << v;
      }
      bm.ball_row(g, u, row);
      ASSERT_TRUE(std::ranges::equal(row, ball.row(u)))
          << "n=" << g.num_vertices() << " u=" << u;
    }
  }
  EXPECT_TRUE(std::ranges::any_of(corpus(), [](const Graph& g) {
    return g.num_vertices() > 64 && g.num_vertices() % 64 != 0;
  }));
}

/// d(u,v) when it is at most 3, else kUnreachable: what
/// ShortDistanceOracle::distance must return.
Dist capped_distance(const Graph& g, Vertex u, Vertex v) {
  const Dist d = bfs_distance(g, u, v);
  return d <= 3 ? d : kUnreachable;
}

/// One oracle on each side of ShortDistanceOracle::balls_pay: no queries
/// never pay for the balls, and a billion always do.
struct BothDistanceOracles {
  explicit BothDistanceOracles(const Graph& g)
      : merges(g, 0), balls(g, std::size_t{1} << 30) {}
  ShortDistanceOracle merges;
  ShortDistanceOracle balls;
};

TEST(SupportOracle, MatchesScalarOnDenseAndSparseGraphs) {
  // One graph above the bitmap density threshold, one below; oracle
  // answers must be identical to the scalar reference on both.
  const Graph dense = random_regular(130, 36, 21);
  const Graph sparse = random_regular(2000, 6, 22);
  ASSERT_TRUE(AdjacencyBitmap::worthwhile(dense.num_vertices(),
                                          dense.num_edges()));
  ASSERT_FALSE(AdjacencyBitmap::worthwhile(sparse.num_vertices(),
                                           sparse.num_edges()));
  for (const Graph* g : {&dense, &sparse}) {
    const SupportOracle oracle(*g);
    EXPECT_EQ(oracle.bitmapped(), g == &dense);
    const BothDistanceOracles near(*g);
    ASSERT_FALSE(near.merges.balled());
    ASSERT_TRUE(near.balls.balled());
    Rng rng(23);
    for (Edge e : g->edges()) {
      for (std::size_t a : {std::size_t{0}, std::size_t{2}}) {
        EXPECT_EQ(oracle.count_supported_extensions(e.u, e.v, a),
                  count_supported_extensions(*g, e.u, e.v, a));
        for (std::size_t b : {std::size_t{1}, std::size_t{4}}) {
          EXPECT_EQ(oracle.is_ab_supported_toward(e.u, e.v, a, b),
                    is_ab_supported_toward(*g, e.u, e.v, a, b));
          EXPECT_EQ(oracle.is_ab_supported(e, a, b),
                    is_ab_supported(*g, e, a, b));
        }
      }
    }
    for (int trial = 0; trial < 200; ++trial) {
      const auto u = static_cast<Vertex>(rng.uniform(g->num_vertices()));
      const auto v = static_cast<Vertex>(rng.uniform(g->num_vertices()));
      if (u == v) continue;
      EXPECT_EQ(oracle.base_support(u, v), base_support(*g, u, v));
      const bool reference = has_short_replacement(*g, u, v);
      EXPECT_EQ(near.merges.has_short_replacement(u, v), reference);
      EXPECT_EQ(near.balls.has_short_replacement(u, v), reference);
      EXPECT_EQ(near.merges.distance(u, v), capped_distance(*g, u, v));
      EXPECT_EQ(near.balls.distance(u, v), capped_distance(*g, u, v));
      EXPECT_EQ(oracle.common_neighbors(u, v), common_neighbors(*g, u, v));
    }
  }
}

TEST(SupportOracle, HasShortReplacementCornerCases) {
  // Star: leaves pairwise share only the hub; ring of cliques: cross
  // edges have no common neighbors but do have 3-detours through the
  // cliques; isolated vertices have empty balls beyond themselves...
  // verify oracle equivalence on such structured cases.
  for (const Graph& g : {star_graph(80), ring_of_cliques(5, 9),
                         clique_matching_graph(40),
                         disconnected_graph(80, 5)}) {
    const BothDistanceOracles near(g);
    Rng rng(31);
    for (int trial = 0; trial < 150; ++trial) {
      const auto u = static_cast<Vertex>(rng.uniform(g.num_vertices()));
      const auto v = static_cast<Vertex>(rng.uniform(g.num_vertices()));
      if (u == v) continue;
      const bool reference = has_short_replacement(g, u, v);
      EXPECT_EQ(near.merges.has_short_replacement(u, v), reference);
      EXPECT_EQ(near.balls.has_short_replacement(u, v), reference);
      EXPECT_EQ(near.merges.distance(u, v), capped_distance(g, u, v));
      EXPECT_EQ(near.balls.distance(u, v), capped_distance(g, u, v));
    }
  }
}

TEST(AdjacencyBitmap, WorthwhileHeuristic) {
  EXPECT_FALSE(AdjacencyBitmap::worthwhile(32, 496));  // tiny n
  EXPECT_TRUE(AdjacencyBitmap::worthwhile(256, 1024));   // 2m/n = 8 ≥ n/128
  EXPECT_FALSE(AdjacencyBitmap::worthwhile(4096, 4096));  // far too sparse
  // Memory ceiling: n²/8 bytes beyond kMaxBytes must refuse.
  EXPECT_FALSE(AdjacencyBitmap::worthwhile(1u << 18, 1ull << 34));
  EXPECT_TRUE(AdjacencyBitmap::build_if_worthwhile(path_graph(500)).empty());
}

}  // namespace
}  // namespace dcs
