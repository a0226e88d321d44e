#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>

#include "graph/bfs.hpp"
#include "graph/connectivity.hpp"
#include "graph/generators.hpp"

namespace dcs {
namespace {

TEST(Generators, CompleteGraph) {
  const Graph g = complete_graph(6);
  EXPECT_EQ(g.num_vertices(), 6u);
  EXPECT_EQ(g.num_edges(), 15u);
  EXPECT_TRUE(g.is_regular());
  EXPECT_EQ(g.min_degree(), 5u);
}

TEST(Generators, CycleAndPath) {
  const Graph c = cycle_graph(7);
  EXPECT_EQ(c.num_edges(), 7u);
  EXPECT_TRUE(c.is_regular());
  const Graph p = path_graph(7);
  EXPECT_EQ(p.num_edges(), 6u);
  EXPECT_EQ(p.min_degree(), 1u);
}

TEST(Generators, Hypercube) {
  const Graph g = hypercube(4);
  EXPECT_EQ(g.num_vertices(), 16u);
  EXPECT_EQ(g.num_edges(), 32u);  // n * d / 2
  EXPECT_TRUE(g.is_regular());
  EXPECT_EQ(g.min_degree(), 4u);
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(bfs_distance(g, 0b0000, 0b1111), 4u);
}

TEST(Generators, Torus) {
  const Graph g = torus_2d(4, 5);
  EXPECT_EQ(g.num_vertices(), 20u);
  EXPECT_TRUE(g.is_regular());
  EXPECT_EQ(g.min_degree(), 4u);
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, ErdosRenyiDensityAndDeterminism) {
  const Graph a = erdos_renyi(200, 0.1, 99);
  const Graph b = erdos_renyi(200, 0.1, 99);
  EXPECT_EQ(a, b);
  const double expected = 0.1 * (200.0 * 199.0 / 2.0);
  EXPECT_NEAR(static_cast<double>(a.num_edges()), expected, expected * 0.15);
  const Graph zero = erdos_renyi(50, 0.0, 1);
  EXPECT_EQ(zero.num_edges(), 0u);
  const Graph full = erdos_renyi(20, 1.0, 1);
  EXPECT_EQ(full.num_edges(), 190u);
}

class RandomRegularTest
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(RandomRegularTest, ProducesSimpleRegularConnectedGraph) {
  const auto [n, delta] = GetParam();
  const Graph g = random_regular(n, delta, /*seed=*/1234);
  EXPECT_EQ(g.num_vertices(), n);
  EXPECT_TRUE(g.is_regular());
  EXPECT_EQ(g.min_degree(), delta);
  EXPECT_EQ(g.num_edges(), n * delta / 2);
  if (delta >= 3) {
    EXPECT_TRUE(is_connected(g));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, RandomRegularTest,
    ::testing::Values(std::pair<std::size_t, std::size_t>{16, 3},
                      std::pair<std::size_t, std::size_t>{64, 8},
                      std::pair<std::size_t, std::size_t>{100, 20},
                      std::pair<std::size_t, std::size_t>{128, 40},
                      std::pair<std::size_t, std::size_t>{200, 60},
                      std::pair<std::size_t, std::size_t>{50, 49}));

TEST(Generators, RandomRegularDeterministicPerSeed) {
  const Graph a = random_regular(60, 10, 7);
  const Graph b = random_regular(60, 10, 7);
  const Graph c = random_regular(60, 10, 8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

/// FNV-1a over the canonical edge list.
std::uint64_t edge_digest(const Graph& g) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const Edge& e : g.edges()) {
    for (Vertex x : {e.u, e.v}) {
      h ^= x;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

TEST(Generators, RandomRegularGoldenDigests) {
  // Pins the RNG draw sequence on both membership structures: the first
  // three inputs track edges in a bit matrix (AdjacencyBitmap::worthwhile),
  // the last one in a hash set.
  const struct {
    std::size_t n;
    std::size_t delta;
    std::uint64_t seed;
    std::uint64_t digest;
  } cases[] = {
      {2048, 320, 1, 0x89e870413cdbc1bdull},
      {256, 80, 7, 0x682c86d20331b4adull},
      {512, 64, 7, 0xcebc62253ac8160bull},
      {20000, 16, 1, 0xd3d1bc5dc7b1156dull},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(edge_digest(random_regular(c.n, c.delta, c.seed)), c.digest)
        << "n=" << c.n << " delta=" << c.delta << " seed=" << c.seed;
  }
}

TEST(Generators, RandomRegularRejectsBadArguments) {
  EXPECT_THROW(random_regular(9, 2, 1), std::invalid_argument);   // odd n
  EXPECT_THROW(random_regular(10, 0, 1), std::invalid_argument);  // degree 0
  EXPECT_THROW(random_regular(10, 10, 1), std::invalid_argument); // degree n
}

TEST(Generators, MargulisExpanderShape) {
  const Graph g = margulis_expander(10);
  EXPECT_EQ(g.num_vertices(), 100u);
  EXPECT_TRUE(is_connected(g));
  EXPECT_LE(g.max_degree(), 8u);
  EXPECT_GE(g.min_degree(), 3u);
  // Logarithmic diameter is the qualitative expander signature.
  EXPECT_LE(diameter_lower_bound(g), 12u);
}

TEST(Generators, CliqueMatchingGraphShape) {
  const std::size_t n = 12;
  const Graph g = clique_matching_graph(n);
  EXPECT_EQ(g.num_vertices(), n);
  // two cliques of n/2 plus n/2 matching edges
  const std::size_t half = n / 2;
  EXPECT_EQ(g.num_edges(), half * (half - 1) + half);
  EXPECT_TRUE(g.is_regular());
  // matched pairs
  for (Vertex i = 0; i < half; ++i) {
    EXPECT_TRUE(g.has_edge(i, static_cast<Vertex>(half + i)));
  }
  // no cross edges besides the matching
  EXPECT_FALSE(g.has_edge(0, static_cast<Vertex>(half + 1)));
}

TEST(Generators, Lemma2GraphStructure) {
  const std::size_t pairs = 5;
  const std::size_t alpha = 3;
  const Lemma2Graph lg = lemma2_graph(pairs, alpha);
  const Graph& g = lg.g;
  EXPECT_EQ(g.num_vertices(), 2 * pairs + pairs * (alpha - 1));
  // cliques
  for (std::size_t i = 0; i < pairs; ++i) {
    for (std::size_t j = i + 1; j < pairs; ++j) {
      EXPECT_TRUE(g.has_edge(lg.a[i], lg.a[j]));
      EXPECT_TRUE(g.has_edge(lg.b[i], lg.b[j]));
    }
  }
  // matching and detours of length alpha
  for (std::size_t i = 0; i < pairs; ++i) {
    EXPECT_TRUE(g.has_edge(lg.a[i], lg.b[i]));
    ASSERT_EQ(lg.detours[i].size(), alpha - 1);
    Vertex prev = lg.a[i];
    for (Vertex d : lg.detours[i]) {
      EXPECT_TRUE(g.has_edge(prev, d));
      prev = d;
    }
    EXPECT_TRUE(g.has_edge(prev, lg.b[i]));
  }
}

TEST(Generators, FanGadgetMatchesLemma18Counts) {
  for (std::size_t k : {1u, 2u, 4u, 9u}) {
    const FanGadget fan = fan_gadget(k);
    EXPECT_EQ(fan.g.num_vertices(), 2 * k + 2);
    EXPECT_EQ(fan.g.num_edges(), 3 * k + 1);
    // rays exactly at odd-indexed line positions (1-based) = even 0-based
    std::size_t rays = 0;
    for (std::size_t i = 0; i < fan.line.size(); ++i) {
      const bool has_ray = fan.g.has_edge(fan.hub, fan.line[i]);
      EXPECT_EQ(has_ray, i % 2 == 0);
      if (has_ray) ++rays;
    }
    EXPECT_EQ(rays, k + 1);
    EXPECT_TRUE(is_connected(fan.g));
  }
}

TEST(Generators, RingOfCliquesStructure) {
  const Graph g = ring_of_cliques(5, 4);
  EXPECT_EQ(g.num_vertices(), 20u);
  EXPECT_TRUE(g.is_regular());
  EXPECT_EQ(g.min_degree(), 5u);  // clique_size - 1 + 2 cross partners
  EXPECT_TRUE(is_connected(g));
  // clique edges present, cross matching present
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(0, 4));   // vertex 0 of clique 0 ↔ clique 1
  EXPECT_TRUE(g.has_edge(0, 16));  // wraps to the last clique
  EXPECT_FALSE(g.has_edge(0, 5));  // no cross edge between different slots
}

TEST(Generators, RingOfCliquesCrossEdgesHaveWeakSupport) {
  // A cross edge has exactly 2 common-neighbor routers (the two parallel
  // matching partners' — in fact just its neighbors via the two incident
  // cliques' matchings), far fewer than a clique edge's clique_size-2.
  const Graph g = ring_of_cliques(6, 10);
  std::size_t cross_common = 0, clique_common = 0;
  // (0, 10): cross edge slot 0, cliques 0→1
  for (Vertex x : g.neighbors(0)) {
    if (g.has_edge(x, 10)) ++cross_common;
  }
  for (Vertex x : g.neighbors(0)) {
    if (g.has_edge(x, 1)) ++clique_common;
  }
  EXPECT_LE(cross_common, 2u);
  EXPECT_GE(clique_common, 8u);
}

TEST(Generators, RingOfCliquesRejectsBadArguments) {
  EXPECT_THROW(ring_of_cliques(2, 4), std::invalid_argument);
  EXPECT_THROW(ring_of_cliques(4, 1), std::invalid_argument);
}

TEST(Generators, FanGadgetLineIsAPath) {
  const FanGadget fan = fan_gadget(3);
  for (std::size_t i = 0; i + 1 < fan.line.size(); ++i) {
    EXPECT_TRUE(fan.g.has_edge(fan.line[i], fan.line[i + 1]));
  }
  EXPECT_FALSE(fan.g.has_edge(fan.line.front(), fan.line.back()));
}

}  // namespace
}  // namespace dcs
