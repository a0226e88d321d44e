#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <utility>

#include "core/router.hpp"
#include "core/support.hpp"
#include "core/verifier.hpp"
#include "graph/bfs.hpp"
#include "graph/generators.hpp"
#include "routing/shortest_paths.hpp"
#include "routing/workloads.hpp"

namespace dcs {
namespace {

TEST(DistanceStretch, IdenticalGraphsHaveStretchOne) {
  const Graph g = random_regular(60, 8, 1);
  const auto report = measure_distance_stretch(g, g);
  EXPECT_DOUBLE_EQ(report.max_stretch, 1.0);
  EXPECT_DOUBLE_EQ(report.mean_stretch, 1.0);
  EXPECT_EQ(report.checked_edges, g.num_edges());
  EXPECT_EQ(report.unreachable, 0u);
  EXPECT_TRUE(report.satisfies(1.0));
}

TEST(DistanceStretch, RemovedChordMeasured) {
  // C_5 plus chord (0,2); spanner = C_5. d_H(0,2) = 2.
  auto edges = cycle_graph(5).edges();
  auto with_chord = edges;
  with_chord.push_back(canonical(0, 2));
  const Graph g = Graph::from_edges(5, with_chord);
  const Graph h = Graph::from_edges(5, edges);
  const auto report = measure_distance_stretch(g, h);
  EXPECT_DOUBLE_EQ(report.max_stretch, 2.0);
  EXPECT_TRUE(report.satisfies(2.0));
  EXPECT_FALSE(report.satisfies(1.5));
}

TEST(DistanceStretch, UnreachableReported) {
  const Graph g = Graph::from_edges(4, std::vector<Edge>{{0, 1}, {2, 3}});
  const Graph h = Graph::from_edges(4, std::vector<Edge>{{0, 1}});
  const auto report = measure_distance_stretch(g, h);
  EXPECT_EQ(report.unreachable, 1u);
  EXPECT_FALSE(report.satisfies(100.0));
}

TEST(DistanceStretch, CapLimitsSearchDepth) {
  // G = path + long-way-around edge; with a small cap the far pair reads
  // as unreachable instead of spending a full BFS.
  const Graph g = cycle_graph(30);
  std::vector<Edge> chordless;
  for (Edge e : g.edges()) {
    if (!(e.u == 0 && e.v == 29)) chordless.push_back(e);
  }
  const Graph h = Graph::from_edges(30, chordless);
  const auto capped = measure_distance_stretch(g, h, /*cap=*/5);
  EXPECT_EQ(capped.unreachable, 1u);
  const auto full = measure_distance_stretch(g, h, /*cap=*/64);
  EXPECT_EQ(full.unreachable, 0u);
  EXPECT_DOUBLE_EQ(full.max_stretch, 29.0);
}

/// measure_distance_stretch recomputed with one bounded BFS per G-edge.
DistanceStretchReport bfs_reference(const Graph& g, const Graph& h,
                                    Dist cap) {
  DistanceStretchReport r;
  double total = 0.0;
  for (Edge e : g.edges()) {
    const Dist d = bfs_distances_bounded(h, e.u, cap)[e.v];
    ++r.checked_edges;
    if (d == kUnreachable) {
      ++r.unreachable;
    } else {
      total += d;
      r.max_stretch = std::max(r.max_stretch, static_cast<double>(d));
    }
  }
  const std::size_t reached = r.checked_edges - r.unreachable;
  r.mean_stretch = reached == 0 ? 0.0 : total / static_cast<double>(reached);
  return r;
}

/// H is the cycle C_c on [0, c) plus `isolated` vertices; G adds chords
/// spanning k = 2..5 cycle steps (so d_H = k) and edges into the isolated
/// vertices (unreachable in H).
std::pair<Graph, Graph> chorded_cycle(std::size_t c, std::size_t isolated) {
  const std::size_t n = c + isolated;
  std::vector<Edge> cycle;
  for (Vertex v = 0; v < c; ++v) {
    cycle.push_back(canonical(v, static_cast<Vertex>((v + 1) % c)));
  }
  std::vector<Edge> edges = cycle;
  for (Vertex v = 0; v < c; v += 3) {
    const Vertex k = 2 + v % 4;
    edges.push_back(canonical(v, static_cast<Vertex>((v + k) % c)));
  }
  for (Vertex i = 0; i < isolated; ++i) {
    const auto w = static_cast<Vertex>(c + i);
    edges.push_back(canonical(static_cast<Vertex>(7 * i % c), w));
    if (i > 0) edges.push_back(canonical(w - 1, w));
  }
  return {Graph::from_edges(n, edges), Graph::from_edges(n, cycle)};
}

TEST(DistanceStretch, BallAndBfsPathsMatchPerSourceBfs) {
  // G-edges at H-distance 1–5 plus unreachable ones. The small instance
  // takes the radius-2 balls and hands its d > 3 edges to the MS-BFS
  // (or, under a cap ≤ 3, counts them unreachable); the large sparse one
  // does not pay for the balls and runs MS-BFS throughout.
  for (const auto& [c, isolated, balled] :
       {std::tuple{std::size_t{40}, std::size_t{6}, true},
        std::tuple{std::size_t{3000}, std::size_t{20}, false}}) {
    const auto [g, h] = chorded_cycle(c, isolated);
    ASSERT_EQ(ShortDistanceOracle::balls_pay(h.num_vertices(), h.num_edges(),
                                             g.num_edges()),
              balled);
    for (Dist cap : {Dist{1}, Dist{2}, Dist{3}, Dist{4}, Dist{16}}) {
      const auto got = measure_distance_stretch(g, h, cap);
      const auto want = bfs_reference(g, h, cap);
      EXPECT_DOUBLE_EQ(got.max_stretch, want.max_stretch) << "cap=" << cap;
      EXPECT_DOUBLE_EQ(got.mean_stretch, want.mean_stretch) << "cap=" << cap;
      EXPECT_EQ(got.checked_edges, want.checked_edges) << "cap=" << cap;
      EXPECT_EQ(got.unreachable, want.unreachable) << "cap=" << cap;
    }
    const auto full = measure_distance_stretch(g, h, 16);
    EXPECT_DOUBLE_EQ(full.max_stretch, 5.0);
    EXPECT_EQ(full.unreachable, 2 * isolated - 1);
  }
}

TEST(ExactPairwiseStretch, MatchesEdgeStretchOnUnitDistances) {
  const Graph g = complete_graph(8);
  // remove a perfect matching
  std::vector<Edge> kept;
  for (Edge e : g.edges()) {
    if (!(e.v == e.u + 4 && e.u < 4)) kept.push_back(e);
  }
  const Graph h = Graph::from_edges(8, kept);
  EXPECT_DOUBLE_EQ(exact_pairwise_stretch(g, h), 2.0);
}

TEST(ExactPairwiseStretch, SpannerEqualGraphIsOne) {
  const Graph g = hypercube(4);
  EXPECT_DOUBLE_EQ(exact_pairwise_stretch(g, g), 1.0);
}

TEST(MatchingCongestion, DirectRoutingOnFullGraphIsOne) {
  const Graph g = random_regular(40, 6, 2);
  const auto matching = random_matching_problem(g, 3);
  DetourRouter router(g, g);  // H = G: all pairs routed directly
  const auto report =
      measure_matching_congestion(g, g, matching, router, 5);
  EXPECT_EQ(report.base_congestion, 1u);
  EXPECT_EQ(report.spanner_congestion, 1u);
  EXPECT_DOUBLE_EQ(report.congestion_stretch(), 1.0);
  EXPECT_DOUBLE_EQ(report.max_length_ratio, 1.0);
}

TEST(MatchingCongestion, RequiresMatchingOfEdges) {
  const Graph g = cycle_graph(6);
  DetourRouter router(g, g);
  RoutingProblem not_matching;
  not_matching.pairs = {{0, 1}, {1, 2}};
  EXPECT_THROW(
      measure_matching_congestion(g, g, not_matching, router, 1),
      std::invalid_argument);
  RoutingProblem non_edges;
  non_edges.pairs = {{0, 3}};
  EXPECT_THROW(measure_matching_congestion(g, g, non_edges, router, 1),
               std::invalid_argument);
}

TEST(MatchingCongestion, DetoursRaiseCongestionBoundedByDegree) {
  // Remove a matching from K_10; route the removed matching on the rest.
  const Graph g = complete_graph(10);
  std::vector<Edge> removed, kept;
  for (Edge e : g.edges()) {
    if (e.v == e.u + 5 && e.u < 5) {
      removed.push_back(e);
    } else {
      kept.push_back(e);
    }
  }
  const Graph h = Graph::from_edges(10, kept);
  DetourRouter router(h, h);
  const auto report = measure_matching_congestion(
      g, h, RoutingProblem::from_edges(removed), router, 7);
  EXPECT_EQ(report.base_congestion, 1u);
  EXPECT_GE(report.spanner_congestion, 1u);
  EXPECT_LE(report.spanner_congestion, 5u);
  EXPECT_LE(report.max_length_ratio, 3.0);
}

TEST(GeneralCongestion, RunsThroughDecomposition) {
  const Graph g = random_regular(50, 12, 9);
  const auto problem = random_pairs_problem(50, 40, 11);
  const Routing p = shortest_path_routing(g, problem, 13);
  DetourRouter router(g, g);  // identity spanner
  const auto report = measure_general_congestion(g, g, p, router, 15);
  EXPECT_GE(report.base_congestion, 1u);
  EXPECT_GE(report.spanner_congestion, report.base_congestion / 2);
  EXPECT_GE(report.decomposition.levels, 1u);
  EXPECT_GE(report.decomposition.total_matchings, 1u);
  EXPECT_GE(report.max_length_ratio, 1.0);
}

TEST(GeneralCongestion, RejectsInvalidInputRouting) {
  const Graph g = cycle_graph(6);
  Routing bogus;
  bogus.paths = {{0, 2, 4}};  // (0,2) not an edge
  DetourRouter router(g, g);
  EXPECT_THROW(measure_general_congestion(g, g, bogus, router, 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace dcs
