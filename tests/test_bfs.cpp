#include <gtest/gtest.h>

#include <set>

#include "graph/bfs.hpp"
#include "graph/generators.hpp"

namespace dcs {
namespace {

TEST(Bfs, DistancesOnPath) {
  const Graph g = path_graph(6);
  const auto d = bfs_distances(g, 0);
  for (Vertex v = 0; v < 6; ++v) EXPECT_EQ(d[v], v);
}

TEST(Bfs, DistancesOnCycle) {
  const Graph g = cycle_graph(8);
  const auto d = bfs_distances(g, 0);
  EXPECT_EQ(d[4], 4u);
  EXPECT_EQ(d[7], 1u);
  EXPECT_EQ(d[5], 3u);
}

TEST(Bfs, UnreachableVertices) {
  const Graph g = Graph::from_edges(4, std::vector<Edge>{{0, 1}});
  const auto d = bfs_distances(g, 0);
  EXPECT_EQ(d[1], 1u);
  EXPECT_EQ(d[2], kUnreachable);
  EXPECT_EQ(d[3], kUnreachable);
}

TEST(Bfs, BoundedStopsAtHorizon) {
  const Graph g = path_graph(10);
  const auto d = bfs_distances_bounded(g, 0, 3);
  EXPECT_EQ(d[3], 3u);
  EXPECT_EQ(d[4], kUnreachable);
}

TEST(Bfs, PairDistanceEarlyExit) {
  const Graph g = path_graph(100);
  EXPECT_EQ(bfs_distance(g, 0, 99), 99u);
  EXPECT_EQ(bfs_distance(g, 5, 5), 0u);
  const Graph h = Graph::from_edges(3, std::vector<Edge>{{0, 1}});
  EXPECT_EQ(bfs_distance(h, 0, 2), kUnreachable);
}

TEST(Bfs, ShortestPathEndpointsAndLength) {
  const Graph g = cycle_graph(10);
  const auto p = bfs_shortest_path(g, 0, 4);
  ASSERT_FALSE(p.empty());
  EXPECT_EQ(p.front(), 0u);
  EXPECT_EQ(p.back(), 4u);
  EXPECT_EQ(p.size(), 5u);  // distance 4 → 5 vertices
  for (std::size_t i = 0; i + 1 < p.size(); ++i) {
    EXPECT_TRUE(g.has_edge(p[i], p[i + 1]));
  }
}

TEST(Bfs, ShortestPathTrivialAndMissing) {
  const Graph g = path_graph(3);
  EXPECT_EQ(bfs_shortest_path(g, 1, 1), (std::vector<Vertex>{1}));
  const Graph h = Graph::from_edges(3, std::vector<Edge>{{0, 1}});
  EXPECT_TRUE(bfs_shortest_path(h, 0, 2).empty());
}

TEST(Bfs, RandomTieBreakingSamplesDifferentPaths) {
  // On a 4-cycle plus chords there are many shortest paths 0→2.
  const Graph g = complete_graph(20);
  // distance 0→1 is 1; use a graph with real ties instead:
  const Graph cyc = hypercube(4);  // many shortest paths between antipodes
  std::set<std::vector<Vertex>> seen;
  for (std::uint64_t s = 0; s < 20; ++s) {
    Rng rng(s);
    seen.insert(bfs_shortest_path(cyc, 0, 15, &rng));
  }
  EXPECT_GT(seen.size(), 3u);  // 4! = 24 shortest paths exist
  for (const auto& p : seen) {
    EXPECT_EQ(p.size(), 5u);  // all still shortest
  }
}

TEST(Bfs, Eccentricity) {
  const Graph g = path_graph(7);
  EXPECT_EQ(eccentricity(g, 0), 6u);
  EXPECT_EQ(eccentricity(g, 3), 3u);
  const Graph h = Graph::from_edges(3, std::vector<Edge>{{0, 1}});
  EXPECT_EQ(eccentricity(h, 0), kUnreachable);
}

TEST(Bfs, OutOfRangeThrows) {
  const Graph g = path_graph(3);
  EXPECT_THROW(bfs_distances(g, 5), std::invalid_argument);
  EXPECT_THROW(bfs_distance(g, 0, 5), std::invalid_argument);
}

}  // namespace
}  // namespace dcs
