#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <span>
#include <stdexcept>
#include <vector>

#include "graph/bfs.hpp"
#include "graph/connectivity.hpp"
#include "graph/edge_list.hpp"
#include "graph/graph.hpp"
#include "traversal_corpus.hpp"

namespace dcs {
namespace {

TEST(EdgeList, CanonicalOrientsMinFirst) {
  EXPECT_EQ(canonical(3, 1), (Edge{1, 3}));
  EXPECT_EQ(canonical(1, 3), (Edge{1, 3}));
  EXPECT_EQ(canonical(Edge{5, 2}), (Edge{2, 5}));
}

TEST(EdgeList, EdgeKeyIsInjective) {
  EXPECT_NE(edge_key(Edge{1, 2}), edge_key(Edge{2, 3}));
  EXPECT_NE(edge_key(Edge{0, 1}), edge_key(Edge{1, 0x10000}));
}

TEST(EdgeList, EdgeSetOrientationInsensitive) {
  EdgeSet set;
  EXPECT_TRUE(set.insert(3, 1));
  EXPECT_FALSE(set.insert(1, 3));
  EXPECT_TRUE(set.contains(Edge{3, 1}));
  EXPECT_TRUE(set.contains(1, 3));
  EXPECT_EQ(set.size(), 1u);
  EXPECT_TRUE(set.erase(Edge{1, 3}));
  EXPECT_TRUE(set.empty());
}

TEST(EdgeList, CanonicalizeSortsAndDedups) {
  std::vector<Edge> edges{{3, 1}, {1, 3}, {0, 2}, {2, 0}, {4, 5}};
  canonicalize_edge_list(edges);
  ASSERT_EQ(edges.size(), 3u);
  EXPECT_EQ(edges[0], (Edge{0, 2}));
  EXPECT_EQ(edges[1], (Edge{1, 3}));
  EXPECT_EQ(edges[2], (Edge{4, 5}));
}

TEST(Graph, EmptyGraph) {
  const Graph g(5);
  EXPECT_EQ(g.num_vertices(), 5u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.degree(0), 0u);
  EXPECT_FALSE(g.has_edge(0, 1));
}

TEST(Graph, FromEdgesBasic) {
  const std::vector<Edge> edges{{0, 1}, {1, 2}, {2, 0}};
  const Graph g = Graph::from_edges(3, edges);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_TRUE(g.has_edge(2, 0));
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_TRUE(g.is_regular());
}

TEST(Graph, DuplicateEdgesCollapse) {
  const std::vector<Edge> edges{{0, 1}, {1, 0}, {0, 1}};
  const Graph g = Graph::from_edges(2, edges);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.degree(0), 1u);
}

TEST(Graph, RejectsSelfLoopsAndOutOfRange) {
  const std::vector<Edge> loop{{1, 1}};
  EXPECT_THROW(Graph::from_edges(3, loop), std::invalid_argument);
  const std::vector<Edge> oob{{0, 3}};
  EXPECT_THROW(Graph::from_edges(3, oob), std::invalid_argument);
}

TEST(Graph, FromEdgesSameCsrForAnyOrderAndOrientation) {
  // A canonical sorted list takes the path that skips sorting; shuffled,
  // duplicated and (v,u)-oriented copies take the sorting path. All four
  // must build the same CSR, and every edge is still validated.
  std::vector<Edge> sorted;
  for (Vertex u = 0; u < 40; ++u) {
    for (Vertex v = u + 1; v < 40; v += 1 + (u + v) % 5) {
      sorted.push_back({u, v});
    }
  }
  std::vector<Edge> shuffled = sorted;
  std::mt19937 rng(5);
  std::shuffle(shuffled.begin(), shuffled.end(), rng);
  // Sorted, but each edge twice in a row: not strictly increasing.
  std::vector<Edge> duplicated;
  for (Edge e : sorted) duplicated.insert(duplicated.end(), {e, e});
  std::vector<Edge> reversed;
  for (Edge e : sorted) reversed.push_back({e.v, e.u});

  const Graph g = Graph::from_edges(40, sorted);
  EXPECT_EQ(g.edges(), sorted);
  for (const auto* list : {&shuffled, &duplicated, &reversed}) {
    EXPECT_EQ(Graph::from_edges(40, *list), g);
  }

  std::vector<Edge> loop = sorted;
  loop[loop.size() / 2] = {7, 7};
  EXPECT_THROW(Graph::from_edges(40, loop), std::invalid_argument);
  std::vector<Edge> out_of_range = sorted;
  out_of_range.back() = {38, 40};
  EXPECT_THROW(Graph::from_edges(40, out_of_range), std::invalid_argument);
}

TEST(Graph, NeighborsAreSorted) {
  const std::vector<Edge> edges{{2, 0}, {2, 4}, {2, 1}, {2, 3}};
  const Graph g = Graph::from_edges(5, edges);
  const auto nb = g.neighbors(2);
  EXPECT_TRUE(std::is_sorted(nb.begin(), nb.end()));
  EXPECT_EQ(nb.size(), 4u);
}

TEST(Graph, EdgesRoundTrip) {
  std::vector<Edge> edges{{0, 1}, {1, 2}, {3, 4}, {0, 4}};
  canonicalize_edge_list(edges);
  const Graph g = Graph::from_edges(5, edges);
  EXPECT_EQ(g.edges(), edges);
}

TEST(Graph, MinMaxDegree) {
  const std::vector<Edge> edges{{0, 1}, {0, 2}, {0, 3}};
  const Graph g = Graph::from_edges(5, edges);  // vertex 4 isolated
  EXPECT_EQ(g.max_degree(), 3u);
  EXPECT_EQ(g.min_degree(), 0u);
  EXPECT_FALSE(g.is_regular());
}

TEST(Graph, ContainsSubgraph) {
  const std::vector<Edge> big{{0, 1}, {1, 2}, {2, 0}};
  const std::vector<Edge> small{{0, 1}, {1, 2}};
  const std::vector<Edge> other{{0, 1}, {1, 3}};
  const Graph g = Graph::from_edges(4, big);
  EXPECT_TRUE(g.contains_subgraph(Graph::from_edges(4, small)));
  EXPECT_FALSE(g.contains_subgraph(Graph::from_edges(4, other)));
  EXPECT_FALSE(g.contains_subgraph(Graph::from_edges(5, small)));
}

/// The n × ⌈n/64⌉-word bit matrix of g, row u holding N(u).
std::vector<std::uint64_t> bit_rows(const Graph& g) {
  const std::size_t words = (g.num_vertices() + 63) / 64;
  std::vector<std::uint64_t> rows(g.num_vertices() * words, 0);
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    for (Vertex v : g.neighbors(u)) {
      rows[u * words + v / 64] |= 1ull << (v % 64);
    }
  }
  return rows;
}

TEST(Graph, FromBitRowsEqualsFromEdges) {
  // The corpus has n that are not multiples of 64 and isolated vertices.
  auto graphs = testing::corpus();
  graphs.push_back(Graph(0));
  for (const Graph& g : graphs) {
    EXPECT_EQ(Graph::from_bit_rows(g.num_vertices(), bit_rows(g)),
              Graph::from_edges(g.num_vertices(), g.edges()))
        << "n=" << g.num_vertices() << " m=" << g.num_edges();
  }
}

TEST(Graph, FromBitRowsRejectsDiagonalAndOutOfRangeBits) {
  const Graph g = random_regular(130, 16, 5);
  const std::size_t n = g.num_vertices();
  const std::size_t words = (n + 63) / 64;
  ASSERT_NE(n % 64, 0u);

  std::vector<std::uint64_t> loop = bit_rows(g);
  loop[7 * words + 0] |= 1ull << 7;  // bit (7,7)
  EXPECT_THROW(Graph::from_bit_rows(n, loop), std::invalid_argument);

  std::vector<std::uint64_t> beyond = bit_rows(g);
  beyond[(n - 1) * words + words - 1] |= 1ull << (n % 64);  // bit (n-1, n)
  EXPECT_THROW(Graph::from_bit_rows(n, beyond), std::invalid_argument);

  const std::vector<std::uint64_t> rows = bit_rows(g);
  EXPECT_THROW(
      Graph::from_bit_rows(n, std::span(rows).first(rows.size() - 1)),
      std::invalid_argument);  // one word short of n × ⌈n/64⌉
}

/// The reference contains_subgraph: one has_edge per edge of h.
bool contains_by_edge(const Graph& g, const Graph& h) {
  if (g.num_vertices() != h.num_vertices()) return false;
  for (Edge e : h.edges()) {
    if (!g.has_edge(e.u, e.v)) return false;
  }
  return true;
}

TEST(Graph, ContainsSubgraphAgreesWithPerEdgeReference) {
  const auto graphs = testing::corpus();
  std::size_t subgraphs = 0;
  std::size_t others = 0;
  const auto check = [&](const Graph& g, const Graph& h) {
    const bool expected = contains_by_edge(g, h);
    EXPECT_EQ(g.contains_subgraph(h), expected)
        << "n=" << g.num_vertices() << " m=" << g.num_edges()
        << " h.m=" << h.num_edges();
    ++(expected ? subgraphs : others);
  };
  for (const Graph& g : graphs) {
    const std::size_t n = g.num_vertices();
    auto edges = g.edges();
    // Every third edge dropped: a subgraph, and g is not one of it.
    std::vector<Edge> kept;
    for (std::size_t i = 0; i < edges.size(); ++i) {
      if (i % 3 != 0) kept.push_back(edges[i]);
    }
    const Graph h = Graph::from_edges(n, kept);
    check(g, h);
    check(h, g);
    check(g, g);
    check(g, Graph(n));
    // g is not a subgraph of g minus its canonically last edge, whose
    // rows are the last rows the merge reaches.
    if (!edges.empty()) {
      edges.pop_back();
      const Graph missing_last = Graph::from_edges(n, edges);
      check(missing_last, g);
      EXPECT_FALSE(missing_last.contains_subgraph(g));
    }
    // Mismatched vertex counts never contain one another.
    check(g, Graph(n + 1));
    check(Graph(n + 1), g);
  }
  // Every ordered pair of distinct corpus graphs on the same vertex count.
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    for (std::size_t j = 0; j < graphs.size(); ++j) {
      if (i != j && graphs[i].num_vertices() == graphs[j].num_vertices()) {
        check(graphs[i], graphs[j]);
      }
    }
  }
  EXPECT_TRUE(Graph(0).contains_subgraph(Graph(0)));
  EXPECT_GT(subgraphs, 0u);
  EXPECT_GT(others, 0u);
}

TEST(GraphBuilder, BuildsAndValidates) {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(1, 0);  // duplicate, collapses
  b.add_edge(2, 3);
  EXPECT_EQ(b.pending_edges(), 3u);
  const Graph g = b.build();
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_THROW(b.add_edge(0, 0), std::invalid_argument);
  EXPECT_THROW(b.add_edge(0, 4), std::invalid_argument);
}

TEST(Connectivity, SingleComponent) {
  const std::vector<Edge> edges{{0, 1}, {1, 2}, {2, 3}};
  const Graph g = Graph::from_edges(4, edges);
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(num_components(g), 1u);
}

TEST(Connectivity, MultipleComponents) {
  const std::vector<Edge> edges{{0, 1}, {2, 3}};
  const Graph g = Graph::from_edges(5, edges);  // {0,1}, {2,3}, {4}
  EXPECT_FALSE(is_connected(g));
  EXPECT_EQ(num_components(g), 3u);
  const auto comp = connected_components(g);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[2], comp[3]);
  EXPECT_NE(comp[0], comp[2]);
  EXPECT_NE(comp[4], comp[0]);
}

TEST(Connectivity, DiameterOfPath) {
  std::vector<Edge> edges;
  for (Vertex i = 0; i + 1 < 10; ++i) edges.push_back({i, i + 1});
  const Graph g = Graph::from_edges(10, edges);
  EXPECT_EQ(diameter_lower_bound(g), 9u);
}

TEST(Connectivity, DiameterDisconnected) {
  const Graph g = Graph::from_edges(3, std::vector<Edge>{{0, 1}});
  EXPECT_EQ(diameter_lower_bound(g), static_cast<std::size_t>(kUnreachable));
}

}  // namespace
}  // namespace dcs
