#pragma once

// The shared ~58-graph traversal test corpus: varied families, sizes,
// densities, and seeds, plus structured corner cases (stars, disconnected
// graphs, paths, cycles, hypercubes, cliques, the edgeless graph). Used
// by test_traversal (engine-vs-scalar equivalence) and test_simd
// (kernel-tier equivalence). Header-only so each test binary gets its own
// copy.

#include <vector>

#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace dcs::testing {

inline Graph star_graph(std::size_t n) {
  std::vector<Edge> edges;
  for (Vertex v = 1; v < n; ++v) edges.push_back({0, v});
  return Graph::from_edges(n, edges);
}

/// Two disjoint components: a cycle on [0, n/2) and a clique on the rest,
/// plus `isolated` trailing isolated vertices.
inline Graph disconnected_graph(std::size_t n, std::size_t isolated) {
  const std::size_t live = n - isolated;
  const std::size_t half = live / 2;
  std::vector<Edge> edges;
  for (Vertex v = 0; v + 1 < half; ++v) edges.push_back({v, v + 1});
  if (half > 2) edges.push_back({0, static_cast<Vertex>(half - 1)});
  for (Vertex u = half; u < live; ++u) {
    for (Vertex v = u + 1; v < live; ++v) edges.push_back({u, v});
  }
  return Graph::from_edges(n, edges);
}

/// The ~50-graph corpus: varied families, sizes, densities, and seeds.
inline std::vector<Graph> corpus() {
  std::vector<Graph> graphs;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    graphs.push_back(random_regular(64, 8, seed));
    graphs.push_back(random_regular(130, 16, seed + 100));
    graphs.push_back(erdos_renyi(90, 0.05, seed + 200));   // sparse
    graphs.push_back(erdos_renyi(90, 0.4, seed + 300));    // dense
    graphs.push_back(erdos_renyi(150, 0.02, seed + 400));  // disconnected-ish
  }
  graphs.push_back(margulis_expander(9));  // 81-vertex expander
  graphs.push_back(margulis_expander(13));
  graphs.push_back(ring_of_cliques(6, 8));
  graphs.push_back(star_graph(70));
  graphs.push_back(star_graph(2));
  graphs.push_back(disconnected_graph(80, 5));
  graphs.push_back(disconnected_graph(33, 1));
  graphs.push_back(path_graph(97));
  graphs.push_back(cycle_graph(64));
  graphs.push_back(hypercube(6));
  graphs.push_back(complete_graph(65));
  graphs.push_back(Graph(12));                             // edgeless
  graphs.push_back(Graph::from_edges(5, std::vector<Edge>{{0, 1}}));
  return graphs;
}

inline std::vector<Vertex> sample_sources(const Graph& g, Rng& rng,
                                          std::size_t want) {
  const std::size_t n = g.num_vertices();
  std::vector<Vertex> sources;
  if (n <= want) {
    for (Vertex v = 0; v < n; ++v) sources.push_back(v);
  } else {
    for (std::size_t i = 0; i < want; ++i) {
      sources.push_back(static_cast<Vertex>(rng.uniform(n)));
    }
  }
  return sources;
}

}  // namespace dcs::testing
