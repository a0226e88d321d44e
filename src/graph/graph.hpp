#pragma once

// Immutable CSR (compressed sparse row) undirected graph.
//
// All algorithms in this library work on simple undirected graphs. The CSR
// layout keeps each adjacency list contiguous and sorted, which makes
// neighborhood scans cache-friendly and `has_edge` a binary search — both
// matter because spanner verification scans every adjacency of every vertex.

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/edge_list.hpp"

namespace dcs {

enum class VertexOrder : std::uint8_t;
struct RenumberedGraph;

class Graph {
 public:
  /// Empty graph on n vertices.
  explicit Graph(std::size_t n = 0);

  /// Builds from an arbitrary edge list: self-loops are rejected, duplicate
  /// edges are collapsed. Every edge is validated; a list already in
  /// canonical order (u < v, strictly increasing) is not copied or sorted.
  static Graph from_edges(std::size_t n, std::span<const Edge> edges);

  /// Builds from an n × ⌈n/64⌉-word bit matrix whose row u has bit v
  /// (word v/64, bit v%64) iff (u,v) is an edge, so each row's set bits are
  /// u's sorted neighbour list. A diagonal bit and any bit ≥ n are
  /// rejected. The matrix must be symmetric; that is not checked.
  static Graph from_bit_rows(std::size_t n,
                             std::span<const std::uint64_t> rows);

  std::size_t num_vertices() const { return offsets_.size() - 1; }
  std::size_t num_edges() const { return adjacency_.size() / 2; }

  std::span<const Vertex> neighbors(Vertex v) const {
    return {adjacency_.data() + offsets_[v],
            adjacency_.data() + offsets_[v + 1]};
  }

  std::size_t degree(Vertex v) const {
    return offsets_[v + 1] - offsets_[v];
  }

  /// O(log degree) membership test on the sorted adjacency list.
  /// Branchless binary search with software prefetch of the candidate
  /// midpoints — it sits on the repair screening hot path where the
  /// adjacency lists of random vertices are cold.
  bool has_edge(Vertex u, Vertex v) const;

  /// Rebuild this graph under a cache-friendly vertex ordering (see
  /// graph/renumber.hpp). Returns the relabeled graph together with the
  /// permutation so callers can translate between ID spaces.
  RenumberedGraph renumber(VertexOrder order) const;

  /// Canonical (u < v) edge list in lexicographic order.
  std::vector<Edge> edges() const;

  /// {min, max} degree in a single scan; {0, 0} on the empty graph.
  std::pair<std::size_t, std::size_t> degree_bounds() const;
  std::size_t min_degree() const { return degree_bounds().first; }
  std::size_t max_degree() const { return degree_bounds().second; }
  bool is_regular() const {
    const auto [lo, hi] = degree_bounds();
    return lo == hi;
  }

  /// True if `other` has the same vertex set and a subset of the edges.
  bool contains_subgraph(const Graph& other) const;

  bool operator==(const Graph& other) const = default;

 private:
  // offsets_[v]..offsets_[v+1] delimit v's neighbors in adjacency_.
  std::vector<std::size_t> offsets_;
  std::vector<Vertex> adjacency_;
};

/// Incremental construction helper. Accepts duplicates (collapsed on build)
/// and rejects self-loops at insertion time.
class GraphBuilder {
 public:
  explicit GraphBuilder(std::size_t n) : n_(n) {}

  void add_edge(Vertex u, Vertex v);
  void add_edges(std::span<const Edge> edges);
  std::size_t num_vertices() const { return n_; }
  std::size_t pending_edges() const { return edges_.size(); }

  Graph build() const { return Graph::from_edges(n_, edges_); }

 private:
  std::size_t n_;
  std::vector<Edge> edges_;
};

}  // namespace dcs
