#include "graph/graph.hpp"

#include <algorithm>
#include <bit>

#include "util/check.hpp"

namespace dcs {

Graph::Graph(std::size_t n) : offsets_(n + 1, 0) {}

Graph Graph::from_edges(std::size_t n, std::span<const Edge> edges) {
  // Generators, checkpoint decoding and Algorithm 1 already emit canonical
  // lists (u < v, strictly increasing); only other inputs are sorted.
  bool canonical_order = true;
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const Edge e = edges[i];
    DCS_REQUIRE(e.u != e.v, "self-loops are not allowed");
    DCS_REQUIRE(e.u < n && e.v < n, "edge endpoint out of range");
    canonical_order = canonical_order && e.u < e.v &&
                      (i == 0 || edges[i - 1] < e);
  }
  std::vector<Edge> sorted;
  if (!canonical_order) {
    sorted.assign(edges.begin(), edges.end());
    canonicalize_edge_list(sorted);
  }
  const std::span<const Edge> canon =
      canonical_order ? edges : std::span<const Edge>(sorted);

  Graph g(n);
  std::vector<std::size_t> degree(n, 0);
  for (const auto& e : canon) {
    ++degree[e.u];
    ++degree[e.v];
  }
  for (std::size_t v = 0; v < n; ++v) {
    g.offsets_[v + 1] = g.offsets_[v] + degree[v];
  }
  g.adjacency_.resize(2 * canon.size());
  std::vector<std::size_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  // The (u,v)-sorted canonical list fills each adjacency list in
  // increasing order: x's neighbors below x arrive with the edges (u,x),
  // sorted by u, before any edge (x,v), which are sorted by v.
  for (const auto& e : canon) {
    g.adjacency_[cursor[e.u]++] = e.v;
    g.adjacency_[cursor[e.v]++] = e.u;
  }
  return g;
}

Graph Graph::from_bit_rows(std::size_t n,
                           std::span<const std::uint64_t> rows) {
  const std::size_t words = (n + 63) / 64;
  DCS_REQUIRE(rows.size() == n * words, "bit matrix must be n × ⌈n/64⌉");
  // Bits of the last word that name vertices below n.
  const std::uint64_t in_range =
      n % 64 == 0 ? ~0ull : (1ull << (n % 64)) - 1;
  Graph g(n);
  for (std::size_t u = 0; u < n; ++u) {
    const std::uint64_t* row = rows.data() + u * words;
    DCS_REQUIRE(((row[u >> 6] >> (u & 63)) & 1) == 0,
                "self-loops are not allowed");
    DCS_REQUIRE((row[words - 1] & ~in_range) == 0,
                "edge endpoint out of range");
    std::size_t degree = 0;
    for (std::size_t w = 0; w < words; ++w) {
      degree += static_cast<std::size_t>(std::popcount(row[w]));
    }
    g.offsets_[u + 1] = g.offsets_[u] + degree;
  }
  g.adjacency_.resize(g.offsets_[n]);
  Vertex* out = g.adjacency_.data();
  for (std::size_t u = 0; u < n; ++u) {
    const std::uint64_t* row = rows.data() + u * words;
    for (std::size_t w = 0; w < words; ++w) {
      for (std::uint64_t bits = row[w]; bits != 0; bits &= bits - 1) {
        *out++ = static_cast<Vertex>(w * 64 + std::countr_zero(bits));
      }
    }
  }
  return g;
}

bool Graph::has_edge(Vertex u, Vertex v) const {
  DCS_REQUIRE(u < num_vertices() && v < num_vertices(),
              "vertex out of range");
  if (u == v) return false;
  auto nb = neighbors(u);
  if (degree(v) < nb.size()) {
    nb = neighbors(v);
    std::swap(u, v);
  }
  // Branchless binary search: the conditional advance compiles to a cmov,
  // so the only data-dependent branch left is the loop itself, and both
  // possible next midpoints are prefetched while the current probe's load
  // is still in flight.
  const Vertex* base = nb.data();
  std::size_t len = nb.size();
  if (len == 0) return false;
  while (len > 1) {
    const std::size_t half = len / 2;
    __builtin_prefetch(base + half / 2);
    __builtin_prefetch(base + half + (len - half) / 2);
    base += (base[half - 1] < v) ? half : 0;
    len -= half;
  }
  return *base == v;
}

std::vector<Edge> Graph::edges() const {
  std::vector<Edge> out;
  out.reserve(num_edges());
  for (Vertex u = 0; u < num_vertices(); ++u) {
    for (Vertex v : neighbors(u)) {
      if (u < v) out.push_back(Edge{u, v});
    }
  }
  return out;
}

std::pair<std::size_t, std::size_t> Graph::degree_bounds() const {
  if (num_vertices() == 0) return {0, 0};
  std::size_t lo = degree(0);
  std::size_t hi = lo;
  for (Vertex v = 1; v < num_vertices(); ++v) {
    const std::size_t d = degree(v);
    lo = std::min(lo, d);
    hi = std::max(hi, d);
  }
  return {lo, hi};
}

bool Graph::contains_subgraph(const Graph& other) const {
  if (other.num_vertices() != num_vertices()) return false;
  // One sequential merge per row instead of a cold binary search per edge.
  for (Vertex u = 0; u < num_vertices(); ++u) {
    const auto mine = neighbors(u);
    const auto theirs = other.neighbors(u);
    if (theirs.size() > mine.size() ||
        !std::includes(mine.begin(), mine.end(), theirs.begin(),
                       theirs.end())) {
      return false;
    }
  }
  return true;
}

void GraphBuilder::add_edge(Vertex u, Vertex v) {
  DCS_REQUIRE(u != v, "self-loops are not allowed");
  DCS_REQUIRE(u < n_ && v < n_, "edge endpoint out of range");
  edges_.push_back(canonical(u, v));
}

void GraphBuilder::add_edges(std::span<const Edge> edges) {
  for (Edge e : edges) add_edge(e.u, e.v);
}

}  // namespace dcs
