#pragma once

// Dense adjacency bitmaps for word-parallel neighborhood intersection.
//
// The support machinery of Section 4 (base_support, the Ê test of
// Algorithm 1, common-neighbor enumeration) is a counted merge over two
// sorted adjacency lists: O(deg u + deg z) per query. In the paper's dense
// regime Δ ≥ n^{2/3} the same query is a popcount loop over n/64 words —
// asymptotically and practically cheaper exactly when the rows it scans
// are well filled. The bitmap costs n²/8 bytes, so it is built once per
// graph and only when the density justifies it (see worthwhile()); every
// consumer keeps the sorted-merge path as the scalar fallback. Two derived
// bitmaps reuse the rows: the supported bases S of the Ê test, and the
// radius-2 balls behind every d ≤ 3 test (core/support's
// ShortDistanceOracle).
//
// Obs: bitmap.builds counts constructions from a graph. Queries count
// nothing: they run millions of times per build from every pool worker.

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace dcs {

class AdjacencyBitmap {
 public:
  /// Memory ceiling for build_if_worthwhile (n²/8 bytes must fit).
  static constexpr std::size_t kMaxBytes = std::size_t{1} << 28;  // 256 MiB

  AdjacencyBitmap() = default;

  /// Unconditionally builds the n × n bitmap of `g`.
  explicit AdjacencyBitmap(const Graph& g);

  /// True when the word-parallel path beats the sorted merge: the average
  /// degree must exceed the per-query word count (2m/n ≥ n/128, i.e. the
  /// Δ ≥ n^{2/3} regime for n ≤ ~10⁵) and the bitmap must fit kMaxBytes.
  static bool worthwhile(std::size_t n, std::size_t m);

  /// Builds the bitmap iff worthwhile(); otherwise returns an empty map
  /// (callers then stay on the scalar merge path).
  static AdjacencyBitmap build_if_worthwhile(const Graph& g);

  bool empty() const { return n_ == 0; }
  std::size_t num_vertices() const { return n_; }
  std::size_t words_per_row() const { return words_; }

  std::span<const std::uint64_t> row(Vertex v) const {
    return {bits_.data() + v * words_, words_};
  }

  bool test(Vertex u, Vertex v) const {
    return (bits_[u * words_ + (v >> 6)] >> (v & 63)) & 1;
  }

  /// |N(u) ∩ N(v)| via a word-parallel popcount loop.
  std::size_t common_count(Vertex u, Vertex v) const;

  /// The bases with at least k routers (Section 4): row u has bit z iff
  /// z ≠ u and |N(u) ∩ N(z)| ≥ k. Each unordered base is tested once (S
  /// is symmetric), one simd::and_popcount_at_least_run per row, filled in
  /// parallel over rows.
  AdjacencyBitmap supported_bases(std::size_t k) const;

  /// The radius-2 balls of `g`, whose adjacency this bitmap must be: row u
  /// is {u} ∪ N(u) ∪ N(N(u)). For u ≠ v, d(u,v) ≤ 2 iff bit v of row u,
  /// and d(u,v) ≤ 3 iff row u meets N(v). Filled in parallel over rows,
  /// each the OR of its neighbours' adjacency rows.
  AdjacencyBitmap two_ball(const Graph& g) const;

  /// Materializes N(u) ∩ N(v) in increasing order into `out` (cleared
  /// first); returns the count.
  std::size_t common_into(Vertex u, Vertex v,
                          std::vector<Vertex>& out) const;

 private:
  std::size_t n_ = 0;
  std::size_t words_ = 0;
  std::vector<std::uint64_t> bits_;  // n_ rows of words_ words
};

}  // namespace dcs
