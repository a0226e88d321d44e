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
// radius-2 balls behind every d ≤ 3 test. That test, distance_within_3, is
// the one d ≤ 3 rule from build to serve: core/support's
// ShortDistanceOracle asks it over a whole two_ball bitmap, the serving
// engine over one ball_row per distinct query source.
//
// Obs: bitmap.builds counts constructions from a graph. Queries count
// nothing: they run millions of times per build from every pool worker.

#include <cstdint>
#include <span>
#include <vector>

#include "graph/bfs.hpp"
#include "graph/graph.hpp"
#include "util/simd.hpp"

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
  /// is ball_row(g, u). Filled in parallel over rows.
  AdjacencyBitmap two_ball(const Graph& g) const;

  /// B₂(u) = {u} ∪ N(u) ∪ N(N(u)) of `g`, whose adjacency this bitmap
  /// must be, written into `out` (words_per_row() words): row u and u's
  /// own bit, ORed with the rows of u's neighbours.
  void ball_row(const Graph& g, Vertex u, std::span<std::uint64_t> out) const;

  /// The d ≤ 3 rule, for u ≠ v and `ball` = B₂(u) (ball_row, or row u of
  /// two_ball): 1 on an adjacency bit, 2 on a ball bit, 3 when B₂(u) meets
  /// N(v), otherwise kUnreachable, which here means only "not within 3".
  /// Inline: certification and serving call it once per query.
  Dist distance_within_3(Vertex u, std::span<const std::uint64_t> ball,
                         Vertex v) const {
    if (test(u, v)) return 1;
    if ((ball[v >> 6] >> (v & 63)) & 1) return 2;
    return simd::rows_meet(ball.data(), row(v).data(), words_) ? 3
                                                               : kUnreachable;
  }

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
