#pragma once

// The detour/support machinery of Section 4 (Figures 3 and 4):
//
//  * a 2-detour with base {u,z} and router x is the edge pair (u,x),(x,z);
//  * a base {u,z} is a-supported if it has ≥ a distinct routers, i.e.
//    |N(u) ∩ N(z)| ≥ a;
//  * an extension (v,z) of edge (u,v) toward v is a-supported if the base
//    {u,z} is (a+1)-supported (one of its 2-detours goes through v);
//  * edge e=(u,v) is (a,b)-supported toward v if ≥ b of its extensions
//    toward v are a-supported;
//  * a 3-detour of e=(u,v) toward v is a path u–x–z–v where (v,z) is an
//    extension and x ≠ v is a router of base {u,z}.

#include <vector>

#include "graph/adjacency_bitmap.hpp"
#include "graph/bfs.hpp"
#include "graph/graph.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace dcs {

/// Number of routers of base {u,z}: |N(u) ∩ N(z)|.
std::size_t base_support(const Graph& g, Vertex u, Vertex z);

/// Number of a-supported extensions of (u,v) toward v, i.e. the number of
/// z ∈ N(v)\{u} with |N(u) ∩ N(z)| ≥ a + 1 (counting the router v itself).
std::size_t count_supported_extensions(const Graph& g, Vertex u, Vertex v,
                                       std::size_t a);

/// (a,b)-supported toward v: at least b a-supported extensions toward v.
bool is_ab_supported_toward(const Graph& g, Vertex u, Vertex v,
                            std::size_t a, std::size_t b);

/// (a,b)-supported in at least one direction (the Ê test of Algorithm 1).
bool is_ab_supported(const Graph& g, Edge e, std::size_t a, std::size_t b);

/// A 3-detour u–x–z–v (stored as its two interior nodes {x, z}).
struct Detour3 {
  Vertex x = kInvalidVertex;  ///< neighbor of u
  Vertex z = kInvalidVertex;  ///< neighbor of v
};

/// All 3-detours of (u,v) present in `h` (both directions), up to `limit`
/// (0 = unlimited). Interior nodes exclude u and v themselves.
std::vector<Detour3> find_3detours(const Graph& h, Vertex u, Vertex v,
                                   std::size_t limit = 0);

/// True iff (u,v) has at least one path of length ≤ 3 in `h` between its
/// endpoints (direct edge, common neighbor, or 3-detour).
bool has_short_replacement(const Graph& h, Vertex u, Vertex v);

/// Common neighbors of u and v in h (the 2-detour routers).
std::vector<Vertex> common_neighbors(const Graph& h, Vertex u, Vertex v);

/// Picks one replacement path for (u,v) in h uniformly at random among the
/// available 3-detours; falls back to a random common neighbor (2-detour)
/// and finally to the direct edge if present. Returns the full path
/// including endpoints, or an empty path if no replacement of length ≤ 3
/// exists.
std::vector<Vertex> random_short_replacement(const Graph& h, Vertex u,
                                             Vertex v, Rng& rng,
                                             bool prefer_3detour = true);

/// Accelerated support queries over one graph. Construction builds the
/// dense adjacency bitmap when the density justifies it
/// (AdjacencyBitmap::worthwhile: average degree ≥ n/128, so Δ ≥ 16 at
/// n = 2048, well below the paper's Δ ≥ n^{2/3} ≈ 161); every query then
/// runs as a word-parallel popcount loop, falling back to the scalar
/// sorted-merge reference functions above on sparse graphs. The answers
/// are identical either way (pinned by tests/test_traversal.cpp). The
/// d ≤ 3 test (::has_short_replacement) is ShortDistanceOracle's, below.
///
/// The oracle borrows `g`; it must outlive the oracle. Queries are const
/// and safe to issue concurrently from many threads.
class SupportOracle {
 public:
  explicit SupportOracle(const Graph& g)
      : g_(g), bitmap_(AdjacencyBitmap::build_if_worthwhile(g)) {}

  const Graph& graph() const { return g_; }
  bool bitmapped() const { return !bitmap_.empty(); }

  /// The dense adjacency bitmap; empty unless bitmapped().
  const AdjacencyBitmap& bitmap() const { return bitmap_; }

  /// |N(u) ∩ N(z)|, cf. ::base_support.
  std::size_t base_support(Vertex u, Vertex z) const;

  /// cf. ::count_supported_extensions.
  std::size_t count_supported_extensions(Vertex u, Vertex v,
                                         std::size_t a) const;

  /// cf. ::is_ab_supported_toward (early-exit at b).
  bool is_ab_supported_toward(Vertex u, Vertex v, std::size_t a,
                              std::size_t b) const;

  /// cf. ::is_ab_supported (the Ê test of Algorithm 1).
  bool is_ab_supported(Edge e, std::size_t a, std::size_t b) const;

  /// cf. ::common_neighbors.
  std::vector<Vertex> common_neighbors(Vertex u, Vertex v) const;

 private:
  const Graph& g_;
  AdjacencyBitmap bitmap_;
};

/// "Is d_g(u,v) ≤ 3?" (::has_short_replacement) for a known number of
/// queries on one graph. Both questions Algorithm 1 and its certification
/// ask are ball intersections: with B₂(u) = {u} ∪ N(u) ∪ N(N(u)), for
/// u ≠ v, d(u,v) ≤ 2 iff v ∈ B₂(u) and d(u,v) ≤ 3 iff B₂(u) ∩ N(v) ≠ ∅.
/// When balls_pay() holds, construction fills g's adjacency bitmap and its
/// two-ball bitmap (AdjacencyBitmap::two_ball) and every query is one bit
/// test or one rows-meet test (AdjacencyBitmap::distance_within_3, the
/// rule the serving engine answers with too); otherwise queries run the
/// scalar merges above. The answers are identical either way (pinned by
/// tests/test_traversal.cpp).
///
/// The oracle borrows `g`; it must outlive the oracle. Queries are const
/// and safe to issue concurrently from many threads.
class ShortDistanceOracle {
 public:
  ShortDistanceOracle(const Graph& g, std::size_t queries);

  /// The one rule that picks the path: true when both n × n bitmaps fit
  /// AdjacencyBitmap::kMaxBytes and filling the balls, (n + 2m)·⌈n/64⌉
  /// word ORs, costs no more than `queries` scalar merges on a graph of
  /// average degree d̄ = 2m/n, taken as 8·d̄ word ORs each.
  static bool balls_pay(std::size_t n, std::size_t m, std::size_t queries);

  bool balled() const { return !ball_.empty(); }

  /// d_g(u,v) for u ≠ v when it is at most 3, otherwise kUnreachable.
  Dist distance(Vertex u, Vertex v) const;

  /// d_g(u,v) ≤ 3, cf. ::has_short_replacement.
  bool has_short_replacement(Vertex u, Vertex v) const {
    if (!balled()) return distance(u, v) != kUnreachable;
    // u ∈ B₂(u), so B₂(u) meets N(v) whenever d(u,v) ≤ 3; v's own ball
    // bit settles d ≤ 2 without reading N(v).
    return ball_.test(u, v) ||
           simd::rows_meet(ball_.row(u).data(), adjacency_.row(v).data(),
                           adjacency_.words_per_row());
  }

 private:
  const Graph& g_;
  AdjacencyBitmap adjacency_;
  AdjacencyBitmap ball_;
};

}  // namespace dcs
