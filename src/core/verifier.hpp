#pragma once

// Empirical verification of the spanner definitions:
//
//  * Definition 1 (distance stretch) — exact: on unweighted graphs the
//    worst-case stretch is attained on an edge of G, so it suffices to
//    measure d_H(u,v) over all edges (u,v) ∈ E(G). An exhaustive all-pairs
//    variant is provided for small graphs.
//  * Definitions 2–4 (congestion stretch) — measured on concrete routing
//    problems: the base congestion is C(P) of a supplied routing on G
//    (optimal = 1 for matchings routed over their own edges), the spanner
//    congestion is C(P') of the substitute routing produced either per-pair
//    (matchings) or through Algorithm 2 (general routings).

#include "core/matching_decomposition.hpp"
#include "core/router.hpp"
#include "graph/bfs.hpp"
#include "graph/graph.hpp"
#include "routing/routing.hpp"

namespace dcs {

struct DistanceStretchReport {
  double max_stretch = 0.0;   ///< max over G-edges of d_H(u,v)
  double mean_stretch = 0.0;  ///< average over G-edges
  std::size_t checked_edges = 0;
  std::size_t unreachable = 0;  ///< edges whose endpoints exceed the cap

  bool satisfies(double alpha) const {
    return unreachable == 0 && max_stretch <= alpha + 1e-9;
  }
};

/// Measures the per-edge distance stretch of H w.r.t. G. Endpoints further
/// apart than `cap` in H count as unreachable. When H's radius-2 balls pay
/// for m_G queries (ShortDistanceOracle::balls_pay), they give d_H ≤ 3
/// exactly, and only sources with an edge they leave unresolved run a BFS,
/// bounded at depth `cap` (none at all when cap ≤ 3); otherwise every
/// source does. Every report field is the same either way.
DistanceStretchReport measure_distance_stretch(const Graph& g,
                                               const Graph& h, Dist cap = 16);

/// Exhaustive max over all connected pairs of d_H(u,v)/d_G(u,v); O(n·m).
double exact_pairwise_stretch(const Graph& g, const Graph& h);

struct CongestionReport {
  std::size_t base_congestion = 0;     ///< C(P) on G
  std::size_t spanner_congestion = 0;  ///< C(P') on H
  double max_length_ratio = 0.0;       ///< max_i l(p'_i)/l(p_i)
  DecompositionStats decomposition;    ///< filled by the general-case path

  double congestion_stretch() const {
    return base_congestion == 0
               ? 0.0
               : static_cast<double>(spanner_congestion) /
                     static_cast<double>(base_congestion);
  }
};

/// Matching case: the problem is routed on G over its own edges
/// (congestion 1 by definition) and on H per-pair through `router`.
/// Requires every pair of `matching` to be an edge of g.
CongestionReport measure_matching_congestion(const Graph& g, const Graph& h,
                                             const RoutingProblem& matching,
                                             const PairRouter& router,
                                             std::uint64_t seed);

/// General case (Theorem 1): `p_on_g` is an arbitrary routing on G; the
/// substitute routing on H is assembled via Algorithm 2 with `router`
/// handling each matching. Also validates P' against the implied problem.
CongestionReport measure_general_congestion(const Graph& g, const Graph& h,
                                            const Routing& p_on_g,
                                            const PairRouter& router,
                                            std::uint64_t seed);

}  // namespace dcs
