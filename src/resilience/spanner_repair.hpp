#pragma once

// Incremental self-healing of DC-spanners after faults.
//
// Rebuilding a spanner from scratch after every fault wave is wasteful:
// faults are local, and the paper's constructions make *per-edge* decisions
// (sample, support test, reinsert) that only depend on a constant-radius
// neighborhood. The repair engine re-runs exactly that machinery around the
// damage:
//
//  * endangered edges (repair_candidates) — a replacement path has length
//    ≤ 3, so a faulted element can sit on it only near the covered edge:
//    a crashed or recovered vertex w endangers the surviving G-edges with
//    an endpoint in N_G(w), and a crashed or recovered edge (x,z) only
//    those with one endpoint in N_G[x] and the other in N_G[z]. Only
//    those edges need re-examination.
//
//  * detour patch (Theorem 3 / Algorithm 1): re-sample endangered edges
//    with the construction's deterministic per-edge coin (restoring router
//    capacity), then re-apply the Ê test — reinsert every endangered edge
//    that is no longer (a,b)-supported in G∖F or has no surviving
//    replacement of length ≤ 3 in the patched spanner.
//
//  * matching patch (Theorem 2): for every endangered edge without a
//    surviving short replacement, rebuild the neighborhood matching
//    M_{u,v} between N(u) and N(v) on the survivors and splice one matched
//    3-hop path into the spanner; reinsert the edge itself if the
//    matching is empty.
//
// Both strategies guarantee the repaired spanner is a 3-distance spanner
// of G∖F deterministically (every examined edge ends covered; unexamined
// edges kept their pre-fault replacement by the same locality argument).
// When the damage exceeds `rebuild_threshold`, locality stops paying and
// the engine falls back to a full rebuild on the surviving graph.

#include <span>

#include "core/regular_spanner.hpp"
#include "graph/graph.hpp"
#include "resilience/fault_state.hpp"

namespace dcs {

enum class RepairStrategy : std::uint8_t {
  kDetourPatch,    ///< Theorem 3: resample + support-based reinsertion
  kMatchingPatch,  ///< Theorem 2: rebuild neighborhood matchings
};

enum class RepairOutcome : std::uint8_t {
  kNoop,     ///< nothing to repair (no candidates, nothing added)
  kPatched,  ///< incremental local repair
  kRebuilt,  ///< budget exceeded — full rebuild on the survivors
};

const char* to_string(RepairOutcome outcome);

struct SpannerRepairOptions {
  std::uint64_t seed = 0;
  RepairStrategy strategy = RepairStrategy::kDetourPatch;

  /// Fraction of surviving G-edges that may be *broken* (uncovered after a
  /// cheap screen on H∖F) before the engine falls back to a full rebuild.
  double rebuild_threshold = 0.5;

  /// Construction parameters mirrored from the original build (support
  /// thresholds, sampling factors); also used by the fallback rebuild.
  RegularSpannerOptions build;
};

struct RepairResult {
  Graph h;  ///< repaired spanner (a subgraph of the surviving graph)
  RepairOutcome outcome = RepairOutcome::kNoop;
  std::size_t frontier_vertices = 0;  ///< endpoints of the candidate edges
  std::size_t candidate_edges = 0;   ///< surviving edges re-examined
  std::size_t resampled_edges = 0;   ///< capacity edges added (coin / matching)
  std::size_t reinserted_edges = 0;  ///< edges reinserted for the 3-stretch
  double seconds = 0.0;              ///< wall-clock cost of this repair
};

/// The endangered-edge set: surviving G-edges whose length-≤3
/// replacement could have traversed a faulted element. A crashed/recovered
/// vertex w endangers edges with an endpoint in N_G(w); a crashed/recovered
/// edge (x,z) endangers only pairs with one endpoint in N_G[x] and the
/// other in N_G[z] — a ≤3-hop path can use (x,z) in no other position.
/// Computed against the fault-free G so recovered elements are found even
/// while they are down. Far tighter than every edge touching a faulted
/// element's neighbourhood under edge faults, which keeps the patch local
/// even at ~10% edge-fault rates.
std::vector<Edge> repair_candidates(const Graph& g, const Graph& g_surviving,
                                    std::span<const FaultEvent> events);

/// Incrementally repairs `h_surviving` into a 3-distance spanner of
/// `g_surviving`, re-examining only `candidates` (see repair_candidates).
RepairResult repair_spanner(const Graph& g_surviving,
                            const Graph& h_surviving,
                            std::span<const Edge> candidates,
                            const SpannerRepairOptions& options = {});

/// Convenience wrapper: filters G and H through `state`, derives the
/// endangered edges from `events`, and repairs.
RepairResult repair_spanner_after(const Graph& g, const Graph& h,
                                  const FaultState& state,
                                  std::span<const FaultEvent> events,
                                  const SpannerRepairOptions& options = {});

/// The fallback (and the baseline the benches compare against): a full
/// Algorithm 1 rebuild on the surviving graph, with the regularity
/// requirement relaxed to the survivors' actual degree spread (Theorem 2's
/// regular-expander premise cannot outlive faults, so both strategies fall
/// back to the Algorithm 1 construction).
RepairResult rebuild_spanner(const Graph& g_surviving,
                             const SpannerRepairOptions& options = {});

}  // namespace dcs
