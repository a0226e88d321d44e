#pragma once

// Checkpoint format: one record-framed file capturing everything the
// supervisor needs to resume maintenance exactly where it stopped.
//
// Record sequence (kinds below, each CRC-guarded by the frame layer):
//
//   kHeader      version, n, wave, epoch
//   kGraph       the fault-free network G (gap-coded rows)
//   kSpanner     the current *surviving* spanner H (gap-coded rows)
//   kFaults      the overlay: crashed vertices + individually-crashed edges
//   kSupervisor  debt queue (in arrival order) + maintenance counters
//   kFooter      record count — its presence proves the file is complete
//
// A gap-coded graph is n (u64), then for each vertex u in order: the
// varint count of u's neighbours above u, then the varint gaps between
// them, the first measured from u. At n = 2048, Δ = 320 almost every gap
// fits one byte. Decoding fails closed unless every count is ≤ n−1−u and
// ≤ the bytes left, every gap is ≥ 1 and keeps the neighbour below n,
// every varint is in its shortest form of at most 5 bytes and < 2³², and
// no byte is left over; since every vertex costs a byte, the payload also
// bounds n.
//
// G is persisted in full so a checkpoint directory is self-contained: a
// recovering process can validate its world without trusting any other
// file, and `dcs_tool recover` can cross-check the operator-supplied graph
// against what the crashed process was actually maintaining. The footer
// turns "file ends early" from a guess into a hard verdict: a checkpoint
// without a footer was torn mid-write and the whole generation is invalid
// (checkpoints are atomic — there is no valid prefix to salvage, unlike a
// WAL).
//
// The certificate itself (α achieved, held/degraded/lost) is deliberately
// NOT trusted from disk: recovery always recertifies against the live
// HealthMonitor before the spanner is served. Persisting it would invite
// exactly the bug the acceptance criteria forbid — serving a corrupt or
// stale certificate.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "persist/record.hpp"

namespace dcs::persist {

/// Version 2 gap-codes kGraph and kSpanner; version 1 stored them as edge
/// lists and is refused like any other unknown version.
inline constexpr std::uint32_t kCheckpointVersion = 2;

enum class CheckpointRecord : std::uint8_t {
  kHeader = 1,
  kGraph = 2,
  kSpanner = 3,
  kFaults = 4,
  kSupervisor = 5,
  kFooter = 6,
};

/// Everything a checkpoint round-trips. Owned variant (decode target);
/// encode_checkpoint reads the same fields.
struct CheckpointData {
  std::uint64_t wave = 0;   ///< waves consumed when the checkpoint was cut
  std::uint64_t epoch = 0;  ///< last serving epoch published (0 = none)

  Graph graph;    ///< fault-free network G
  Graph spanner;  ///< current surviving spanner H ⊆ G∖F

  std::vector<Vertex> down_vertices;  ///< ascending
  std::vector<Edge> down_edges;       ///< canonical, sorted

  std::vector<Edge> debt;  ///< repair debt, arrival order preserved
  std::uint64_t debt_oldest_wave = 0;

  std::uint64_t repairs = 0;
  std::uint64_t rebuilds = 0;
  std::uint64_t last_rebuild_wave = 0;
  std::uint64_t last_check_wave = 0;
  std::uint64_t held_streak = 0;
  bool emergency_rebuild = false;
  bool cert_dirty = false;
};

/// Serializes the full record sequence (header → footer) into a byte
/// string ready for an atomic file publish.
std::string encode_checkpoint(const CheckpointData& data);

/// Parses and validates checkpoint bytes. Returns nullopt (with a
/// diagnostic) unless *everything* checks out: clean record tail, exact
/// record sequence, version match, footer count, graphs decode with
/// consistent vertex counts, H ⊆ G, and every fault/debt entry in range.
/// Anything less and the generation is unusable — recovery falls back.
std::optional<CheckpointData> decode_checkpoint(std::string_view bytes,
                                                std::string* error_out);

}  // namespace dcs::persist
