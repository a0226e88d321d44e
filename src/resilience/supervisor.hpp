#pragma once

// SpannerSupervisor — keeps the (α, β) certificate alive under continuous
// churn.
//
// PR 1's repair engine answers "how do I fix the spanner after *this*
// wave?"; the supervisor answers "how do I keep it certified forever?". It
// consumes a fault-event stream wave by wave (from a ChurnEngine or a
// replayed FailureSchedule) and runs a budgeted maintenance loop:
//
//  * endangered edges from each wave's events join a *repair debt* queue
//    (deduplicated, dead entries dropped as faults land on them);
//  * every wave at most `repair_budget` debt edges are repaired through
//    the incremental engine — the budget caps tail latency per wave, and
//    the leftover debt is explicit, observable back-pressure;
//  * when debt exceeds `rebuild_debt`, locality has stopped paying and the
//    supervisor falls back to a full rebuild — but at most once per
//    `rebuild_debounce` waves, so a burst cannot thrash rebuilds;
//  * repairs launch only when debt ≥ `min_repair_batch` or has aged
//    `max_defer_waves` waves (repair hysteresis): a flapping link whose
//    down/up pair lands within the window is screened once, as a no-op,
//    instead of triggering two repairs;
//  * recertification (HealthMonitor) runs after every repair and at least
//    every `recheck_interval` waves, and feeds the degradation ladder
//
//      kHealthy → kDegraded → kRepairing → kRebuilding → kLost
//
//    exported through obs::metrics (`supervisor.state`,
//    `supervisor.repair_debt`, …). kLost — a clean certificate failure with
//    no outstanding debt — means the maintenance loop itself is broken; the
//    supervisor schedules an emergency rebuild on the next step, and the
//    soak harness treats the state as an invariant violation.
//
// Determinism: everything downstream of the event stream is seeded, so a
// supervisor run is replayable from (graph, initial spanner, schedule).

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <string>

#include "graph/graph.hpp"
#include "resilience/fault_state.hpp"
#include "resilience/health_monitor.hpp"
#include "resilience/spanner_repair.hpp"

namespace dcs::serve {
class SnapshotStore;  // serve/snapshot.hpp — serving-plane epoch store
}  // namespace dcs::serve

namespace dcs::persist {
class DurabilityManager;  // persist/durability.hpp — checkpoint + WAL
struct CheckpointData;    // persist/checkpoint.hpp — serialized state
}  // namespace dcs::persist

namespace dcs {

/// Degradation ladder, ordered by severity (numeric value is exported as
/// the `supervisor.state` gauge).
enum class SupervisorState : std::uint8_t {
  kHealthy = 0,     ///< certificate held, no outstanding repair debt
  kDegraded = 1,    ///< certified with a weaker bound, or in hysteresis
  kRepairing = 2,   ///< incremental repair in progress / debt outstanding
  kRebuilding = 3,  ///< full rebuild ran this wave
  kLost = 4,        ///< certificate lost with zero debt — repair loop bug
};

const char* to_string(SupervisorState state);

struct SupervisorOptions {
  HealthMonitorOptions health;  ///< certificate to maintain (α, cap, β)
  SpannerRepairOptions repair;  ///< strategy + construction parameters

  /// Maximum debt edges repaired per wave (0 = unlimited). The cap bounds
  /// per-wave repair latency; the remainder carries over as debt.
  std::size_t repair_budget = 0;

  /// Debt size that abandons patching for a full rebuild (0 = never).
  std::size_t rebuild_debt = 0;
  /// Minimum waves between debt-triggered rebuilds. While debounced, the
  /// supervisor keeps paying debt down through budgeted repairs.
  std::size_t rebuild_debounce = 8;

  /// Repair hysteresis: wait until debt ≥ min_repair_batch or the oldest
  /// debt is `max_defer_waves` waves old before launching a repair.
  std::size_t min_repair_batch = 1;
  std::size_t max_defer_waves = 4;

  /// Recertify at least every this many waves (1 = every wave); a wave
  /// that repaired or rebuilt always recertifies.
  std::size_t recheck_interval = 1;

  /// Consecutive held certificates required to climb back to kHealthy
  /// after any repair/rebuild/degradation.
  std::size_t hysteresis = 2;

  /// Cut a durable checkpoint every this many waves when a
  /// DurabilityManager is attached (0 = only explicit checkpoint_now()
  /// calls). Between checkpoints every wave's events are write-ahead
  /// logged, so the exposure window is bounded by WAL fsync cadence, not
  /// by this interval.
  std::size_t checkpoint_interval = 0;
};

/// What SpannerSupervisor::recover() reconstructed and how long it took.
struct SupervisorRecovery {
  bool ok = false;
  std::string error;  ///< set when !ok (recovery failed closed)

  std::uint64_t generation = 0;        ///< checkpoint generation loaded
  std::uint64_t checkpoint_wave = 0;   ///< wave the checkpoint was cut at
  std::size_t generations_skipped = 0; ///< corrupt newer generations
  std::size_t wal_waves_replayed = 0;
  std::size_t wal_events_replayed = 0;
  bool wal_truncated = false;          ///< torn/corrupt WAL tail dropped
  std::uint64_t pre_crash_epoch = 0;   ///< last epoch the crashed run served

  GuaranteeStatus certificate = GuaranteeStatus::kLost;  ///< post-recovery
  double certified_alpha = 0.0;
  bool recheckpointed = false;  ///< fresh generation cut after recovery

  double seconds = 0.0;  ///< total recovery wall time
  double load_seconds = 0.0;
  double replay_seconds = 0.0;
  double recheck_seconds = 0.0;

  std::string summary() const;
};

/// One wave's maintenance outcome.
struct SupervisorReport {
  std::size_t wave = 0;
  SupervisorState state = SupervisorState::kHealthy;
  RepairOutcome repair = RepairOutcome::kNoop;
  bool repaired = false;  ///< a repair or rebuild ran this wave
  bool checked = false;   ///< recertification ran this wave

  GuaranteeStatus certificate = GuaranteeStatus::kHeld;  ///< latest check
  double certified_alpha = 0.0;

  std::size_t events_applied = 0;
  std::size_t new_candidates = 0;   ///< endangered edges from this wave
  std::size_t repaired_candidates = 0;
  std::size_t debt = 0;             ///< outstanding debt after this wave
  /// Snapshot epoch published this wave (0 = nothing published: either no
  /// store is attached or nothing serving-visible changed).
  std::uint64_t epoch = 0;
  double seconds = 0.0;             ///< wall-clock cost of this step

  std::string summary() const;
};

class SpannerSupervisor {
 public:
  /// `g` is the fault-free network and must outlive the supervisor; `h` is
  /// the initial certified spanner (a subgraph of g).
  SpannerSupervisor(const Graph& g, Graph h, SupervisorOptions options = {});

  /// Consumes one wave of fault events: applies them, accumulates repair
  /// debt, repairs/rebuilds within budget, recertifies, advances the
  /// degradation ladder, and — when a snapshot store is attached —
  /// publishes the post-wave `{graph, spanner, certificate}` view as a
  /// new serving epoch if anything serving-visible changed.
  SupervisorReport step(std::span<const FaultEvent> events);

  /// Attaches the serving-plane epoch store (borrowed; may be nullptr to
  /// detach). The current state is published immediately so the serving
  /// plane never runs ahead of the maintenance plane; thereafter step()
  /// publishes whenever events landed, maintenance ran, or the ladder
  /// moved. The store's vertex count must match the network's.
  void attach_snapshots(serve::SnapshotStore* store);

  /// Attaches the durability plane (borrowed; nullptr detaches). Once
  /// attached, step() write-ahead logs every wave *before* applying it and
  /// cuts a checkpoint every `checkpoint_interval` waves. Call
  /// checkpoint_now() right after attaching so the WAL has a base
  /// generation to replay against.
  void attach_durability(persist::DurabilityManager* durability);

  /// Cuts a durable checkpoint of the current state (and rotates the WAL).
  /// False when no durability manager is attached or the write failed —
  /// in which case the previous generation remains authoritative.
  bool checkpoint_now();

  /// Rebuilds a supervisor from the newest valid generation in `durability`:
  /// loads the checkpoint, re-applies the fault overlay, replays the WAL
  /// wave by wave through the normal step()/repair path (deterministic, so
  /// the replayed state matches the pre-crash one), recertifies against a
  /// live HealthMonitor, attaches `durability`, and cuts a fresh
  /// checkpoint. `g` must equal the checkpointed network — recovery fails
  /// closed on mismatch rather than serve a spanner of the wrong graph.
  /// Returns nullptr (with report.error set) when recovery fails closed;
  /// the on-disk generations are left untouched either way. Attach a
  /// SnapshotStore afterwards to publish the recovered epoch.
  static std::unique_ptr<SpannerSupervisor> recover(
      const Graph& g, persist::DurabilityManager& durability,
      SupervisorOptions options, SupervisorRecovery& report);

  /// The current spanner (a subgraph of the current surviving network).
  const Graph& spanner() const { return h_; }
  const FaultState& fault_state() const { return state_; }

  SupervisorState ladder_state() const { return ladder_; }
  /// Last serving epoch published (0 = none yet).
  std::uint64_t last_epoch() const { return last_epoch_; }
  std::size_t repair_debt() const { return debt_.size(); }
  std::size_t waves() const { return wave_; }
  std::size_t repairs() const { return repairs_; }
  std::size_t rebuilds() const { return rebuilds_; }

  /// Latest recertification result (valid once a step has checked).
  const DegradationReport& last_check() const { return last_check_; }

  /// TEST HOOK — deliberately breaks the maintenance loop: after every
  /// repair, one repaired edge is silently removed from the spanner
  /// without re-entering the debt queue. Exists so the soak harness and
  /// its schedule minimizer can prove they catch real invariant
  /// violations; never enable outside a harness self-test.
  void inject_repair_bug() { repair_bug_ = true; }

 private:
  void refresh_debt();  ///< drop dead / already-covered-by-H entries
  void export_metrics(const SupervisorReport& report);
  /// Publishes {g_surv, h_, certificate-from-last_check_} to the attached
  /// store and returns the new epoch. Requires snapshots_ != nullptr.
  /// g_surv is moved into the snapshot, so an epoch costs one copy of G.
  std::uint64_t publish_snapshot(Graph g_surv);
  /// Serializes the full maintenance state for the durability plane.
  persist::CheckpointData make_checkpoint() const;
  /// Recertifies immediately against the current topology (used by
  /// recovery; step() has its own cadence-driven version).
  void force_recertify();

  const Graph& g_;
  Graph h_;
  SupervisorOptions options_;
  FaultState state_;

  SupervisorState ladder_ = SupervisorState::kHealthy;
  std::size_t wave_ = 0;
  std::size_t repairs_ = 0;
  std::size_t rebuilds_ = 0;
  std::size_t last_rebuild_wave_ = 0;
  std::size_t last_check_wave_ = 0;
  std::size_t held_streak_ = 0;
  bool emergency_rebuild_ = false;
  bool repair_bug_ = false;

  // Serving-plane hand-off (tentpole of the live-oracle work): where new
  // epochs go, the last ladder state the serving plane saw, and whether
  // the certificate still describes the published topology.
  serve::SnapshotStore* snapshots_ = nullptr;
  SupervisorState last_published_state_ = SupervisorState::kHealthy;
  std::uint64_t last_epoch_ = 0;

  // Durability plane (borrowed): WAL target + checkpoint sink.
  persist::DurabilityManager* durability_ = nullptr;
  /// Set when faults or maintenance touch the topology, cleared by
  /// recertification: a published certificate is `fresh` iff clear.
  bool cert_dirty_ = false;

  // Debt queue in arrival order plus a membership set for deduplication.
  std::deque<Edge> debt_;
  EdgeSet debt_set_;
  std::size_t debt_oldest_wave_ = 0;  ///< wave the oldest debt arrived in

  DegradationReport last_check_;
};

}  // namespace dcs
