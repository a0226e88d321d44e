#pragma once

// Chaos-soak harness: thousands of churn waves against a supervised
// spanner, with every run checked against explicit invariants and every
// violation automatically shrunk to a minimal replayable schedule.
//
// One soak iteration per wave:
//
//  1. the ChurnEngine emits the next wave of crashes/recoveries (or, in
//     replay mode, the wave comes from a recorded FailureSchedule);
//  2. the SpannerSupervisor lands the wave, pays repair debt, recertifies;
//  3. every `traffic_interval` waves a store-and-forward traffic burst
//     (a surviving-network matching routed over the live spanner, with
//     the overload protections of packet_sim engaged) exercises the
//     degraded data plane;
//  4. when `qps` > 0, a closed-loop batch of skewed distance/route
//     queries is served *during* the churn through a snapshot-backed
//     QueryEngine (the live-oracle path: the supervisor publishes
//     epochs, the engine pins them per batch and invalidates its caches
//     on adoption);
//  5. the invariants are checked:
//       * supervisor-lost        — the ladder never reaches kLost;
//       * certificate-after-repair — a recertification with zero
//         outstanding debt must certify α (the repair engine guarantees
//         a 3-spanner of the survivors deterministically);
//       * packet-leak            — delivered + shed + in-flight equals
//         injected for every traffic burst;
//       * repair-debt-monotone   — debt only grows by the wave's newly
//         endangered edges; it never appears from nowhere;
//       * query-certified        — every served answer is exact on the
//         snapshot it was pinned to AND inside the published (α,β)
//         envelope (d_H ≤ α_cert·d_G via per-edge subdivision), every
//         shed carries a valid structured reason, and conservation
//         (served + shed == submitted) holds across epoch boundaries;
//       * recovery-certified     — in crash-recovery mode (persist_dir +
//         crash_at_wave) the supervisor is destroyed mid-run without any
//         flush and rebuilt via SpannerSupervisor::recover(): the
//         recovered state must equal the pre-crash state exactly (wave
//         count, spanner topology, surviving network, repair debt — WAL
//         replay is deterministic), recertify to a non-lost certificate,
//         and serve a probe query batch whose every answer passes the
//         query-certified checks.
//
// On the first violation the harness stops, re-runs the recorded schedule
// through the delta-debugging minimizer (replays are deterministic, so
// reproduction is exact), and — when an artifact directory is set —
// writes the full schedule, the minimized schedule, and a JSON report
// next to each other, ready for `dcs_tool soak --replay`.

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "obs/metrics.hpp"
#include "resilience/churn_engine.hpp"
#include "resilience/minimizer.hpp"
#include "resilience/supervisor.hpp"
#include "routing/packet_sim.hpp"

namespace dcs {

struct SoakOptions {
  std::uint64_t seed = 1;
  std::size_t waves = 1000;

  ChurnEngineOptions churn;       ///< churn rates (seed is overridden)
  SupervisorOptions supervisor;   ///< maintenance policy

  /// Run a traffic burst every this many waves (0 = no traffic).
  std::size_t traffic_interval = 10;
  /// Overload protection for the traffic bursts (seed is overridden
  /// per-burst so every burst is independently reproducible).
  PacketSimOptions sim{.max_rounds = 1u << 12,
                       .queue_capacity = 64,
                       .deadline = 1u << 11};

  /// Shrink the schedule with ddmin after a violation.
  bool minimize_on_violation = true;
  MinimizerOptions minimizer;

  /// When non-empty: write schedule.txt, minimized.txt (on violation), and
  /// soak.json into this directory (created if missing).
  std::string artifacts_dir;

  /// Harness self-test: enable SpannerSupervisor::inject_repair_bug() so a
  /// deliberately broken maintenance loop proves the invariants and the
  /// minimizer actually catch bugs.
  bool inject_repair_bug = false;

  /// Closed-loop query traffic: queries served per wave (0 = none)
  /// through a snapshot-backed QueryEngine riding the supervisor's
  /// published epochs. The engine's policy is the strict live-oracle one:
  /// shed at kRebuilding and require a fresh certificate, so every served
  /// answer stands on a certificate measured against its own epoch.
  std::size_t qps = 0;

  /// Dispatchers for the query engine (requires qps > 0 to matter).
  /// 1 keeps the synchronous serve_batch path; >1 starts the engine and
  /// drives each wave's queries through submit() futures instead, so the
  /// shared submit queue — global EDF, N dispatchers, shared-pin epoch
  /// adoption — soaks under churn and crash-recovery too.
  std::size_t dispatchers = 1;

  /// Harness self-test: enable QueryEngine::inject_stale_cache_bug() so a
  /// distance-row cache that survives epoch swaps proves the
  /// query-certified invariant catches stale reads (requires qps > 0).
  bool inject_stale_cache_bug = false;

  /// When non-empty: attach a persist::DurabilityManager on this
  /// directory, checkpoint every `checkpoint_interval` waves, and
  /// write-ahead log every wave between checkpoints.
  std::string persist_dir;
  std::size_t checkpoint_interval = 16;

  /// Crash-recovery mode (requires persist_dir): immediately before
  /// consuming this wave, simulate a kill -9 — the supervisor and serving
  /// plane are destroyed with no flush — then recover from disk and check
  /// the recovery-certified invariant before the soak continues. 0 = no
  /// crash. The churn engine deliberately survives: it models the
  /// environment, which does not crash with the process.
  std::size_t crash_at_wave = 0;

  /// Graceful-shutdown hook: when non-null and set (e.g. from a SIGTERM
  /// handler), the soak stops at the next wave boundary with its result —
  /// and therefore its artifacts — intact.
  const std::atomic<bool>* stop_flag = nullptr;
};

struct SoakViolation {
  std::size_t wave = 0;
  std::string invariant;  ///< one of the names documented above
  std::string detail;
};

struct SoakResult {
  std::size_t waves_run = 0;
  std::vector<SoakViolation> violations;
  bool ok() const { return violations.empty(); }

  // Supervisor aggregates.
  std::size_t repairs = 0;
  std::size_t rebuilds = 0;
  std::size_t recertifications = 0;
  std::size_t max_debt = 0;
  SupervisorState worst_state = SupervisorState::kHealthy;
  SupervisorState final_state = SupervisorState::kHealthy;

  // Traffic aggregates.
  std::size_t sims_run = 0;
  std::size_t packets_injected = 0;
  std::size_t packets_delivered = 0;
  std::size_t packets_shed = 0;
  std::size_t max_queue = 0;

  // Query-serving aggregates (qps > 0). Conservation: submitted ==
  // served + shed, checked every wave by the query-certified invariant.
  std::size_t queries_submitted = 0;
  std::size_t queries_served = 0;
  std::size_t queries_shed = 0;      ///< structured kShedDegraded sheds
  std::size_t query_batches = 0;     ///< one per wave with qps > 0
  std::uint64_t epochs_published = 0;
  std::uint64_t epochs_adopted = 0;

  // Durability aggregates (persist_dir set).
  std::size_t checkpoints_written = 0;
  std::uint64_t final_generation = 0;
  bool crash_recovery_ran = false;   ///< the crash wave was reached
  std::size_t recovery_wal_replayed = 0;
  double recovery_seconds = 0.0;
  std::uint64_t recovery_generation = 0;

  /// True when a stop_flag shutdown ended the run early (not a failure).
  bool stopped_early = false;

  /// Every event the run consumed — replaying it reproduces the run.
  FailureSchedule schedule;

  /// Scalar metric deltas over the last executed wave (the violating wave
  /// when a violation stopped the run): the obs counters that moved during
  /// that wave alone, not the cumulative totals. Metrics are force-enabled
  /// for the soak's duration (and restored after) so the deltas exist even
  /// when the caller runs with metrics off. Exported into soak.json.
  obs::MetricsValueSnapshot wave_metrics_delta;
  std::size_t wave_metrics_wave = 0;

  /// Filled when a violation was minimized.
  bool minimized_available = false;
  FailureSchedule minimized;
  std::size_t minimizer_evaluations = 0;
  bool minimized_is_minimal = false;

  std::string summary() const;
};

/// Soaks `h` (a certified spanner of `g`) under freshly generated churn.
SoakResult run_soak(const Graph& g, const Graph& h,
                    const SoakOptions& options);

/// Re-runs a recorded schedule instead of generating churn: wave w of the
/// schedule is consumed at soak wave w, for `options.waves` waves (pass
/// the original run's `waves_run` for an exact replay). Used by the
/// minimizer's reproduction predicate and by `dcs_tool soak --replay`.
SoakResult replay_soak(const Graph& g, const Graph& h,
                       const FailureSchedule& schedule,
                       const SoakOptions& options);

/// Writes the artifact files for `result` into `dir` (created if
/// missing): schedule.txt, minimized.txt (when available), soak.json, and
/// flight.json (the flight recorder's event tail — on a violation its
/// last events are the epoch-publish / shed / invariant sequence that
/// explains it).
void write_soak_artifacts(const std::string& dir, const SoakResult& result);

}  // namespace dcs
