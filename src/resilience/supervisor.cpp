#include "resilience/supervisor.hpp"

#include <algorithm>
#include <sstream>
#include <utility>
#include <vector>

#define DCS_LOG_COMPONENT "supervisor"
#include "obs/flight_recorder.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "persist/durability.hpp"
#include "serve/snapshot.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace dcs {

const char* to_string(SupervisorState state) {
  switch (state) {
    case SupervisorState::kHealthy: return "healthy";
    case SupervisorState::kDegraded: return "degraded";
    case SupervisorState::kRepairing: return "repairing";
    case SupervisorState::kRebuilding: return "rebuilding";
    case SupervisorState::kLost: return "lost";
  }
  return "?";
}

std::string SupervisorReport::summary() const {
  std::ostringstream os;
  os << "wave " << wave << ": " << to_string(state) << ", " << events_applied
     << " events, +" << new_candidates << " endangered";
  if (repaired) {
    os << ", repair " << to_string(repair) << " (" << repaired_candidates
       << " edges)";
  }
  if (checked) {
    os << ", certificate " << to_string(certificate) << " (alpha "
       << certified_alpha << ")";
  }
  os << ", debt " << debt;
  if (epoch != 0) os << ", epoch " << epoch;
  return os.str();
}

SpannerSupervisor::SpannerSupervisor(const Graph& g, Graph h,
                                     SupervisorOptions options)
    : g_(g),
      h_(std::move(h)),
      options_(options),
      state_(g.num_vertices()),
      // The initial spanner arrives certified; start the ladder at healthy
      // with a full hysteresis streak behind it.
      held_streak_(options.hysteresis) {
  DCS_REQUIRE(h_.num_vertices() == g_.num_vertices() &&
                  g_.contains_subgraph(h_),
              "initial spanner must be a subgraph of the network");
  DCS_REQUIRE(options_.recheck_interval >= 1,
              "recheck interval must be >= 1");
  DCS_REQUIRE(options_.min_repair_batch >= 1,
              "min repair batch must be >= 1");
  last_check_.distance = GuaranteeStatus::kHeld;
  last_check_.certified_alpha = options_.health.alpha;
}

void SpannerSupervisor::refresh_debt() {
  // Later faults may have killed queued endangered edges; repairing a dead
  // edge would splice dead endpoints back into the spanner.
  std::deque<Edge> kept;
  for (Edge e : debt_) {
    if (state_.edge_alive(e) && g_.has_edge(e.u, e.v)) {
      kept.push_back(e);
    } else {
      debt_set_.erase(e);
    }
  }
  debt_.swap(kept);
}

void SpannerSupervisor::export_metrics(const SupervisorReport& report) {
  if (!obs::metrics_enabled()) return;
  auto& reg = obs::MetricsRegistry::instance();
  reg.gauge("supervisor.state")
      .set(static_cast<double>(static_cast<std::uint8_t>(report.state)));
  reg.gauge("supervisor.repair_debt")
      .set(static_cast<double>(report.debt));
  reg.gauge("supervisor.certified_alpha").set(report.certified_alpha);
  reg.counter("supervisor.waves").inc();
  reg.counter("supervisor.events").inc(report.events_applied);
  if (report.repaired) {
    reg.counter(report.repair == RepairOutcome::kRebuilt
                    ? "supervisor.rebuilds"
                    : "supervisor.repairs")
        .inc();
  }
  if (report.checked) reg.counter("supervisor.recertifications").inc();
  reg.histogram("supervisor.wave_candidates")
      .record(static_cast<double>(report.new_candidates));
  reg.histogram("supervisor.step_ms").record(report.seconds * 1e3);
}

void SpannerSupervisor::attach_snapshots(serve::SnapshotStore* store) {
  snapshots_ = store;
  if (snapshots_ == nullptr) return;
  DCS_REQUIRE(snapshots_->num_vertices() == g_.num_vertices(),
              "snapshot store vertex count must match the network");
  // Publish immediately: the serving plane must never read a view older
  // than the supervisor's current one.
  publish_snapshot(state_.surviving(g_));
}

std::uint64_t SpannerSupervisor::publish_snapshot(Graph g_surv) {
  serve::SpannerCertificate cert;
  cert.alpha = last_check_.certified_alpha;
  cert.beta = options_.health.beta;
  cert.status = last_check_.distance;
  cert.ladder = ladder_;
  cert.fresh = !cert_dirty_;
  last_published_state_ = ladder_;
  const std::uint64_t epoch =
      snapshots_->publish(std::move(g_surv), h_, cert);
  last_epoch_ = epoch;
  obs::FlightRecorder::instance().record(obs::FlightEventKind::kEpochPublish,
                                         to_string(ladder_), epoch, wave_);
  return epoch;
}

void SpannerSupervisor::attach_durability(
    persist::DurabilityManager* durability) {
  durability_ = durability;
}

persist::CheckpointData SpannerSupervisor::make_checkpoint() const {
  persist::CheckpointData data;
  data.wave = wave_;
  data.epoch = last_epoch_;
  data.graph = g_;
  data.spanner = h_;
  data.down_vertices = state_.down_vertices();
  data.down_edges = state_.down_edges();
  data.debt.assign(debt_.begin(), debt_.end());
  data.debt_oldest_wave = debt_oldest_wave_;
  data.repairs = repairs_;
  data.rebuilds = rebuilds_;
  data.last_rebuild_wave = last_rebuild_wave_;
  data.last_check_wave = last_check_wave_;
  data.held_streak = held_streak_;
  data.emergency_rebuild = emergency_rebuild_;
  data.cert_dirty = cert_dirty_;
  return data;
}

bool SpannerSupervisor::checkpoint_now() {
  if (durability_ == nullptr) return false;
  return durability_->checkpoint(make_checkpoint());
}

void SpannerSupervisor::force_recertify() {
  const HealthMonitor monitor(g_, options_.health);
  const Graph g_surv = state_.surviving(g_);
  last_check_ = monitor.check_surviving(g_surv, h_, state_);
  last_check_wave_ = wave_;
  cert_dirty_ = false;
  // Conservative streak: one held check is evidence, not a track record —
  // the recovered supervisor re-earns kHealthy through normal hysteresis.
  held_streak_ = last_check_.distance == GuaranteeStatus::kHeld ? 1 : 0;
  if (debt_.empty() && last_check_.distance == GuaranteeStatus::kLost) {
    ladder_ = SupervisorState::kLost;
    emergency_rebuild_ = true;
  } else if (!debt_.empty()) {
    ladder_ = SupervisorState::kRepairing;
  } else if (last_check_.distance == GuaranteeStatus::kHeld &&
             held_streak_ >= options_.hysteresis) {
    ladder_ = SupervisorState::kHealthy;
  } else {
    ladder_ = SupervisorState::kDegraded;
  }
}

SupervisorReport SpannerSupervisor::step(std::span<const FaultEvent> events) {
  DCS_TRACE_SPAN("supervisor_step");
  Timer timer;
  SupervisorReport report;
  report.wave = wave_;

  // 0. Write-ahead: the wave's events hit the log before any derived state
  //    changes, so a crash anywhere in this step replays the whole wave.
  //    A WAL failure degrades durability, never the maintenance loop.
  if (durability_ != nullptr) {
    durability_->log_wave(wave_, events);
  }

  // 1. Land the wave: update the overlay, drop dead spanner edges, and
  //    queue the endangered edges as repair debt.
  state_.apply(events);
  report.events_applied = events.size();
  Graph g_surv = state_.surviving(g_);
  h_ = state_.surviving(h_);
  if (!events.empty()) cert_dirty_ = true;

  if (!events.empty()) {
    const auto candidates = repair_candidates(g_, g_surv, events);
    for (Edge e : candidates) {
      if (debt_set_.insert(e)) {
        if (debt_.empty()) debt_oldest_wave_ = wave_;
        debt_.push_back(e);
      }
    }
    report.new_candidates = candidates.size();
  }
  refresh_debt();

  // 2. Pay the debt down — full rebuild past the debt ceiling (debounced),
  //    budgeted incremental repair otherwise.
  const bool over_ceiling =
      options_.rebuild_debt > 0 && debt_.size() > options_.rebuild_debt;
  const bool debounce_ok =
      rebuilds_ == 0 ||
      wave_ - last_rebuild_wave_ >= options_.rebuild_debounce;
  if (emergency_rebuild_ || (over_ceiling && debounce_ok)) {
    const auto rebuilt = rebuild_spanner(g_surv, options_.repair);
    h_ = rebuilt.h;
    debt_.clear();
    debt_set_ = EdgeSet();
    ++rebuilds_;
    last_rebuild_wave_ = wave_;
    emergency_rebuild_ = false;
    report.repaired = true;
    report.repair = RepairOutcome::kRebuilt;
    DCS_LOG(Info) << "wave " << wave_ << ": full rebuild ("
                  << (over_ceiling ? "debt ceiling" : "emergency") << ")";
  } else if (!debt_.empty() &&
             (debt_.size() >= options_.min_repair_batch ||
              wave_ - debt_oldest_wave_ >= options_.max_defer_waves)) {
    const std::size_t batch_size =
        options_.repair_budget == 0
            ? debt_.size()
            : std::min(options_.repair_budget, debt_.size());
    std::vector<Edge> batch(debt_.begin(), debt_.begin() + batch_size);
    const auto repaired = repair_spanner(g_surv, h_, batch, options_.repair);
    h_ = repaired.h;
    debt_.erase(debt_.begin(), debt_.begin() + batch_size);
    for (Edge e : batch) debt_set_.erase(e);
    if (!debt_.empty()) debt_oldest_wave_ = wave_;
    ++repairs_;
    report.repaired = true;
    report.repair = repaired.outcome;
    report.repaired_candidates = batch_size;

    if (repair_bug_) {
      // Harness self-test fault: silently lose one repaired edge. See
      // inject_repair_bug().
      for (Edge e : batch) {
        if (h_.has_edge(e.u, e.v)) {
          auto edges = h_.edges();
          std::erase(edges, canonical(e));
          h_ = Graph::from_edges(h_.num_vertices(), edges);
          break;
        }
      }
    }
  }

  // 3. Recertify: always after maintenance, at least every
  //    recheck_interval waves otherwise.
  if (report.repaired) cert_dirty_ = true;
  const bool check_due =
      report.repaired || wave_ - last_check_wave_ >= options_.recheck_interval;
  if (check_due) {
    const HealthMonitor monitor(g_, options_.health);
    last_check_ = monitor.check_surviving(g_surv, h_, state_);
    last_check_wave_ = wave_;
    report.checked = true;
    // The certificate now describes exactly this wave's post-maintenance
    // topology — the next published snapshot is `fresh`.
    cert_dirty_ = false;
    if (last_check_.distance == GuaranteeStatus::kHeld) {
      ++held_streak_;
    } else {
      held_streak_ = 0;
    }
  }
  report.certificate = last_check_.distance;
  report.certified_alpha = last_check_.certified_alpha;

  // 4. Advance the degradation ladder.
  const SupervisorState ladder_before = ladder_;
  if (debt_.empty() && report.checked &&
      last_check_.distance == GuaranteeStatus::kLost) {
    // Nothing left to repair yet the certificate is gone: the maintenance
    // loop failed. Schedule an emergency rebuild for the next step.
    ladder_ = SupervisorState::kLost;
    emergency_rebuild_ = true;
    DCS_LOG(Error) << "wave " << wave_
                   << ": certificate lost with zero repair debt";
  } else if (report.repair == RepairOutcome::kRebuilt && report.repaired) {
    ladder_ = SupervisorState::kRebuilding;
  } else if (report.repaired || !debt_.empty()) {
    ladder_ = SupervisorState::kRepairing;
  } else if (last_check_.distance == GuaranteeStatus::kHeld &&
             held_streak_ >= options_.hysteresis) {
    ladder_ = SupervisorState::kHealthy;
  } else {
    ladder_ = SupervisorState::kDegraded;
  }

  if (ladder_ != ladder_before) {
    obs::FlightRecorder::instance().record(
        obs::FlightEventKind::kLadder, to_string(ladder_),
        static_cast<std::uint64_t>(ladder_before),
        static_cast<std::uint64_t>(ladder_));
  }

  report.state = ladder_;
  report.debt = debt_.size();

  // 5. Hand the wave to the serving plane: publish a new epoch whenever
  //    anything serving-visible changed (topology, maintenance, or ladder
  //    position). Quiet waves publish nothing — readers keep the epoch
  //    they have, and the epoch counter stays meaningful.
  if (snapshots_ != nullptr &&
      (report.events_applied > 0 || report.repaired ||
       ladder_ != last_published_state_)) {
    report.epoch = publish_snapshot(std::move(g_surv));
  }

  if (report.repaired) {
    obs::FlightRecorder::instance().record(
        obs::FlightEventKind::kRepair, to_string(report.repair),
        report.repaired_candidates, report.debt);
  }

  report.seconds = timer.seconds();
  export_metrics(report);
  DCS_LOG(Debug) << report.summary();
  ++wave_;

  // 6. Checkpoint cadence: after the wave is fully consumed (wave_ already
  //    advanced, so the stored wave is "waves consumed" and WAL replay
  //    resumes exactly here). A failed cut leaves the previous generation
  //    and its WAL authoritative.
  if (durability_ != nullptr && options_.checkpoint_interval > 0 &&
      wave_ % options_.checkpoint_interval == 0) {
    checkpoint_now();
  }
  return report;
}

std::string SupervisorRecovery::summary() const {
  std::ostringstream os;
  if (!ok) {
    os << "recovery failed closed: " << error;
    return os.str();
  }
  os << "recovered generation " << generation << " (wave " << checkpoint_wave
     << " + " << wal_waves_replayed << " wal waves, "
     << wal_events_replayed << " events)";
  if (generations_skipped > 0) {
    os << ", " << generations_skipped << " corrupt generation(s) skipped";
  }
  if (wal_truncated) os << ", torn wal tail truncated";
  os << ", certificate " << to_string(certificate) << " (alpha "
     << certified_alpha << ")";
  if (!recheckpointed) os << ", re-checkpoint failed";
  os << ", " << seconds * 1e3 << " ms";
  return os.str();
}

std::unique_ptr<SpannerSupervisor> SpannerSupervisor::recover(
    const Graph& g, persist::DurabilityManager& durability,
    SupervisorOptions options, SupervisorRecovery& report) {
  Timer total;
  report = SupervisorRecovery{};

  Timer load_timer;
  auto loaded = durability.recover();
  if (!loaded.has_value()) {
    report.error = durability.last_error();
    return nullptr;
  }
  persist::CheckpointData& ckpt = loaded->checkpoint;
  report.generation = loaded->generation;
  report.checkpoint_wave = ckpt.wave;
  report.generations_skipped = loaded->generations_skipped;
  report.wal_truncated = loaded->wal_truncated;
  report.pre_crash_epoch = ckpt.epoch;

  // The checkpoint is self-contained; the caller's graph must be the same
  // network or the spanner/debt/overlay are meaningless against it.
  if (!(ckpt.graph == g)) {
    report.error = "checkpoint network differs from the provided graph";
    DCS_LOG(Error) << "recovery failed closed: " << report.error;
    return nullptr;
  }
  report.load_seconds = load_timer.seconds();

  // Reconstruct the supervisor at the checkpoint wave. The constructor
  // re-verifies H ⊆ G; private state is restored field by field (recover is
  // a member, so it may).
  auto sup = std::unique_ptr<SpannerSupervisor>(
      new SpannerSupervisor(g, std::move(ckpt.spanner), options));
  for (Vertex v : ckpt.down_vertices) {
    sup->state_.apply(FaultEvent::vertex_down(ckpt.wave, v));
  }
  for (Edge e : ckpt.down_edges) {
    sup->state_.apply(FaultEvent::edge_down(ckpt.wave, e));
  }
  sup->wave_ = static_cast<std::size_t>(ckpt.wave);
  sup->repairs_ = static_cast<std::size_t>(ckpt.repairs);
  sup->rebuilds_ = static_cast<std::size_t>(ckpt.rebuilds);
  sup->last_rebuild_wave_ = static_cast<std::size_t>(ckpt.last_rebuild_wave);
  sup->last_check_wave_ = static_cast<std::size_t>(ckpt.last_check_wave);
  sup->held_streak_ = static_cast<std::size_t>(ckpt.held_streak);
  sup->emergency_rebuild_ = ckpt.emergency_rebuild;
  sup->cert_dirty_ = ckpt.cert_dirty;
  sup->debt_oldest_wave_ = static_cast<std::size_t>(ckpt.debt_oldest_wave);
  for (Edge e : ckpt.debt) {
    if (sup->debt_set_.insert(e)) sup->debt_.push_back(e);
  }
  // A checkpoint that passed decoding but whose spanner contradicts its
  // own fault overlay could still smuggle in dead edges; reject it here
  // rather than serve paths through crashed elements.
  for (Edge e : sup->h_.edges()) {
    if (!sup->state_.edge_alive(e)) {
      report.error = "checkpoint spanner contains a crashed edge";
      DCS_LOG(Error) << "recovery failed closed: " << report.error;
      return nullptr;
    }
  }

  // Replay the WAL through the normal maintenance path. Every stage is
  // seeded/deterministic, so this reproduces the pre-crash state exactly.
  Timer replay_timer;
  for (const persist::WalWave& wave : loaded->wal) {
    report.wal_events_replayed += wave.events.size();
    sup->step(std::span<const FaultEvent>(wave.events));
    ++report.wal_waves_replayed;
  }
  report.replay_seconds = replay_timer.seconds();

  // Never trust a certificate that was in memory when the process died:
  // recertify against the live topology before anything gets served.
  Timer recheck_timer;
  sup->force_recertify();
  report.recheck_seconds = recheck_timer.seconds();
  report.certificate = sup->last_check_.distance;
  report.certified_alpha = sup->last_check_.certified_alpha;

  // End recovery on a fresh durable generation: the replayed WAL is now
  // baked into a checkpoint and new waves log against it.
  sup->attach_durability(&durability);
  report.recheckpointed = sup->checkpoint_now();

  report.ok = true;
  report.seconds = total.seconds();
  if (obs::metrics_enabled()) {
    auto& reg = obs::MetricsRegistry::instance();
    reg.gauge("persist.recovery.total_ms").set(report.seconds * 1e3);
    reg.gauge("persist.recovery.replay_ms").set(report.replay_seconds * 1e3);
    reg.gauge("persist.recovery.recheck_ms")
        .set(report.recheck_seconds * 1e3);
    reg.gauge("persist.recovery.certificate")
        .set(static_cast<double>(
            static_cast<std::uint8_t>(report.certificate)));
    reg.counter("persist.recovery.completed").inc();
  }
  obs::FlightRecorder::instance().record(
      obs::FlightEventKind::kCustom, "recovery-complete", loaded->generation,
      sup->wave_);
  DCS_LOG(Info) << report.summary();
  return sup;
}

}  // namespace dcs
