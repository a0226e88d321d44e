#include "resilience/soak.hpp"

#include <algorithm>
#include <filesystem>
#include <future>
#include <memory>
#include <optional>
#include <span>
#include <sstream>

#define DCS_LOG_COMPONENT "soak"
#include "graph/bfs.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/json.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "persist/durability.hpp"
#include "persist/fs.hpp"
#include "routing/matching.hpp"
#include "serve/query_engine.hpp"
#include "serve/snapshot.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace dcs {

namespace {

// Domain-separation salts for the per-purpose seed streams.
constexpr std::uint64_t kChurnSalt = 0x5eedc0ffee01ULL;
constexpr std::uint64_t kTrafficSalt = 0x5eedc0ffee02ULL;
constexpr std::uint64_t kQuerySalt = 0x5eedc0ffee03ULL;
constexpr std::uint64_t kRecoverySalt = 0x5eedc0ffee04ULL;

/// A traffic burst at `wave`: a maximal matching of the surviving network
/// routed over the live spanner. Pairs the spanner cannot currently reach
/// (mid-repair damage) are skipped — the burst probes the data plane, not
/// the certificate; the certificate has its own invariant.
Routing burst_routing(const Graph& g_surv, const Graph& h_live,
                      std::uint64_t seed) {
  Rng rng(seed);
  const auto matched = greedy_maximal_matching(g_surv, seed);
  Routing routing;
  routing.paths.reserve(matched.size());
  for (Edge e : matched) {
    auto path = bfs_shortest_path(h_live, e.u, e.v, &rng);
    if (!path.empty()) routing.paths.push_back(std::move(path));
  }
  return routing;
}

/// Wave `w`'s closed-loop query batch: `qps` skewed distance/route
/// queries, a pure function of (seed, wave) so replays — including the
/// minimizer's — submit the identical traffic.
std::vector<serve::Query> wave_queries(std::uint64_t seed, std::size_t w,
                                       std::size_t qps, std::size_t n) {
  Rng rng(mix64(mix64(seed, kQuerySalt), w));
  // Half the sources come from a small hot set: skewed traffic is the
  // realistic case, and repeat sources are what the engine coalesces into
  // one ball row or one sweep lane per source.
  const std::uint64_t hot = std::min<std::uint64_t>(8, n);
  std::vector<serve::Query> batch(qps);
  for (serve::Query& q : batch) {
    q.kind = rng.uniform(4) == 0 ? serve::QueryKind::kRoute
                                 : serve::QueryKind::kDistance;
    q.u = static_cast<Vertex>(rng.uniform(2) == 0 ? rng.uniform(hot)
                                                  : rng.uniform(n));
    q.v = static_cast<Vertex>(rng.uniform(n));
  }
  return batch;
}

/// The query-certified invariant, one answer at a time. Returns a detail
/// string on the first violated clause:
///  * a served answer must carry the pinned epoch, be *exact* on that
///    snapshot's spanner (an answer from an older epoch fails here), and
///    sit inside the published envelope d_H(u,v) ≤ α_cert·d_G(u,v) —
///    sound for kHeld/kDegraded certificates because every surviving
///    G-edge is measured, so the per-edge bound extends to pairs by
///    subdividing a shortest G-path;
///  * a shed answer must carry a structured reason the published
///    certificate actually justifies.
std::optional<std::string> check_query_answer(
    const serve::ServeSnapshot& snap, const serve::Query& q,
    const serve::QueryResult& r) {
  std::ostringstream os;
  os << (q.kind == serve::QueryKind::kDistance ? "distance" : "route") << " "
     << q.u << "->" << q.v << ": ";
  const serve::SpannerCertificate& cert = snap.certificate;

  if (r.outcome == serve::QueryOutcome::kShedDegraded) {
    const bool justified =
        cert.status == GuaranteeStatus::kLost || !cert.fresh ||
        cert.ladder >= SupervisorState::kRebuilding;
    if (justified) return std::nullopt;
    os << "shed-degraded without cause (certificate "
       << to_string(cert.status) << ", " << (cert.fresh ? "fresh" : "stale")
       << ", ladder " << to_string(cert.ladder) << ")";
    return os.str();
  }
  if (r.outcome != serve::QueryOutcome::kServed) {
    os << "unexpected outcome " << serve::to_string(r.outcome)
       << " from the synchronous path";
    return os.str();
  }

  if (r.epoch != snap.epoch) {
    os << "answered under epoch " << r.epoch << " but epoch " << snap.epoch
       << " is published";
    return os.str();
  }
  const Dist want = bfs_distance(snap.spanner, q.u, q.v);
  if (r.distance != want) {
    os << "answer " << r.distance << " != " << want << " on the epoch-"
       << snap.epoch << " spanner (stale read?)";
    return os.str();
  }
  if (q.kind == serve::QueryKind::kRoute && want != kUnreachable) {
    if (r.path.empty() || r.path.front() != q.u || r.path.back() != q.v) {
      os << "served path does not connect the endpoints";
      return os.str();
    }
    for (std::size_t i = 0; i + 1 < r.path.size(); ++i) {
      if (!snap.spanner.has_edge(r.path[i], r.path[i + 1])) {
        os << "served path uses edge (" << r.path[i] << "," << r.path[i + 1]
           << ") absent from the epoch-" << snap.epoch << " spanner";
        return os.str();
      }
    }
  }
  const Dist d_g = bfs_distance(snap.graph, q.u, q.v);
  if (want == kUnreachable) {
    if (d_g != kUnreachable) {
      os << "spanner cannot reach a pair at graph distance " << d_g;
      return os.str();
    }
    return std::nullopt;
  }
  if (static_cast<double>(want) >
      cert.alpha * static_cast<double>(d_g) + 1e-9) {
    os << "stretch " << want << "/" << d_g
       << " outside the published envelope alpha=" << cert.alpha
       << " (certificate " << to_string(cert.status) << ")";
    return os.str();
  }
  return std::nullopt;
}

/// Metrics are force-enabled for the soak's duration so the per-wave
/// counter deltas in soak.json exist even under a metrics-off caller; the
/// caller's switch is restored on exit.
struct MetricsEnableGuard {
  const bool prev = obs::metrics_enabled();
  MetricsEnableGuard() { obs::set_metrics_enabled(true); }
  ~MetricsEnableGuard() { obs::set_metrics_enabled(prev); }
};

struct SoakDriver {
  const Graph& g;
  const Graph& h0;
  const SoakOptions& options;
  const FailureSchedule* replay = nullptr;  ///< null = generate churn

  /// Flags a violation: one flight-recorder event (so the flight.json tail
  /// names the invariant and wave next to the epoch/shed events that led
  /// up to it), then the structured SoakViolation. `invariant` must be a
  /// string literal.
  static void flag(SoakResult& result, std::size_t wave,
                   const char* invariant, std::string detail) {
    obs::FlightRecorder::instance().record(obs::FlightEventKind::kInvariant,
                                           invariant, wave);
    result.violations.push_back({wave, invariant, std::move(detail)});
  }

  /// Crash-recovery mode's simulated kill -9 at wave `w` (before the wave
  /// is consumed): destroy the serving plane and the supervisor with no
  /// flush, recover from disk, and check the recovery-certified invariant —
  /// state equality with the pre-crash supervisor (WAL replay is
  /// deterministic), a non-lost certificate, and a probe query batch that
  /// passes the query-certified checks. Returns false when the soak cannot
  /// continue (recovery failed closed or the invariant flagged).
  template <class Wire, class Fold>
  bool run_crash_recovery(SoakResult& result, std::size_t w,
                          const SupervisorOptions& sup_options,
                          persist::DurabilityManager& durability,
                          std::unique_ptr<SpannerSupervisor>& supervisor,
                          std::optional<serve::SnapshotStore>& store,
                          std::optional<serve::QueryEngine>& query_engine,
                          const Wire& wire_serving,
                          const Fold& fold_serving) {
    result.crash_recovery_ran = true;
    const std::size_t pre_waves = supervisor->waves();
    const std::size_t pre_debt = supervisor->repair_debt();
    const Graph pre_spanner = supervisor->spanner();
    const Graph pre_surviving = supervisor->fault_state().surviving(g);

    // kill -9: nothing below gets to flush, checkpoint, or say goodbye.
    fold_serving();
    query_engine.reset();
    store.reset();
    supervisor.reset();
    obs::FlightRecorder::instance().record(obs::FlightEventKind::kCustom,
                                           "soak-crash", w, 0);

    SupervisorRecovery recovery;
    supervisor =
        SpannerSupervisor::recover(g, durability, sup_options, recovery);
    result.recovery_wal_replayed = recovery.wal_waves_replayed;
    result.recovery_seconds = recovery.seconds;
    result.recovery_generation = recovery.generation;
    if (supervisor == nullptr) {
      flag(result, w, "recovery-certified",
           "recovery failed closed: " + recovery.error);
      return false;
    }
    DCS_LOG(Info) << "crash at wave " << w << ": " << recovery.summary();

    std::ostringstream why;
    if (supervisor->waves() != pre_waves) {
      why << "recovered to wave " << supervisor->waves() << ", crashed at "
          << pre_waves;
    } else if (!(supervisor->spanner() == pre_spanner)) {
      why << "recovered spanner differs from the pre-crash spanner ("
          << supervisor->spanner().num_edges() << " vs "
          << pre_spanner.num_edges() << " edges)";
    } else if (!(supervisor->fault_state().surviving(g) == pre_surviving)) {
      why << "recovered fault overlay differs from the pre-crash overlay";
    } else if (supervisor->repair_debt() != pre_debt) {
      why << "recovered debt " << supervisor->repair_debt()
          << " != pre-crash debt " << pre_debt;
    } else if (recovery.certificate == GuaranteeStatus::kLost) {
      why << "recovered oracle recertified to kLost (alpha "
          << recovery.certified_alpha << ") — must not serve";
    }
    if (!why.str().empty()) {
      flag(result, w, "recovery-certified", why.str());
      return false;
    }

    // Publish the recovered epoch and prove the oracle serves certified
    // answers *now*, before churn resumes.
    wire_serving();
    if (query_engine) {
      const std::vector<serve::Query> batch = wave_queries(
          mix64(options.seed, kRecoverySalt), w, options.qps,
          g.num_vertices());
      const serve::SnapshotRef snap = store->pin();
      const auto answers = query_engine->serve_batch(batch);
      result.queries_submitted += batch.size();
      ++result.query_batches;
      for (std::size_t i = 0; i < batch.size(); ++i) {
        const auto fail = check_query_answer(*snap, batch[i], answers[i]);
        if (fail.has_value()) {
          flag(result, w, "recovery-certified",
               "post-recovery probe, epoch " + std::to_string(snap->epoch) +
                   ": " + *fail);
          return false;
        }
      }
    }
    return true;
  }

  SoakResult run() {
    DCS_TRACE_SPAN("soak");
    MetricsEnableGuard metrics_guard;
    obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
    SoakResult result;
    ChurnEngineOptions churn = options.churn;
    churn.seed = mix64(options.seed, kChurnSalt);
    ChurnEngine engine(g, churn);

    SupervisorOptions sup_options = options.supervisor;
    if (!options.persist_dir.empty()) {
      sup_options.checkpoint_interval = options.checkpoint_interval;
    }
    // unique_ptr, not a stack value: crash-recovery mode destroys the
    // supervisor mid-run (the simulated kill -9) and replaces it with the
    // one SpannerSupervisor::recover() rebuilds from disk.
    auto supervisor = std::make_unique<SpannerSupervisor>(g, h0, sup_options);
    if (options.inject_repair_bug) supervisor->inject_repair_bug();

    std::optional<persist::DurabilityManager> durability;
    if (!options.persist_dir.empty()) {
      durability.emplace(options.persist_dir);
      supervisor->attach_durability(&*durability);
      // Genesis generation: the WAL needs a base checkpoint to replay
      // against before the first cadence-driven cut.
      supervisor->checkpoint_now();
    }

    // Live-oracle wiring: the supervisor publishes epochs into the store,
    // the engine serves from pinned snapshots under the strict policy
    // (shed at kRebuilding, certificate must be fresh) so every answer it
    // does serve is certifiable against its own epoch. A lambda because
    // crash-recovery mode tears the serving plane down with the supervisor
    // and re-wires it around the recovered one.
    std::optional<serve::SnapshotStore> store;
    std::optional<serve::QueryEngine> query_engine;
    const auto wire_serving = [&]() {
      if (options.qps == 0) return;
      serve::SpannerCertificate cert;
      cert.alpha = options.supervisor.health.alpha;
      cert.beta = options.supervisor.health.beta;
      store.emplace(g, supervisor->spanner(), cert);
      supervisor->attach_snapshots(&*store);
      serve::ServeOptions serve_options;
      serve_options.shed_at = SupervisorState::kRebuilding;
      serve_options.require_fresh_certificate = true;
      // Request tracing rides along: soak queries carry TraceContexts and
      // feed tail exemplars, so the concurrent-tracing machinery soaks
      // under churn too (and under the sanitizers in CI).
      serve_options.trace.exemplars = true;
      serve_options.dispatchers = options.dispatchers;
      query_engine.emplace(*store, serve_options);
      if (options.inject_stale_cache_bug) {
        query_engine->inject_stale_cache_bug();
      }
      // With several dispatchers the soak serves through submit() futures,
      // which need the dispatcher threads running. (The engine's destructor
      // stops them, so crash-recovery teardown needs no extra handling.)
      if (options.dispatchers > 1) query_engine->start();
    };
    // Serving stats accumulate per engine incarnation; fold them into the
    // result before an incarnation dies (crash) and at the end.
    const auto fold_serving = [&]() {
      if (!query_engine) return;
      const serve::ServeStats es = query_engine->stats();
      result.queries_served += es.served;
      result.queries_shed += es.shed_admission + es.shed_deadline +
                             es.shed_degraded + es.shed_shutdown;
      result.epochs_published += store->published();
      result.epochs_adopted += es.epochs_adopted;
    };
    wire_serving();

    bool crashed = false;
    for (std::size_t w = 0; w < options.waves; ++w) {
      // Graceful shutdown (SIGTERM/SIGINT in dcs_tool): stop at a wave
      // boundary with the result — and so the artifacts — intact.
      if (options.stop_flag != nullptr &&
          options.stop_flag->load(std::memory_order_relaxed)) {
        result.stopped_early = true;
        DCS_LOG(Info) << "stop flag set; ending soak after " << w
                      << " waves";
        break;
      }

      if (durability && !crashed && options.crash_at_wave > 0 &&
          w == options.crash_at_wave) {
        crashed = true;
        if (!run_crash_recovery(result, w, sup_options, *durability,
                                supervisor, store, query_engine,
                                wire_serving, fold_serving)) {
          result.waves_run = w;
          break;
        }
      }
      const obs::MetricsValueSnapshot wave_before = registry.value_snapshot();
      result.wave_metrics_wave = w;
      std::span<const FaultEvent> events =
          replay != nullptr ? replay->wave(w) : engine.advance();
      const std::size_t prev_debt = supervisor->repair_debt();
      const auto report = supervisor->step(events);
      // Per-wave counter deltas: recomputed every wave so the last one
      // standing describes the final (or violating) wave. The early-break
      // violation paths below leave the delta covering everything the wave
      // did before it died.
      const auto delta_here = [&] {
        result.wave_metrics_delta =
            obs::snapshot_delta(wave_before, registry.value_snapshot());
      };
      delta_here();

      result.waves_run = w + 1;
      result.max_debt = std::max(result.max_debt, report.debt);
      result.worst_state = std::max(result.worst_state, report.state);
      result.final_state = report.state;
      if (report.checked) ++result.recertifications;

      // Invariant: the ladder never bottoms out.
      if (report.state == SupervisorState::kLost) {
        flag(result, w, "supervisor-lost",
             "degradation ladder reached kLost: " + report.summary());
        break;
      }
      // Invariant: a recertification with no outstanding debt certifies α —
      // the repair engine's deterministic guarantee, observed end to end.
      if (report.checked && report.debt == 0 &&
          report.certificate != GuaranteeStatus::kHeld) {
        flag(result, w, "certificate-after-repair",
             "zero debt but certificate " +
                 std::string(to_string(report.certificate)) + ": " +
                 supervisor->last_check().summary());
        break;
      }
      // Invariant: debt only grows by this wave's endangered edges.
      if (report.debt > prev_debt + report.new_candidates) {
        std::ostringstream os;
        os << "debt " << prev_debt << " -> " << report.debt << " with only "
           << report.new_candidates << " new candidates";
        flag(result, w, "repair-debt-monotone", os.str());
        break;
      }

      if (options.traffic_interval > 0 &&
          (w + 1) % options.traffic_interval == 0) {
        const Graph g_surv = supervisor->fault_state().surviving(g);
        const std::uint64_t burst_seed =
            mix64(mix64(options.seed, kTrafficSalt), w);
        const Routing routing =
            burst_routing(g_surv, supervisor->spanner(), burst_seed);
        if (!routing.paths.empty()) {
          PacketSimOptions sim = options.sim;
          sim.seed = burst_seed + 1;
          const auto sr =
              simulate_store_and_forward(supervisor->spanner(), routing, sim);
          ++result.sims_run;
          result.packets_injected += routing.paths.size();
          result.packets_delivered += sr.delivered;
          result.packets_shed += sr.shed;
          result.max_queue = std::max(result.max_queue, sr.max_queue);

          // Invariant: no packet leaks — every injected packet is
          // delivered, shed, or accounted as in flight.
          const auto in_flight = sr.shed_for(PacketOutcome::kInFlight);
          if (sr.delivered + sr.shed + in_flight != routing.paths.size()) {
            std::ostringstream os;
            os << sr.delivered << " delivered + " << sr.shed << " shed + "
               << in_flight << " in flight != " << routing.paths.size()
               << " injected";
            flag(result, w, "packet-leak", os.str());
            delta_here();
            break;
          }
        }
      }

      // Closed-loop query traffic through the live oracle, checked answer
      // by answer against the published snapshot.
      if (query_engine) {
        const std::vector<serve::Query> batch =
            wave_queries(options.seed, w, options.qps, g.num_vertices());
        const serve::SnapshotRef snap = store->pin();
        // The soak loop is single-threaded, so no publish races this wave:
        // the dispatchers adopt exactly snap's epoch, and the answers
        // stay checkable against the pinned snapshot either way.
        std::vector<serve::QueryResult> answers;
        if (options.dispatchers > 1) {
          std::vector<std::future<serve::QueryResult>> futures;
          futures.reserve(batch.size());
          for (const serve::Query& q : batch) {
            futures.push_back(query_engine->submit(q));
          }
          answers.reserve(batch.size());
          for (auto& f : futures) answers.push_back(f.get());
        } else {
          answers = query_engine->serve_batch(batch);
        }
        result.queries_submitted += batch.size();
        ++result.query_batches;

        std::optional<std::string> fail;
        for (std::size_t i = 0; i < batch.size() && !fail; ++i) {
          fail = check_query_answer(*snap, batch[i], answers[i]);
        }
        if (!fail) {
          // Conservation across every epoch boundary so far: nothing
          // submitted may vanish without a served answer or a structured
          // shed (the synchronous path never sheds on admission/deadline).
          const serve::ServeStats es = query_engine->stats();
          const std::uint64_t shed = es.shed_admission + es.shed_deadline +
                                     es.shed_degraded + es.shed_shutdown;
          if (es.served + shed != es.queries) {
            std::ostringstream os;
            os << "conservation: " << es.served << " served + " << shed
               << " shed != " << es.queries << " submitted";
            fail = os.str();
          }
        }
        if (fail) {
          flag(result, w, "query-certified",
               "epoch " + std::to_string(snap->epoch) + ": " + *fail);
          delta_here();
          break;
        }
      }
      delta_here();
    }

    fold_serving();
    if (supervisor != nullptr) {
      // (nullptr only when a failed recovery ended the run: the counters
      // died with the process and the violation record tells the story.)
      result.repairs = supervisor->repairs();
      result.rebuilds = supervisor->rebuilds();
    }
    if (durability) {
      result.checkpoints_written = durability->checkpoints_written();
      result.final_generation = durability->generation();
    }
    result.schedule =
        replay != nullptr ? *replay : engine.history();
    if (replay == nullptr) {
      // Trim the archived schedule to the waves actually consumed, so the
      // replay timeline matches the run that produced it.
      std::erase_if(result.schedule.events, [&](const FaultEvent& e) {
        return e.wave >= result.waves_run;
      });
    }
    return result;
  }
};

}  // namespace

std::string SoakResult::summary() const {
  std::ostringstream os;
  os << waves_run << " waves, " << repairs << " repairs, " << rebuilds
     << " rebuilds, " << recertifications << " recerts, max debt "
     << max_debt << ", worst state " << to_string(worst_state);
  if (sims_run > 0) {
    os << "; traffic: " << sims_run << " bursts, " << packets_injected
       << " injected, " << packets_delivered << " delivered, "
       << packets_shed << " shed, max queue " << max_queue;
  }
  if (query_batches > 0) {
    os << "; queries: " << queries_submitted << " submitted, "
       << queries_served << " served, " << queries_shed << " shed, "
       << epochs_published << " epochs published, " << epochs_adopted
       << " adopted";
  }
  if (checkpoints_written > 0 || final_generation > 0) {
    os << "; durability: " << checkpoints_written
       << " checkpoints, generation " << final_generation;
  }
  if (crash_recovery_ran) {
    os << "; crash recovery: generation " << recovery_generation << ", "
       << recovery_wal_replayed << " wal waves replayed in "
       << recovery_seconds * 1e3 << " ms";
  }
  if (stopped_early) os << "; stopped early (shutdown requested)";
  if (ok()) {
    os << "; all invariants held";
  } else {
    os << "; VIOLATION at wave " << violations.front().wave << " ["
       << violations.front().invariant << "] " << violations.front().detail;
    if (minimized_available) {
      os << "; minimized to " << minimized.events.size() << " events ("
         << minimizer_evaluations << " evaluations"
         << (minimized_is_minimal ? ", 1-minimal" : "") << ")";
    }
  }
  return os.str();
}

SoakResult run_soak(const Graph& g, const Graph& h,
                    const SoakOptions& options) {
  SoakDriver driver{g, h, options};
  SoakResult result = driver.run();

  if (!result.ok() && options.minimize_on_violation &&
      !result.schedule.events.empty()) {
    DCS_LOG(Info) << "invariant [" << result.violations.front().invariant
                  << "] violated at wave " << result.violations.front().wave
                  << "; minimizing " << result.schedule.events.size()
                  << " events";
    const std::string& invariant = result.violations.front().invariant;
    SoakOptions replay_options = options;
    replay_options.waves = result.waves_run;
    replay_options.minimize_on_violation = false;
    replay_options.artifacts_dir.clear();
    const auto reproduces = [&](const FailureSchedule& candidate) {
      const auto r = replay_soak(g, h, candidate, replay_options);
      return !r.ok() && r.violations.front().invariant == invariant;
    };
    const auto minimized =
        minimize_schedule(result.schedule, reproduces, options.minimizer);
    result.minimized_available = true;
    result.minimized = minimized.schedule;
    result.minimizer_evaluations = minimized.evaluations;
    result.minimized_is_minimal = minimized.minimal;
  }

  if (!options.artifacts_dir.empty()) {
    write_soak_artifacts(options.artifacts_dir, result);
  }
  return result;
}

SoakResult replay_soak(const Graph& g, const Graph& h,
                       const FailureSchedule& schedule,
                       const SoakOptions& options) {
  SoakOptions replay_options = options;
  if (replay_options.waves < schedule.num_waves()) {
    replay_options.waves = schedule.num_waves();
  }
  SoakDriver driver{g, h, replay_options, &schedule};
  SoakResult result = driver.run();

  if (!result.ok() && options.minimize_on_violation &&
      !schedule.events.empty()) {
    const std::string& invariant = result.violations.front().invariant;
    SoakOptions inner = replay_options;
    inner.waves = result.waves_run;
    inner.minimize_on_violation = false;
    inner.artifacts_dir.clear();
    const auto reproduces = [&](const FailureSchedule& candidate) {
      const auto r = replay_soak(g, h, candidate, inner);
      return !r.ok() && r.violations.front().invariant == invariant;
    };
    const auto minimized =
        minimize_schedule(result.schedule, reproduces, options.minimizer);
    result.minimized_available = true;
    result.minimized = minimized.schedule;
    result.minimizer_evaluations = minimized.evaluations;
    result.minimized_is_minimal = minimized.minimal;
  }

  if (!options.artifacts_dir.empty()) {
    write_soak_artifacts(options.artifacts_dir, result);
  }
  return result;
}

void write_soak_artifacts(const std::string& dir, const SoakResult& result) {
  namespace fs = std::filesystem;
  fs::create_directories(dir);

  // Artifacts are rendered in memory and published with the persist
  // layer's temp → fsync → rename discipline: CI greps these files, and a
  // crash (or kill) mid-dump must leave either the previous artifact or
  // none — never a truncated JSON that parses as something else.
  const auto write_text = [&](const std::string& name, const auto& fn) {
    const std::string path = (fs::path(dir) / name).string();
    std::ostringstream os;
    fn(os);
    std::string err;
    DCS_REQUIRE(persist::atomic_write_file(path, os.str(), &err),
                "artifact write failed: " + path + " (" + err + ")");
  };

  write_text("schedule.txt", [&](std::ostream& os) {
    os << "# full soak schedule — replay with: dcs_tool soak ... "
          "--replay=schedule.txt\n";
    write_schedule(os, result.schedule);
  });
  if (result.minimized_available) {
    write_text("minimized.txt", [&](std::ostream& os) {
      os << "# minimal reproducer (" << result.minimized.events.size()
         << " events) for invariant ["
         << (result.violations.empty() ? "?"
                                       : result.violations.front().invariant)
         << "]\n";
      write_schedule(os, result.minimized);
    });
  }
  write_text("soak.json", [&](std::ostream& os) {
    os << "{\n  \"waves_run\": " << result.waves_run
       << ",\n  \"ok\": " << (result.ok() ? "true" : "false")
       << ",\n  \"repairs\": " << result.repairs
       << ",\n  \"rebuilds\": " << result.rebuilds
       << ",\n  \"recertifications\": " << result.recertifications
       << ",\n  \"max_debt\": " << result.max_debt << ",\n  \"worst_state\": "
       << obs::json_quote(to_string(result.worst_state))
       << ",\n  \"final_state\": "
       << obs::json_quote(to_string(result.final_state))
       << ",\n  \"traffic\": {\"bursts\": " << result.sims_run
       << ", \"injected\": " << result.packets_injected
       << ", \"delivered\": " << result.packets_delivered
       << ", \"shed\": " << result.packets_shed
       << ", \"max_queue\": " << result.max_queue << "}"
       << ",\n  \"queries\": {\"batches\": " << result.query_batches
       << ", \"submitted\": " << result.queries_submitted
       << ", \"served\": " << result.queries_served
       << ", \"shed\": " << result.queries_shed
       << ", \"epochs_published\": " << result.epochs_published
       << ", \"epochs_adopted\": " << result.epochs_adopted << "}"
       << ",\n  \"durability\": {\"checkpoints_written\": "
       << result.checkpoints_written
       << ", \"final_generation\": " << result.final_generation
       << ", \"crash_recovery_ran\": "
       << (result.crash_recovery_ran ? "true" : "false")
       << ", \"recovery_generation\": " << result.recovery_generation
       << ", \"recovery_wal_replayed\": " << result.recovery_wal_replayed
       << ", \"recovery_ms\": " << result.recovery_seconds * 1e3 << "}"
       << ",\n  \"stopped_early\": "
       << (result.stopped_early ? "true" : "false")
       << ",\n  \"schedule_events\": " << result.schedule.events.size();
    // Per-wave counter deltas (not cumulative totals): what moved during
    // the last executed wave — the violating one when the run died.
    os << ",\n  \"wave_metrics\": {\"wave\": " << result.wave_metrics_wave
       << ", \"delta\": " << obs::to_json(result.wave_metrics_delta) << "}";
    os << ",\n  \"violations\": [";
    for (std::size_t i = 0; i < result.violations.size(); ++i) {
      const auto& v = result.violations[i];
      os << (i == 0 ? "" : ", ") << "{\"wave\": " << v.wave
         << ", \"invariant\": " << obs::json_quote(v.invariant)
         << ", \"detail\": " << obs::json_quote(v.detail) << "}";
    }
    os << "]";
    if (result.minimized_available) {
      os << ",\n  \"minimized\": {\"events\": "
         << result.minimized.events.size()
         << ", \"evaluations\": " << result.minimizer_evaluations
         << ", \"minimal\": "
         << (result.minimized_is_minimal ? "true" : "false") << "}";
    }
    os << "\n}\n";
  });

  // The flight recorder is a first-class soak artifact next to
  // minimized.txt: on a violation its tail holds the epoch-publish / shed /
  // invariant event sequence that causally explains it. Dumped on clean
  // runs too — "what did the last waves do" is a question for those as
  // well.
  const std::string flight_path = (fs::path(dir) / "flight.json").string();
  std::string flight_err;
  DCS_REQUIRE(
      persist::atomic_write_file(
          flight_path, obs::FlightRecorder::instance().to_json(),
          &flight_err),
      "cannot write flight recorder artifact: " + flight_path + " (" +
          flight_err + ")");
}

}  // namespace dcs
