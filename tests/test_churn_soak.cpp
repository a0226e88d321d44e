#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/regular_spanner.hpp"
#include "persist/durability.hpp"
#include "graph/generators.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/json.hpp"
#include "resilience/churn_engine.hpp"
#include "resilience/minimizer.hpp"
#include "resilience/soak.hpp"
#include "resilience/supervisor.hpp"
#include "serve/snapshot.hpp"

namespace dcs {
namespace {

Graph test_network(std::uint64_t seed = 3) {
  return random_regular(60, 12, seed);
}

// ---------------------------------------------------------------- ChurnEngine

TEST(ChurnEngine, DeterministicStream) {
  const Graph g = test_network();
  ChurnEngineOptions o;
  o.seed = 7;
  o.edge_churn_rate = 0.05;
  o.vertex_churn_rate = 0.02;
  o.recovery_rate = 0.3;
  o.flap_probability = 0.4;
  ChurnEngine a(g, o);
  ChurnEngine b(g, o);
  for (int w = 0; w < 50; ++w) {
    const auto ea = a.advance();
    const auto eb = b.advance();
    ASSERT_EQ(std::vector<FaultEvent>(ea.begin(), ea.end()),
              std::vector<FaultEvent>(eb.begin(), eb.end()))
        << "wave " << w;
  }
  EXPECT_EQ(a.history(), b.history());

  ChurnEngineOptions other = o;
  other.seed = 8;
  ChurnEngine c(g, other);
  bool diverged = false;
  for (int w = 0; w < 50 && !diverged; ++w) c.advance();
  diverged = !(c.history() == a.history());
  EXPECT_TRUE(diverged);
}

TEST(ChurnEngine, HistoryReplaysToTheSameState) {
  const Graph g = test_network();
  ChurnEngineOptions o;
  o.seed = 11;
  o.edge_churn_rate = 0.08;
  o.vertex_churn_rate = 0.03;
  o.recovery_rate = 0.25;
  o.flap_probability = 0.3;
  o.flap_duration = 2;
  ChurnEngine engine(g, o);
  for (int w = 0; w < 60; ++w) engine.advance();

  FaultState replayed(g.num_vertices());
  for (std::size_t w = 0; w < engine.history().num_waves(); ++w) {
    replayed.apply(engine.history().wave(w));
  }
  EXPECT_EQ(replayed.surviving(g), engine.fault_state().surviving(g));
  EXPECT_EQ(replayed.failed_vertices(),
            engine.fault_state().failed_vertices());
  EXPECT_EQ(replayed.failed_edges(), engine.fault_state().failed_edges());
}

TEST(ChurnEngine, QuietWhenRatesAreZero) {
  const Graph g = test_network();
  ChurnEngine engine(g, {.seed = 1});
  for (int w = 0; w < 10; ++w) {
    EXPECT_TRUE(engine.advance().empty());
  }
  EXPECT_TRUE(engine.fault_state().clean());
  EXPECT_TRUE(engine.history().events.empty());
}

TEST(ChurnEngine, LiveFractionGuardrailHolds) {
  // Maximum churn, no recovery: without the guardrail the whole graph
  // would be dead within a couple of waves.
  const Graph g = test_network();
  ChurnEngineOptions o;
  o.seed = 5;
  o.vertex_churn_rate = 1.0;
  o.edge_churn_rate = 1.0;
  o.recovery_rate = 0.0;
  o.min_live_fraction = 0.5;
  ChurnEngine engine(g, o);
  for (int w = 0; w < 20; ++w) engine.advance();
  const std::size_t n = g.num_vertices();
  std::size_t alive = 0;
  for (Vertex v = 0; v < n; ++v) {
    if (engine.fault_state().vertex_alive(v)) ++alive;
  }
  EXPECT_GE(alive, n / 2);
}

TEST(ChurnEngine, FlappedElementsComeBack) {
  const Graph g = test_network();
  ChurnEngineOptions o;
  o.seed = 13;
  o.edge_churn_rate = 0.05;
  o.vertex_churn_rate = 0.02;
  o.flap_probability = 1.0;  // every crash is transient
  o.flap_duration = 1;
  ChurnEngine engine(g, o);
  const int waves = 40;
  for (int w = 0; w < waves; ++w) engine.advance();

  // Every crash before the tail has its recovery exactly flap_duration
  // waves later.
  const auto& events = engine.history().events;
  for (const FaultEvent& e : events) {
    if (e.kind != FaultKind::kVertexDown && e.kind != FaultKind::kEdgeDown) {
      continue;
    }
    if (e.wave + o.flap_duration >= static_cast<std::size_t>(waves)) continue;
    FaultEvent up = e;
    up.wave = e.wave + o.flap_duration;
    up.kind = e.kind == FaultKind::kVertexDown ? FaultKind::kVertexUp
                                               : FaultKind::kEdgeUp;
    EXPECT_NE(std::find(events.begin(), events.end(), up), events.end())
        << "no recovery for crash at wave " << e.wave;
  }
}

TEST(ChurnEngine, AdversarialModeTargetsTheHottestVertex) {
  const Graph g = complete_graph(10);
  ChurnEngineOptions o;
  o.seed = 17;
  o.vertex_churn_rate = 0.15;  // one targeted crash per wave
  ChurnEngine engine(g, o);
  std::vector<std::size_t> loads(10, 1);
  loads[4] = 100;
  engine.set_load_profile(loads);
  engine.advance();
  const auto& events = engine.history().events;
  auto it = std::find_if(events.begin(), events.end(), [](const FaultEvent& e) {
    return e.kind == FaultKind::kVertexDown;
  });
  ASSERT_NE(it, events.end());
  EXPECT_EQ(it->u, 4u);
}

// ----------------------------------------------------------- SpannerSupervisor

TEST(SpannerSupervisor, QuietWavesStayHealthy) {
  const Graph g = test_network();
  const auto built = build_regular_spanner(g, {.seed = 5});
  SpannerSupervisor sup(g, built.spanner.h);
  for (int w = 0; w < 3; ++w) {
    const auto report = sup.step({});
    EXPECT_EQ(report.state, SupervisorState::kHealthy);
    EXPECT_EQ(report.certificate, GuaranteeStatus::kHeld);
    EXPECT_FALSE(report.repaired);
    EXPECT_EQ(report.debt, 0u);
  }
  EXPECT_EQ(sup.repairs(), 0u);
}

TEST(SpannerSupervisor, RepairsACrashedSpannerEdgeAndClimbsBack) {
  const Graph g = test_network();
  const auto built = build_regular_spanner(g, {.seed = 5});
  SpannerSupervisor sup(g, built.spanner.h);

  const Edge victim = built.spanner.h.edges().front();
  const FaultEvent crash[] = {FaultEvent::edge_down(0, victim)};
  const auto report = sup.step(crash);
  EXPECT_EQ(report.state, SupervisorState::kRepairing);
  EXPECT_TRUE(report.repaired);
  EXPECT_TRUE(report.checked);  // a repair wave always recertifies
  EXPECT_EQ(report.certificate, GuaranteeStatus::kHeld);
  EXPECT_FALSE(sup.spanner().has_edge(victim.u, victim.v));

  const auto quiet = sup.step({});
  EXPECT_EQ(quiet.state, SupervisorState::kHealthy);
}

TEST(SpannerSupervisor, BudgetedRepairCarriesExplicitDebt) {
  const Graph g = test_network();
  const auto built = build_regular_spanner(g, {.seed = 5});
  SupervisorOptions o;
  o.repair_budget = 1;
  SpannerSupervisor sup(g, built.spanner.h, o);

  std::vector<FaultEvent> crashes;
  const auto h_edges = built.spanner.h.edges();
  for (std::size_t i = 0; i < 5; ++i) {
    crashes.push_back(FaultEvent::edge_down(0, h_edges[i * 7]));
  }
  auto report = sup.step(crashes);
  ASSERT_GT(report.debt, 0u);
  EXPECT_EQ(report.state, SupervisorState::kRepairing);
  EXPECT_EQ(report.repaired_candidates, 1u);

  // Quiet waves pay the debt down one edge at a time and the ladder climbs
  // back to healthy.
  std::size_t prev = report.debt;
  for (int w = 0; w < 400 && sup.repair_debt() > 0; ++w) {
    report = sup.step({});
    EXPECT_LE(report.debt, prev);
    prev = report.debt;
  }
  EXPECT_EQ(sup.repair_debt(), 0u);
  sup.step({});
  const auto final_report = sup.step({});
  EXPECT_EQ(final_report.state, SupervisorState::kHealthy);
  EXPECT_EQ(final_report.certificate, GuaranteeStatus::kHeld);
}

TEST(SpannerSupervisor, DebtCeilingTriggersDebouncedRebuild) {
  const Graph g = test_network();
  const auto built = build_regular_spanner(g, {.seed = 5});
  SupervisorOptions o;
  o.rebuild_debt = 1;
  o.rebuild_debounce = 8;
  SpannerSupervisor sup(g, built.spanner.h, o);

  const auto h_edges = built.spanner.h.edges();
  std::vector<FaultEvent> crashes;
  for (std::size_t i = 0; i < 6; ++i) {
    crashes.push_back(FaultEvent::edge_down(0, h_edges[i * 5]));
  }
  const auto report = sup.step(crashes);
  EXPECT_EQ(report.repair, RepairOutcome::kRebuilt);
  EXPECT_EQ(report.state, SupervisorState::kRebuilding);
  EXPECT_EQ(report.debt, 0u);
  EXPECT_EQ(sup.rebuilds(), 1u);

  // Another burst inside the debounce window must NOT rebuild again.
  std::vector<FaultEvent> more;
  const auto h2_edges = sup.spanner().edges();
  for (std::size_t i = 0; i < 6 && i * 5 < h2_edges.size(); ++i) {
    more.push_back(FaultEvent::edge_down(1, h2_edges[i * 5]));
  }
  const auto second = sup.step(more);
  EXPECT_NE(second.repair, RepairOutcome::kRebuilt);
  EXPECT_EQ(sup.rebuilds(), 1u);
}

TEST(SpannerSupervisor, RejectsNonSubgraphSpanner) {
  const Graph g = cycle_graph(6);
  EXPECT_THROW(SpannerSupervisor(g, complete_graph(6)),
               std::invalid_argument);
}

// ------------------------------------------------- supervisor → snapshot store

TEST(SpannerSupervisor, AttachingSnapshotsPublishesTheCurrentView) {
  const Graph g = test_network();
  const auto built = build_regular_spanner(g, {.seed = 5});
  SpannerSupervisor sup(g, built.spanner.h);
  serve::SnapshotStore store(g, built.spanner.h);  // seeds its own epoch 1

  sup.attach_snapshots(&store);  // publishes immediately → epoch 2
  EXPECT_EQ(store.current_epoch(), 2u);
  const auto snap = store.pin();
  EXPECT_EQ(snap->spanner, built.spanner.h);
  EXPECT_EQ(snap->graph, g);
  EXPECT_EQ(snap->certificate.status, GuaranteeStatus::kHeld);
  EXPECT_EQ(snap->certificate.ladder, SupervisorState::kHealthy);
  EXPECT_TRUE(snap->certificate.fresh);
  EXPECT_DOUBLE_EQ(snap->certificate.alpha, 3.0);

  // Quiet waves change nothing serving-visible: no new epoch.
  const auto quiet = sup.step({});
  EXPECT_EQ(quiet.epoch, 0u);
  EXPECT_EQ(store.current_epoch(), 2u);
}

TEST(SpannerSupervisor, ChurnWavesPublishFreshRecertifiedEpochs) {
  const Graph g = test_network();
  const auto built = build_regular_spanner(g, {.seed = 5});
  SpannerSupervisor sup(g, built.spanner.h);
  serve::SnapshotStore store(g, built.spanner.h);
  sup.attach_snapshots(&store);

  const Edge victim = built.spanner.h.edges().front();
  const FaultEvent crash[] = {FaultEvent::edge_down(0, victim)};
  const auto report = sup.step(crash);
  EXPECT_EQ(report.epoch, 3u);  // store seed + attach + this wave
  EXPECT_EQ(store.current_epoch(), 3u);

  const auto snap = store.pin();
  // The published view is the post-maintenance one, and the certificate
  // was re-measured against it this same wave — so it is fresh.
  EXPECT_EQ(snap->spanner, sup.spanner());
  EXPECT_FALSE(snap->graph.has_edge(victim.u, victim.v));
  EXPECT_TRUE(snap->certificate.fresh);
  EXPECT_EQ(snap->certificate.ladder, SupervisorState::kRepairing);
  EXPECT_EQ(snap->certificate.status, GuaranteeStatus::kHeld);
}

TEST(SpannerSupervisor, DeferredRecertificationPublishesStaleCertificates) {
  const Graph g = test_network();
  const auto built = build_regular_spanner(g, {.seed = 5});
  SupervisorOptions o;
  o.recheck_interval = 100;   // no periodic recheck inside this test
  o.min_repair_batch = 100;   // repair hysteresis holds every repair back
  o.max_defer_waves = 100;
  SpannerSupervisor sup(g, built.spanner.h, o);
  serve::SnapshotStore store(g, built.spanner.h);
  sup.attach_snapshots(&store);

  const Edge victim = built.spanner.h.edges().front();
  const FaultEvent crash[] = {FaultEvent::edge_down(0, victim)};
  const auto report = sup.step(crash);
  ASSERT_NE(report.epoch, 0u);  // events landed → the wave published
  EXPECT_FALSE(report.checked);
  const auto snap = store.pin();
  // Topology moved but recertification was deferred: the published
  // certificate no longer describes the published topology. A strict
  // serving policy (require_fresh_certificate) sheds on exactly this.
  EXPECT_FALSE(snap->certificate.fresh);
  EXPECT_EQ(snap->certificate.ladder, SupervisorState::kRepairing);
}

// ------------------------------------------------------------------ Minimizer

TEST(Minimizer, ShrinksToTheFailureCore) {
  // 30 events, but only the pair {u=3, u=17} triggers the "bug".
  FailureSchedule s;
  for (std::size_t w = 0; w < 30; ++w) {
    s.events.push_back(FaultEvent::vertex_down(w, static_cast<Vertex>(w)));
  }
  const auto reproduces = [](const FailureSchedule& c) {
    bool three = false, seventeen = false;
    for (const auto& e : c.events) {
      three |= e.u == 3;
      seventeen |= e.u == 17;
    }
    return three && seventeen;
  };
  const auto result = minimize_schedule(s, reproduces);
  EXPECT_EQ(result.initial_events, 30u);
  ASSERT_EQ(result.schedule.events.size(), 2u);
  EXPECT_EQ(result.schedule.events[0].u, 3u);
  EXPECT_EQ(result.schedule.events[1].u, 17u);
  EXPECT_TRUE(result.minimal);
  EXPECT_TRUE(reproduces(result.schedule));
}

TEST(Minimizer, SingleEventCoreIsFound) {
  FailureSchedule s;
  for (std::size_t w = 0; w < 16; ++w) {
    s.events.push_back(FaultEvent::edge_down(w, {0, static_cast<Vertex>(w + 1)}));
  }
  const auto reproduces = [](const FailureSchedule& c) {
    for (const auto& e : c.events) {
      if (e.v == 9) return true;
    }
    return false;
  };
  const auto result = minimize_schedule(s, reproduces);
  ASSERT_EQ(result.schedule.events.size(), 1u);
  EXPECT_EQ(result.schedule.events[0].v, 9u);
  EXPECT_TRUE(result.minimal);
}

TEST(Minimizer, RequiresAReproducingInput) {
  FailureSchedule s;
  s.events.push_back(FaultEvent::vertex_down(0, 1));
  EXPECT_THROW(
      minimize_schedule(s, [](const FailureSchedule&) { return false; }),
      std::invalid_argument);
}

TEST(Minimizer, RespectsTheEvaluationBudget) {
  FailureSchedule s;
  for (std::size_t w = 0; w < 64; ++w) {
    s.events.push_back(FaultEvent::vertex_down(w, static_cast<Vertex>(w)));
  }
  const auto reproduces = [](const FailureSchedule& c) {
    bool a = false, b = false;
    for (const auto& e : c.events) {
      a |= e.u == 5;
      b |= e.u == 60;
    }
    return a && b;
  };
  MinimizerOptions o;
  o.max_evaluations = 4;
  const auto result = minimize_schedule(s, reproduces, o);
  EXPECT_LE(result.evaluations, 5u);  // initial check + budget
  EXPECT_FALSE(result.minimal);
  EXPECT_TRUE(reproduces(result.schedule));  // best-so-far still fails
}

// ----------------------------------------------------------------------- Soak

SoakOptions small_soak_options() {
  SoakOptions o;
  o.seed = 29;
  o.waves = 60;
  o.churn.edge_churn_rate = 0.05;
  o.churn.vertex_churn_rate = 0.01;
  o.churn.recovery_rate = 0.3;
  o.churn.flap_probability = 0.25;
  o.churn.flap_duration = 2;
  o.traffic_interval = 10;
  return o;
}

TEST(Soak, QuietRunStaysHealthyAndRoutesTraffic) {
  const Graph g = test_network();
  const auto built = build_regular_spanner(g, {.seed = 5});
  SoakOptions o;
  o.waves = 20;
  o.traffic_interval = 5;
  const auto result = run_soak(g, built.spanner.h, o);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.waves_run, 20u);
  EXPECT_EQ(result.repairs, 0u);
  EXPECT_EQ(result.final_state, SupervisorState::kHealthy);
  EXPECT_GT(result.packets_injected, 0u);
  EXPECT_EQ(result.packets_delivered, result.packets_injected);
}

TEST(Soak, ChurnRunHoldsInvariantsDeterministically) {
  const Graph g = test_network();
  const auto built = build_regular_spanner(g, {.seed = 5});
  const auto o = small_soak_options();
  const auto a = run_soak(g, built.spanner.h, o);
  EXPECT_TRUE(a.ok()) << a.summary();
  EXPECT_GT(a.repairs, 0u);
  EXPECT_NE(a.worst_state, SupervisorState::kLost);

  const auto b = run_soak(g, built.spanner.h, o);
  EXPECT_EQ(a.schedule, b.schedule);
  EXPECT_EQ(a.summary(), b.summary());

  SoakOptions ro = o;
  ro.waves = a.waves_run;
  const auto replayed = replay_soak(g, built.spanner.h, a.schedule, ro);
  EXPECT_TRUE(replayed.ok());
  EXPECT_EQ(replayed.repairs, a.repairs);
  EXPECT_EQ(replayed.packets_delivered, a.packets_delivered);
}

TEST(Soak, CatchesTheInjectedRepairBugAndMinimizes) {
  const Graph g = test_network();
  const auto built = build_regular_spanner(g, {.seed = 5});
  auto o = small_soak_options();
  o.inject_repair_bug = true;
  const auto caught = run_soak(g, built.spanner.h, o);
  ASSERT_FALSE(caught.ok());
  EXPECT_EQ(caught.violations.front().invariant, "certificate-after-repair");
  ASSERT_TRUE(caught.minimized_available);
  EXPECT_LE(caught.minimized.events.size(), 10u);
  EXPECT_GT(caught.minimizer_evaluations, 0u);

  // The minimal schedule reproduces the same violation, deterministically.
  SoakOptions rep = o;
  rep.waves = caught.waves_run;
  rep.minimize_on_violation = false;
  for (int i = 0; i < 2; ++i) {
    const auto again = replay_soak(g, built.spanner.h, caught.minimized, rep);
    ASSERT_FALSE(again.ok());
    EXPECT_EQ(again.violations.front().invariant,
              caught.violations.front().invariant);
  }
}

TEST(Soak, QueriesFlowDuringChurnAndStayCertified) {
  const Graph g = test_network();
  const auto built = build_regular_spanner(g, {.seed = 5});
  auto o = small_soak_options();
  o.qps = 8;
  const auto a = run_soak(g, built.spanner.h, o);
  EXPECT_TRUE(a.ok()) << a.summary();
  EXPECT_EQ(a.query_batches, a.waves_run);
  EXPECT_EQ(a.queries_submitted, a.waves_run * o.qps);
  // Conservation across every wave and epoch boundary.
  EXPECT_EQ(a.queries_served + a.queries_shed, a.queries_submitted);
  EXPECT_GT(a.queries_served, 0u);
  // Churn landed, so the supervisor published and the engine adopted.
  EXPECT_GT(a.epochs_published, 1u);
  EXPECT_GT(a.epochs_adopted, 1u);

  // The query plane is deterministic: same seed, same run.
  const auto b = run_soak(g, built.spanner.h, o);
  EXPECT_EQ(a.summary(), b.summary());
  EXPECT_EQ(a.queries_served, b.queries_served);

  // A replay of the recorded schedule serves the same traffic.
  SoakOptions ro = o;
  ro.waves = a.waves_run;
  const auto replayed = replay_soak(g, built.spanner.h, a.schedule, ro);
  EXPECT_TRUE(replayed.ok());
  EXPECT_EQ(replayed.queries_served, a.queries_served);
  EXPECT_EQ(replayed.queries_shed, a.queries_shed);
}

TEST(Soak, ShardedDispatchersServeChurnTrafficCertified) {
  const Graph g = test_network();
  const auto built = build_regular_spanner(g, {.seed = 5});
  auto o = small_soak_options();
  o.qps = 8;
  o.dispatchers = 4;  // waves flow through submit() futures
  const auto a = run_soak(g, built.spanner.h, o);
  EXPECT_TRUE(a.ok()) << a.summary();
  EXPECT_EQ(a.query_batches, a.waves_run);
  EXPECT_EQ(a.queries_submitted, a.waves_run * o.qps);
  EXPECT_EQ(a.queries_served + a.queries_shed, a.queries_submitted);
  EXPECT_GT(a.queries_served, 0u);
  EXPECT_GT(a.epochs_adopted, 1u);

  // Dispatcher count must not change what gets served: the invariant already
  // checked every answer against the pinned snapshot; the serve/shed
  // tallies must match the synchronous single-dispatcher run too.
  SoakOptions sync = o;
  sync.dispatchers = 1;
  const auto b = run_soak(g, built.spanner.h, sync);
  EXPECT_TRUE(b.ok()) << b.summary();
  EXPECT_EQ(a.queries_served, b.queries_served);
  EXPECT_EQ(a.queries_shed, b.queries_shed);
}

TEST(Soak, CatchesTheInjectedStaleCacheBugAndMinimizes) {
  const Graph g = test_network();
  const auto built = build_regular_spanner(g, {.seed = 5});
  auto o = small_soak_options();
  o.qps = 8;
  o.inject_stale_cache_bug = true;
  const auto caught = run_soak(g, built.spanner.h, o);
  ASSERT_FALSE(caught.ok());
  EXPECT_EQ(caught.violations.front().invariant, "query-certified");
  ASSERT_TRUE(caught.minimized_available);
  EXPECT_LE(caught.minimized.events.size(), 10u);
  EXPECT_GT(caught.minimizer_evaluations, 0u);

  // The minimal schedule reproduces the stale read, deterministically.
  SoakOptions rep = o;
  rep.waves = caught.waves_run;
  rep.minimize_on_violation = false;
  for (int i = 0; i < 2; ++i) {
    const auto again = replay_soak(g, built.spanner.h, caught.minimized, rep);
    ASSERT_FALSE(again.ok());
    EXPECT_EQ(again.violations.front().invariant, "query-certified");
  }
}

TEST(Soak, WritesArtifacts) {
  namespace fs = std::filesystem;
  const Graph g = test_network();
  const auto built = build_regular_spanner(g, {.seed = 5});
  const std::string dir = ::testing::TempDir() + "/dcs_soak_artifacts";
  fs::remove_all(dir);

  auto o = small_soak_options();
  o.waves = 30;
  o.inject_repair_bug = true;  // force a violation => minimized.txt too
  o.artifacts_dir = dir;
  const auto result = run_soak(g, built.spanner.h, o);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(fs::exists(dir + "/schedule.txt"));
  EXPECT_TRUE(fs::exists(dir + "/minimized.txt"));
  EXPECT_TRUE(fs::exists(dir + "/soak.json"));

  // The archived schedule parses back and replays to the same violation.
  std::ifstream is(dir + "/schedule.txt");
  const auto schedule = read_schedule(is);
  EXPECT_EQ(schedule, result.schedule);

  // The flight recorder's tail is a first-class artifact too.
  EXPECT_TRUE(fs::exists(dir + "/flight.json"));
}

TEST(Soak, RecordsPerWaveMetricsDeltas) {
  const Graph g = test_network();
  const auto built = build_regular_spanner(g, {.seed = 5});
  SoakOptions o;
  o.waves = 20;
  o.traffic_interval = 5;
  const auto result = run_soak(g, built.spanner.h, o);
  ASSERT_TRUE(result.ok());
  // The delta covers the last executed wave alone: exactly one supervisor
  // step moved the counters (metrics are force-enabled by the soak even
  // though this test never enabled them).
  EXPECT_EQ(result.wave_metrics_wave, result.waves_run - 1);
  bool found = false;
  for (const auto& [name, value] : result.wave_metrics_delta.counters) {
    if (name == "supervisor.waves") {
      found = true;
      EXPECT_EQ(value, 1u);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Soak, FlightRecorderTailCausallyExplainsTheViolation) {
  namespace fs = std::filesystem;
  obs::FlightRecorder::instance().set_enabled(true);
  obs::FlightRecorder::instance().clear();

  const Graph g = test_network();
  const auto built = build_regular_spanner(g, {.seed = 5});
  const std::string dir = ::testing::TempDir() + "/dcs_soak_flight";
  fs::remove_all(dir);

  auto o = small_soak_options();
  o.qps = 8;
  o.inject_stale_cache_bug = true;
  o.minimize_on_violation = false;  // artifacts only, keep the test fast
  o.artifacts_dir = dir;
  const auto caught = run_soak(g, built.spanner.h, o);
  ASSERT_FALSE(caught.ok());
  const auto& violation = caught.violations.front();
  EXPECT_EQ(violation.invariant, "query-certified");

  // soak.json carries the violating wave's metric deltas.
  std::ifstream soak_is(dir + "/soak.json");
  std::stringstream soak_buf;
  soak_buf << soak_is.rdbuf();
  const auto soak_json = obs::parse_json(soak_buf.str());
  ASSERT_TRUE(soak_json.has("wave_metrics"));
  EXPECT_EQ(soak_json.at("wave_metrics").at("wave").as_number(),
            static_cast<double>(violation.wave));
  EXPECT_FALSE(soak_json.at("wave_metrics")
                   .at("delta")
                   .at("counters")
                   .as_object()
                   .empty());

  // flight.json's event tail explains the violation causally: the epoch
  // publishes and adoptions that preceded the stale read, then the
  // invariant event itself, stamped with the violating wave.
  ASSERT_TRUE(fs::exists(dir + "/flight.json"));
  std::ifstream flight_is(dir + "/flight.json");
  std::stringstream flight_buf;
  flight_buf << flight_is.rdbuf();
  const auto flight = obs::parse_json(flight_buf.str());
  const auto& events = flight.at("flight").as_array();
  ASSERT_FALSE(events.empty());

  bool saw_publish = false;
  bool saw_adopt = false;
  std::ptrdiff_t last_invariant = -1;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& kind = events[i].at("kind").as_string();
    if (kind == "invariant") last_invariant = static_cast<std::ptrdiff_t>(i);
    if (last_invariant < 0) {
      saw_publish |= kind == "epoch-publish";
      saw_adopt |= kind == "epoch-adopt";
    }
  }
  ASSERT_GE(last_invariant, 0);
  EXPECT_TRUE(saw_publish);
  EXPECT_TRUE(saw_adopt);
  const auto& inv = events[static_cast<std::size_t>(last_invariant)];
  EXPECT_EQ(inv.at("detail").as_string(), "query-certified");
  EXPECT_EQ(inv.at("a").as_number(), static_cast<double>(violation.wave));
}

// -------------------------------------------------- crash-recovery mode

TEST(Soak, CrashRecoveryInvariantHoldsAcrossAKillMidRun) {
  const Graph g = test_network();
  const auto built = build_regular_spanner(g, {.seed = 5});
  namespace fs = std::filesystem;
  const std::string dir = ::testing::TempDir() + "/dcs_soak_crash";
  fs::remove_all(dir);

  auto o = small_soak_options();
  o.qps = 8;
  o.persist_dir = dir;
  o.checkpoint_interval = 8;
  o.crash_at_wave = 30;
  const auto result = run_soak(g, built.spanner.h, o);
  EXPECT_TRUE(result.ok()) << (result.violations.empty()
                                   ? ""
                                   : result.violations.front().detail);
  EXPECT_TRUE(result.crash_recovery_ran);
  EXPECT_GT(result.checkpoints_written, 0u);
  EXPECT_GT(result.recovery_generation, 0u);
  EXPECT_GT(result.recovery_seconds, 0.0);
  // The soak continued past the crash: recovery is a detour, not an end.
  EXPECT_EQ(result.waves_run, o.waves);
  EXPECT_EQ(result.final_generation,
            persist::DurabilityManager(dir).generation());
}

TEST(Soak, CrashRecoveryIsDeterministicAcrossReplays) {
  // The recovery-certified invariant asserts recovered state == pre-crash
  // state inside one run; this asserts the *whole run* (including the
  // crash/recover detour) is reproducible from its seed, which the
  // minimizer relies on.
  const Graph g = test_network();
  const auto built = build_regular_spanner(g, {.seed = 5});
  auto o = small_soak_options();
  o.qps = 4;
  o.checkpoint_interval = 8;
  o.crash_at_wave = 20;
  o.waves = 40;

  namespace fs = std::filesystem;
  const std::string dir_a = ::testing::TempDir() + "/dcs_soak_det_a";
  const std::string dir_b = ::testing::TempDir() + "/dcs_soak_det_b";
  fs::remove_all(dir_a);
  fs::remove_all(dir_b);
  o.persist_dir = dir_a;
  const auto a = run_soak(g, built.spanner.h, o);
  o.persist_dir = dir_b;
  const auto b = run_soak(g, built.spanner.h, o);
  EXPECT_TRUE(a.ok());
  EXPECT_TRUE(b.ok());
  EXPECT_EQ(a.waves_run, b.waves_run);
  EXPECT_EQ(a.repairs, b.repairs);
  EXPECT_EQ(a.recovery_generation, b.recovery_generation);
  EXPECT_EQ(a.recovery_wal_replayed, b.recovery_wal_replayed);
  EXPECT_EQ(a.queries_served, b.queries_served);
  EXPECT_EQ(a.schedule.events.size(), b.schedule.events.size());
}

TEST(Soak, StopFlagEndsTheRunEarlyWithoutViolations) {
  const Graph g = test_network();
  const auto built = build_regular_spanner(g, {.seed = 5});
  auto o = small_soak_options();
  const std::atomic<bool> stop{true};  // already requested: stop at wave 0
  o.stop_flag = &stop;
  const auto result = run_soak(g, built.spanner.h, o);
  EXPECT_TRUE(result.ok());
  EXPECT_TRUE(result.stopped_early);
  EXPECT_EQ(result.waves_run, 0u);
}

}  // namespace
}  // namespace dcs
