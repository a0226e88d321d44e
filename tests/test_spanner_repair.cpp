#include <gtest/gtest.h>

#include <utility>

#include "core/regular_spanner.hpp"
#include "core/verifier.hpp"
#include "graph/generators.hpp"
#include "resilience/failure_injector.hpp"
#include "resilience/fault_state.hpp"
#include "resilience/health_monitor.hpp"
#include "resilience/spanner_repair.hpp"

namespace dcs {
namespace {

struct Faulted {
  Graph g;
  Graph h;
  FaultState state;
  FailureSchedule schedule;
};

Faulted make_faulted(std::size_t n, std::size_t delta, double edge_fraction,
                     std::size_t vertex_faults, std::uint64_t seed) {
  const Graph g = random_regular(n, delta, seed);
  RegularSpannerOptions build;
  build.seed = seed + 1;
  const auto built = build_regular_spanner(g, build);
  FailureInjectorOptions fo;
  fo.seed = seed + 2;
  fo.edge_fault_fraction = edge_fraction;
  fo.vertex_faults_per_wave = vertex_faults;
  const auto schedule = FailureInjector(g, fo).generate();
  FaultState state(n);
  state.apply(schedule.events);
  return {g, built.spanner.h, std::move(state), schedule};
}

// ------------------------------------------------------------- repair_spanner

TEST(SpannerRepair, NoFaultsIsANoop) {
  const Graph g = random_regular(64, 16, 3);
  const auto built = build_regular_spanner(g, {});
  const auto result = repair_spanner_after(g, built.spanner.h, FaultState(64),
                                           {}, {});
  EXPECT_EQ(result.outcome, RepairOutcome::kNoop);
  EXPECT_EQ(result.h, built.spanner.h);
  EXPECT_EQ(result.candidate_edges, 0u);
}

// Crashing every H-edge incident to `u` leaves u alive in G∖F but isolated
// in H∖F, so each of its surviving G-edges provably loses its coverage —
// deliberate damage that forces an actual patch.
Faulted isolate_in_spanner(std::size_t n, std::size_t delta, Vertex u,
                           std::uint64_t seed) {
  const Graph g = random_regular(n, delta, seed);
  RegularSpannerOptions build;
  build.seed = seed + 1;
  const auto built = build_regular_spanner(g, build);
  FailureSchedule schedule;
  for (Vertex v : built.spanner.h.neighbors(u)) {
    schedule.events.push_back(FaultEvent::edge_down(0, Edge{u, v}));
  }
  FaultState state(n);
  state.apply(schedule.events);
  return {g, built.spanner.h, std::move(state), std::move(schedule)};
}

TEST(SpannerRepair, DetourPatchRestoresTheStretchBound) {
  auto f = isolate_in_spanner(126, 26, 5, 7);
  const Graph g_surv = f.state.surviving(f.g);
  const Graph h_surv = f.state.surviving(f.h);
  ASSERT_FALSE(measure_distance_stretch(g_surv, h_surv).satisfies(3.0));

  SpannerRepairOptions o;
  o.seed = 9;
  const auto result = repair_spanner_after(f.g, f.h, f.state,
                                           f.schedule.events, o);
  EXPECT_EQ(result.outcome, RepairOutcome::kPatched);
  EXPECT_TRUE(g_surv.contains_subgraph(result.h));
  EXPECT_TRUE(measure_distance_stretch(g_surv, result.h).satisfies(3.0))
      << "candidates " << result.candidate_edges << " reinserted "
      << result.reinserted_edges;
  // the patch examined a local neighborhood, not the whole graph
  EXPECT_LT(result.candidate_edges, g_surv.num_edges());
}

TEST(SpannerRepair, RepairHandlesVertexCrashes) {
  auto f = make_faulted(126, 26, 0.05, 4, 11);
  const auto result = repair_spanner_after(f.g, f.h, f.state,
                                           f.schedule.events, {});
  const Graph g_surv = f.state.surviving(f.g);
  EXPECT_TRUE(measure_distance_stretch(g_surv, result.h).satisfies(3.0));
}

TEST(SpannerRepair, MatchingPatchRestoresTheStretchBound) {
  auto f = isolate_in_spanner(126, 26, 11, 13);
  SpannerRepairOptions o;
  o.seed = 15;
  o.strategy = RepairStrategy::kMatchingPatch;
  const auto result = repair_spanner_after(f.g, f.h, f.state,
                                           f.schedule.events, o);
  EXPECT_EQ(result.outcome, RepairOutcome::kPatched);
  const Graph g_surv = f.state.surviving(f.g);
  EXPECT_TRUE(g_surv.contains_subgraph(result.h));
  EXPECT_TRUE(measure_distance_stretch(g_surv, result.h).satisfies(3.0));
}

TEST(SpannerRepair, TenPercentEdgeFaultsNeverDegradeTheResult) {
  // Acceptance-criterion shape: ≥ 10% random edge faults on a Theorem-3
  // spanner. The spanner's detour redundancy often survives this outright
  // (outcome noop); whatever the outcome, the result must satisfy α = 3.
  auto f = make_faulted(126, 26, 0.10, 0, 7);
  SpannerRepairOptions o;
  o.seed = 9;
  const auto result = repair_spanner_after(f.g, f.h, f.state,
                                           f.schedule.events, o);
  const Graph g_surv = f.state.surviving(f.g);
  EXPECT_TRUE(g_surv.contains_subgraph(result.h));
  EXPECT_TRUE(measure_distance_stretch(g_surv, result.h).satisfies(3.0));
  EXPECT_NE(result.outcome, RepairOutcome::kRebuilt);
}

TEST(SpannerRepair, PropertyRandomFaultsAcrossSeeds) {
  // k random faults + repair ⇒ stretch ≤ 3 on the survivors, per seed.
  for (std::uint64_t seed : {21, 22, 23, 24}) {
    auto f = make_faulted(100, 22, 0.08, 2, seed);
    SpannerRepairOptions o;
    o.seed = seed;
    const auto result = repair_spanner_after(f.g, f.h, f.state,
                                             f.schedule.events, o);
    const Graph g_surv = f.state.surviving(f.g);
    EXPECT_TRUE(measure_distance_stretch(g_surv, result.h).satisfies(3.0))
        << "seed " << seed << " outcome " << to_string(result.outcome);
  }
}

TEST(SpannerRepair, DeterministicPerSeed) {
  auto f = make_faulted(100, 22, 0.10, 2, 31);
  SpannerRepairOptions o;
  o.seed = 33;
  const auto a = repair_spanner_after(f.g, f.h, f.state, f.schedule.events, o);
  const auto b = repair_spanner_after(f.g, f.h, f.state, f.schedule.events, o);
  EXPECT_EQ(a.h, b.h);
  EXPECT_EQ(a.outcome, b.outcome);
  EXPECT_EQ(a.reinserted_edges, b.reinserted_edges);
}

TEST(SpannerRepair, BudgetExceededFallsBackToRebuild) {
  auto f = isolate_in_spanner(100, 22, 3, 41);
  SpannerRepairOptions o;
  o.seed = 43;
  o.rebuild_threshold = 0.0;  // any damage at all exceeds the budget
  const auto result = repair_spanner_after(f.g, f.h, f.state,
                                           f.schedule.events, o);
  EXPECT_EQ(result.outcome, RepairOutcome::kRebuilt);
  const Graph g_surv = f.state.surviving(f.g);
  EXPECT_TRUE(g_surv.contains_subgraph(result.h));
  EXPECT_TRUE(measure_distance_stretch(g_surv, result.h).satisfies(3.0));
}

TEST(SpannerRepair, RepairedSpannerPassesTheHealthMonitor) {
  auto f = make_faulted(126, 26, 0.10, 0, 51);
  const HealthMonitor monitor(f.g);
  const auto before = monitor.check(f.h, f.state);
  const auto result = repair_spanner_after(f.g, f.h, f.state,
                                           f.schedule.events, {});
  const auto after = monitor.check(result.h, f.state);
  EXPECT_EQ(after.distance, GuaranteeStatus::kHeld);
  // repair never removes guarantees that held before
  EXPECT_LE(static_cast<int>(after.distance),
            static_cast<int>(before.distance));
}

TEST(SpannerRepair, RebuildToleratesIrregularSurvivors) {
  auto f = make_faulted(100, 22, 0.15, 5, 61);
  const Graph g_surv = f.state.surviving(f.g);
  SpannerRepairOptions o;
  o.seed = 63;
  const auto result = rebuild_spanner(g_surv, o);
  EXPECT_EQ(result.outcome, RepairOutcome::kRebuilt);
  EXPECT_TRUE(g_surv.contains_subgraph(result.h));
  EXPECT_TRUE(measure_distance_stretch(g_surv, result.h).satisfies(3.0));
}

}  // namespace
}  // namespace dcs
