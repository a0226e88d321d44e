// Extension — chaos-soak acceptance for the continuous-churn stack:
//
//  1. Survival: a seeded 1000-wave soak at 10% per-wave edge churn plus 2%
//     vertex churn with flapping links — with closed-loop query traffic
//     flowing the whole time through the snapshot-backed live oracle. The
//     supervisor must keep the spanner certified the whole way: the
//     degradation ladder never reaches kLost, every traffic burst
//     conserves packets (delivered + shed + in-flight == injected),
//     repair debt only grows by the wave's newly endangered edges, and
//     every served query answer certifies inside the published (α,β)
//     envelope or is shed with a structured reason (no stalled batches:
//     served + shed == submitted every wave).
//
//  2. Replayability: the archived schedule replayed through the harness
//     reproduces the run's aggregates exactly — including the query-plane
//     ones — and a second generated run from the same seed is identical;
//     the property the minimizer's reproduction predicate stands on.
//
//  3. Self-test: with the supervisor's deliberate repair bug enabled
//     (every repair silently loses one reinserted edge) the harness must
//     catch the invariant violation and ddmin the schedule to a minimal
//     reproducer of at most 10 events that deterministically re-triggers
//     the same invariant.
//
//  4. Live-oracle self-test: with the engine's deliberate stale-cache bug
//     enabled (distances keep coming from the snapshot pinned when the
//     soak began, while results carry the adopted epoch) the
//     query-certified invariant must catch the stale read and minimize it
//     the same way.

#include "bench_common.hpp"

#include "core/regular_spanner.hpp"
#include "graph/generators.hpp"
#include "resilience/soak.hpp"

int main() {
  dcs::bench::PerfRecord perf_record("soak");
  using namespace dcs;
  using namespace dcs::bench;

  print_header(
      "Extension — chaos soak: supervised repair under continuous churn",
      "1000 waves of 10% edge / 2% vertex churn with flapping: the ladder "
      "never hits kLost, packets are conserved, and an injected repair bug "
      "is caught and minimized to <= 10 events");

  const std::uint64_t seed = 83;
  const std::size_t n = 200;
  const std::size_t delta = degree_for(n, 2.0 / 3.0);
  const Graph g = random_regular(n, delta, seed);
  const auto built = build_regular_spanner(g, {.seed = seed});
  const Graph& h = built.spanner.h;
  bool all_ok = true;

  SoakOptions o;
  o.seed = seed;
  o.waves = 1000;
  o.churn.edge_churn_rate = 0.10;
  o.churn.vertex_churn_rate = 0.02;
  o.churn.recovery_rate = 0.5;
  o.churn.flap_probability = 0.3;
  o.churn.flap_duration = 2;
  o.traffic_interval = 25;
  o.qps = 16;  // the live oracle serves every wave, mid-churn

  std::cout << "-- 1000-wave soak, n=" << n << " Δ=" << delta
            << " |E(G)|=" << g.num_edges() << " |E(H)|=" << h.num_edges()
            << ", " << o.qps << " queries/wave --\n";
  const auto soak = run_soak(g, h, o);
  Table t({"waves", "events", "repairs", "rebuilds", "recerts", "max debt",
           "worst state", "bursts", "injected", "delivered", "shed"});
  t.add(soak.waves_run, soak.schedule.events.size(), soak.repairs,
        soak.rebuilds, soak.recertifications, soak.max_debt,
        to_string(soak.worst_state), soak.sims_run, soak.packets_injected,
        soak.packets_delivered, soak.packets_shed);
  t.print(std::cout);
  Table tq({"query batches", "submitted", "served", "shed", "epochs pub",
            "epochs adopted"});
  tq.add(soak.query_batches, soak.queries_submitted, soak.queries_served,
         soak.queries_shed, soak.epochs_published, soak.epochs_adopted);
  tq.print(std::cout);
  std::cout << soak.summary() << "\n";

  if (!soak.ok()) {
    std::cout << "FAIL: soak violated [" << soak.violations.front().invariant
              << "] at wave " << soak.violations.front().wave << ": "
              << soak.violations.front().detail << "\n";
    all_ok = false;
  }
  if (soak.waves_run != o.waves) {
    std::cout << "FAIL: soak stopped after " << soak.waves_run << " of "
              << o.waves << " waves\n";
    all_ok = false;
  }
  if (soak.worst_state == SupervisorState::kLost) {
    std::cout << "FAIL: supervisor entered kLost\n";
    all_ok = false;
  }
  if (soak.sims_run == 0 || soak.packets_injected == 0) {
    std::cout << "FAIL: soak ran no traffic\n";
    all_ok = false;
  }
  // Zero-downtime acceptance: queries flowed every wave, nothing stalled
  // (conservation is the query-certified invariant, re-checked here), and
  // churn actually exercised the epoch pipeline end to end.
  if (soak.query_batches != soak.waves_run || soak.queries_served == 0) {
    std::cout << "FAIL: the live oracle did not serve every wave\n";
    all_ok = false;
  }
  if (soak.queries_served + soak.queries_shed != soak.queries_submitted) {
    std::cout << "FAIL: query conservation broken (stalled batches)\n";
    all_ok = false;
  }
  if (soak.epochs_published < 2 || soak.epochs_adopted < 2) {
    std::cout << "FAIL: churn published no epochs through the snapshot "
                 "store\n";
    all_ok = false;
  }

  // Replayability: same seed => identical run; archived schedule => same
  // aggregates through the replay path.
  const auto soak2 = run_soak(g, h, o);
  if (soak2.schedule != soak.schedule || soak2.summary() != soak.summary()) {
    std::cout << "FAIL: soak not reproducible from seed\n";
    all_ok = false;
  }
  SoakOptions ro = o;
  ro.waves = soak.waves_run;
  const auto replayed = replay_soak(g, h, soak.schedule, ro);
  if (replayed.repairs != soak.repairs ||
      replayed.rebuilds != soak.rebuilds ||
      replayed.recertifications != soak.recertifications ||
      replayed.packets_delivered != soak.packets_delivered ||
      replayed.queries_served != soak.queries_served ||
      replayed.queries_shed != soak.queries_shed ||
      !replayed.ok()) {
    std::cout << "FAIL: schedule replay diverged from the recorded run\n";
    all_ok = false;
  }

  // Harness self-test: the soak must catch a deliberately broken repair
  // loop and shrink the schedule to a tiny deterministic reproducer.
  std::cout << "\n-- injected repair bug: catch and minimize --\n";
  SoakOptions bug = o;
  bug.waves = 120;
  bug.inject_repair_bug = true;
  const auto caught = run_soak(g, h, bug);
  std::cout << caught.summary() << "\n";
  if (caught.ok()) {
    std::cout << "FAIL: injected repair bug was not caught\n";
    all_ok = false;
  } else {
    if (!caught.minimized_available) {
      std::cout << "FAIL: violation was not minimized\n";
      all_ok = false;
    } else {
      Table tm({"invariant", "wave", "events", "minimized", "evaluations",
                "1-minimal"});
      tm.add(caught.violations.front().invariant,
             caught.violations.front().wave, caught.schedule.events.size(),
             caught.minimized.events.size(), caught.minimizer_evaluations,
             std::string(caught.minimized_is_minimal ? "yes" : "no"));
      tm.print(std::cout);
      if (caught.minimized.events.size() > 10) {
        std::cout << "FAIL: minimized schedule has "
                  << caught.minimized.events.size() << " events (> 10)\n";
        all_ok = false;
      }
      // The minimal schedule must deterministically re-trigger the same
      // invariant, twice.
      SoakOptions rep = bug;
      rep.waves = caught.waves_run;
      rep.minimize_on_violation = false;
      for (int i = 0; i < 2; ++i) {
        const auto again = replay_soak(g, h, caught.minimized, rep);
        if (again.ok() || again.violations.front().invariant !=
                              caught.violations.front().invariant) {
          std::cout << "FAIL: minimized schedule did not reproduce ["
                    << caught.violations.front().invariant << "]\n";
          all_ok = false;
          break;
        }
      }
    }
  }

  // Live-oracle self-test: distances answered from a pre-repair snapshot
  // after the engine adopted a newer epoch must be caught by the
  // query-certified invariant and shrink to a tiny reproducer, exactly
  // like the repair bug above.
  std::cout << "\n-- injected stale-cache bug: catch and minimize --\n";
  SoakOptions stale = o;
  stale.waves = 120;
  stale.inject_stale_cache_bug = true;
  const auto stale_caught = run_soak(g, h, stale);
  std::cout << stale_caught.summary() << "\n";
  if (stale_caught.ok()) {
    std::cout << "FAIL: injected stale-cache bug was not caught\n";
    all_ok = false;
  } else if (stale_caught.violations.front().invariant !=
             "query-certified") {
    std::cout << "FAIL: stale cache tripped ["
              << stale_caught.violations.front().invariant
              << "] instead of [query-certified]\n";
    all_ok = false;
  } else if (!stale_caught.minimized_available) {
    std::cout << "FAIL: stale-cache violation was not minimized\n";
    all_ok = false;
  } else {
    Table tm({"invariant", "wave", "events", "minimized", "evaluations",
              "1-minimal"});
    tm.add(stale_caught.violations.front().invariant,
           stale_caught.violations.front().wave,
           stale_caught.schedule.events.size(),
           stale_caught.minimized.events.size(),
           stale_caught.minimizer_evaluations,
           std::string(stale_caught.minimized_is_minimal ? "yes" : "no"));
    tm.print(std::cout);
    if (stale_caught.minimized.events.size() > 10) {
      std::cout << "FAIL: minimized schedule has "
                << stale_caught.minimized.events.size() << " events (> 10)\n";
      all_ok = false;
    }
    SoakOptions rep = stale;
    rep.waves = stale_caught.waves_run;
    rep.minimize_on_violation = false;
    for (int i = 0; i < 2; ++i) {
      const auto again = replay_soak(g, h, stale_caught.minimized, rep);
      if (again.ok() ||
          again.violations.front().invariant != "query-certified") {
        std::cout << "FAIL: minimized schedule did not reproduce "
                     "[query-certified]\n";
        all_ok = false;
        break;
      }
    }
  }

  std::cout << "\nsoak acceptance: " << (all_ok ? "PASS" : "FAIL") << "\n";
  return all_ok ? 0 : 1;
}
