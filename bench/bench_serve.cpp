// Closed-loop load generator for the query-serving engine (src/serve/).
//
// Three sections, each printed as a table and recorded through PerfRecord
// into BENCH_serve.json (gated by tools/bench_compare against
// bench/baselines/serve/):
//
//  1. Batched-vs-naive throughput on two serving substrates — a regular
//     spanner and an expander spanner. The naive oracle runs one scalar
//     bfs_distances per query; the engine answers every pair within
//     distance 3 from the spanner's adjacency bitmap and coalesces the
//     rest into 64-wide MS-BFS sweeps. Answers must be checksum-identical
//     and the batched path must clear a 3x speedup floor, otherwise this
//     binary exits 1 (the CI serve-smoke job treats that as a failed
//     gate).
//
//  2. A closed-loop client sweep (1/4/16 clients): offered load vs
//     throughput and exact p50/p99 submit-to-completion latency, plus the
//     dispatcher-count axis — the 16-client load replayed at dispatchers=4
//     must answer checksum-identical to the single-dispatcher run and
//     conserve queries exactly; the d4/d1 throughput ratio is exported as
//     the bench.serve.dispatcher_scaling_speedup gauge for bench_compare,
//     not gated here (it measures the host's spare cores as much as the
//     code).
//
//  3. An overload demonstration: an open-loop burst against a 64-deep
//     admission queue, shedding accounted exactly (served + shed ==
//     submitted or exit 1).
//
// plus the EDF regression gate (section 4, documented at its definition)
// and a tracing-overhead gate: the section-1 batched workload served with
// request-trace exemplars off and on (min of 7 fresh-engine runs each);
// the traced path must stay within 3% of the untraced one, and the
// tracer's tail exemplars are exported as the "request_trace" key of
// BENCH_serve.json.
//
// A 1024-vertex spanner is dense enough for the adjacency bitmap
// (AdjacencyBitmap::worthwhile); the EDF gate's 30,000-vertex sparse
// substrate is not, so each of its windows pays a real sweep.
//
// Usage: bench_serve [--quick]    (--quick shrinks sizes for smoke runs)

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/expander_spanner.hpp"
#include "obs/request_trace.hpp"
#include "core/regular_spanner.hpp"
#include "graph/bfs.hpp"
#include "graph/generators.hpp"
#include "serve/query_engine.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace {

using namespace dcs;
using serve::Query;
using serve::QueryEngine;
using serve::QueryKind;
using serve::QueryOutcome;
using serve::QueryResult;
using serve::ServeOptions;

constexpr double kSpeedupFloor = 3.0;

/// Skewed point-query workload: half the queries hit a small hot set of
/// sources (repeat traffic that coalescing folds into one ball row or one
/// sweep lane per source), half are uniform.
std::vector<Query> skewed_queries(const Graph& g, std::size_t count,
                                  std::size_t hot_sources,
                                  std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Query> queries;
  queries.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Query q;
    q.u = rng.bernoulli(0.5)
              ? static_cast<Vertex>(rng.uniform(hot_sources))
              : static_cast<Vertex>(rng.uniform(g.num_vertices()));
    q.v = static_cast<Vertex>(rng.uniform(g.num_vertices()));
    queries.push_back(q);
  }
  return queries;
}

std::uint64_t checksum_results(const std::vector<QueryResult>& results) {
  std::uint64_t sum = 0;
  for (const QueryResult& r : results) {
    sum = sum * 1000003u + r.distance;
  }
  return sum;
}

/// Section 1: same queries through the scalar oracle and the batched
/// engine; returns false if answers differ or the speedup floor is missed.
bool compare_batched_vs_naive(const char* name, const Graph& h,
                              std::size_t num_queries, std::size_t window) {
  const auto queries = skewed_queries(h, num_queries, 16, 271828);

  // Both oracles fold their checksum per window so the streams compare
  // byte-for-byte.
  Timer naive_timer;
  std::uint64_t naive_sum = 0;
  for (std::size_t lo = 0; lo < queries.size(); lo += window) {
    const std::size_t hi = std::min(queries.size(), lo + window);
    std::uint64_t inner = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      inner = inner * 1000003u + bfs_distances(h, queries[i].u)[queries[i].v];
    }
    naive_sum = naive_sum * 1000003u + inner;
  }
  const double naive_ms = naive_timer.millis();

  QueryEngine engine(h);
  Timer batched_timer;
  std::uint64_t batched_sum = 0;
  for (std::size_t lo = 0; lo < queries.size(); lo += window) {
    const std::size_t hi = std::min(queries.size(), lo + window);
    const auto results = engine.serve_batch(
        std::span(queries).subspan(lo, hi - lo));
    batched_sum = batched_sum * 1000003u + checksum_results(results);
  }
  const double batched_ms = batched_timer.millis();
  const double speedup = naive_ms / batched_ms;
  const auto stats = engine.stats();

  // The bitmap's share of the distance answers (ServeStats::cache_hits).
  const double answered =
      static_cast<double>(stats.cache_hits + stats.cache_misses);
  const double hit_ratio =
      answered > 0 ? static_cast<double>(stats.cache_hits) / answered : 0.0;
  auto& reg = obs::MetricsRegistry::instance();
  const std::string prefix = std::string("bench.serve.") + name;
  reg.gauge(prefix + "_naive_ms").set(naive_ms);
  reg.gauge(prefix + "_batched_ms").set(batched_ms);
  reg.gauge(prefix + "_batched_speedup").set(speedup);
  reg.gauge(prefix + "_cache_hit_ratio").set(hit_ratio);

  std::printf(
      "%-10s %7zu queries   naive %9.2f ms   batched %8.2f ms   "
      "speedup %6.2fx   sweeps over %" PRIu64 " sources, bitmap share "
      "%.2f\n",
      name, queries.size(), naive_ms, batched_ms, speedup,
      stats.coalesced_sources, hit_ratio);

  if (batched_sum != naive_sum) {
    std::printf("FAIL: %s batched checksum %016" PRIx64
                " != naive %016" PRIx64 "\n",
                name, batched_sum, naive_sum);
    return false;
  }
  if (speedup < kSpeedupFloor) {
    std::printf("FAIL: %s speedup %.2fx below the %.1fx floor\n", name,
                speedup, kSpeedupFloor);
    return false;
  }
  return true;
}

/// One closed-loop measurement: `clients` threads each submit `per_client`
/// queries to an engine with `dispatchers` dispatchers, waiting on every
/// answer before the next. Besides throughput and latency samples it folds
/// each client's answers into a deterministic checksum (per-client, in
/// submission order, combined positionally) so runs at different
/// dispatcher counts can be required to answer identically.
struct ClosedLoopRun {
  double throughput = 0.0;
  std::vector<double> latencies;
  std::uint64_t checksum = 0;
  serve::ServeStats stats;
};

ClosedLoopRun closed_loop_run(const Graph& h, std::size_t clients,
                              std::size_t per_client,
                              std::size_t dispatchers) {
  ServeOptions options;
  options.dispatchers = dispatchers;
  QueryEngine engine(h, options);
  engine.start();
  std::vector<std::vector<double>> latencies(clients);
  std::vector<std::uint64_t> sums(clients, 0);
  Timer wall;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(31 * (c + 1));
      latencies[c].reserve(per_client);
      std::uint64_t sum = 0;
      for (std::size_t i = 0; i < per_client; ++i) {
        Query q;
        // 1-in-4 route queries keep the lazy next-hop tables hot too.
        q.kind = rng.bernoulli(0.25) ? QueryKind::kRoute
                                     : QueryKind::kDistance;
        q.u = rng.bernoulli(0.5)
                  ? static_cast<Vertex>(rng.uniform(16))
                  : static_cast<Vertex>(rng.uniform(h.num_vertices()));
        q.v = static_cast<Vertex>(rng.uniform(h.num_vertices()));
        const QueryResult r = engine.submit(q).get();
        latencies[c].push_back(r.latency_us);
        sum = sum * 1099511628211ull +
              (r.distance == kUnreachable
                   ? 0xdeadull
                   : static_cast<std::uint64_t>(r.distance) + 1);
      }
      sums[c] = sum;
    });
  }
  for (auto& t : threads) t.join();
  const double elapsed = wall.seconds();
  engine.stop();

  ClosedLoopRun run;
  for (std::size_t c = 0; c < clients; ++c) {
    run.latencies.insert(run.latencies.end(), latencies[c].begin(),
                         latencies[c].end());
    run.checksum += sums[c] * (c + 1);
  }
  run.throughput = static_cast<double>(run.latencies.size()) / elapsed;
  run.stats = engine.stats();
  return run;
}

/// Section 2: closed-loop clients, each waiting for its answer before
/// sending the next query. Reports throughput and exact latency tails for
/// 1/4/16 clients on a single dispatcher, then replays the 16-client load
/// at dispatchers=4: that run must answer checksum-identical to the
/// single-dispatcher one and conserve queries exactly. Its throughput
/// ratio is exported, not gated: with 16 clients and 4 dispatchers on a
/// few cores it shows how many cores the host spares, not a code defect.
bool closed_loop_sweep(const Graph& h, std::size_t per_client) {
  std::printf("\nclosed-loop sweep (%zu queries/client):\n", per_client);
  std::printf("  %-10s %12s %10s %10s %10s\n", "clients", "throughput/s",
              "p50 us", "p99 us", "served");
  auto& reg = obs::MetricsRegistry::instance();
  const std::vector<double> qs{0.5, 0.99};
  bool ok = true;
  ClosedLoopRun base16;

  const auto check_conservation = [&](const ClosedLoopRun& run,
                                      std::size_t expected) {
    const auto& s = run.stats;
    if (s.served + s.shed_admission + s.shed_deadline + s.shed_degraded +
            s.shed_shutdown !=
        s.queries) {
      std::printf("FAIL: closed loop does not conserve queries\n");
      ok = false;
    }
    if (s.served != expected) {
      std::printf("FAIL: closed loop served %" PRIu64 " of %zu (a "
                  "closed-loop client never overruns admission)\n",
                  s.served, expected);
      ok = false;
    }
  };

  for (std::size_t clients : {1u, 4u, 16u}) {
    const ClosedLoopRun run = closed_loop_run(h, clients, per_client, 1);
    const auto tails = exact_percentiles(run.latencies, qs);
    std::printf("  %-10zu %12.0f %10.1f %10.1f %10" PRIu64 "\n", clients,
                run.throughput, tails[0], tails[1], run.stats.served);
    reg.gauge("bench.serve.closed_loop_" + std::to_string(clients) +
              "_throughput")
        .set(run.throughput);
    check_conservation(run, clients * per_client);
    if (clients == 16) base16 = run;
  }

  // The dispatcher axis: the same 16-client load against 4 dispatchers.
  const ClosedLoopRun d4 = closed_loop_run(h, 16, per_client, 4);
  const auto tails = exact_percentiles(d4.latencies, qs);
  std::printf("  %-10s %12.0f %10.1f %10.1f %10" PRIu64 "\n", "16 (d=4)",
              d4.throughput, tails[0], tails[1], d4.stats.served);
  reg.gauge("bench.serve.closed_loop_16_d4_throughput").set(d4.throughput);
  check_conservation(d4, 16 * per_client);

  if (d4.checksum != base16.checksum) {
    std::printf("FAIL: dispatchers=4 answer checksum %016" PRIx64
                " != dispatchers=1 %016" PRIx64 "\n",
                d4.checksum, base16.checksum);
    ok = false;
  }

  const double speedup = d4.throughput / base16.throughput;
  reg.gauge("bench.serve.dispatcher_scaling_speedup").set(speedup);
  std::printf("  dispatchers=4 vs 1 at 16 clients: %.2fx served throughput\n",
              speedup);
  return ok;
}

/// Section 3: open-loop burst into a deliberately small admission queue.
/// Returns false if the shed accounting does not conserve queries.
bool overload_demo(const Graph& h, std::size_t burst) {
  ServeOptions options;
  options.batch_window = 8;
  options.admission.queue_capacity = 64;
  QueryEngine engine(h, options);
  engine.start();
  std::vector<std::future<QueryResult>> futures;
  futures.reserve(burst);
  Rng rng(99);
  for (std::size_t i = 0; i < burst; ++i) {
    Query q;
    q.u = static_cast<Vertex>(rng.uniform(h.num_vertices()));
    q.v = static_cast<Vertex>(rng.uniform(h.num_vertices()));
    futures.push_back(engine.submit(q));
  }
  for (auto& f : futures) f.get();
  engine.stop();
  const auto s = engine.stats();
  std::printf("\noverload burst (%zu queries, queue=64): served %" PRIu64
              ", shed-admission %" PRIu64 ", shed-deadline %" PRIu64 "\n",
              burst, s.served, s.shed_admission, s.shed_deadline);
  if (s.served + s.shed_admission + s.shed_deadline + s.shed_degraded +
          s.shed_shutdown !=
      s.queries) {
    std::printf("FAIL: shed accounting does not conserve queries\n");
    return false;
  }
  return true;
}

/// Section 4: the EDF regression gate. An open-loop flood of no-deadline
/// queries followed by a late burst of deadline-tagged ones. The flood
/// must be deep enough that arrival order would shed the burst — its
/// slowest served query must have waited longer than the tagged deadline
/// — and EDF must pull the deadline class forward so that no tagged query
/// is shed. Returns false unless both hold.
bool deadline_burst_demo(const Graph& h, std::size_t flood_windows,
                         std::size_t tagged_count) {
  constexpr std::size_t kWindow = 32;

  // Calibrate the deadline to this machine: one window's sweep cost.
  double sweep_us = 0.0;
  {
    QueryEngine probe(h);
    std::vector<Query> window(kWindow);
    for (std::size_t i = 0; i < kWindow; ++i) {
      window[i].u = static_cast<Vertex>(i);
      window[i].v = 0;
    }
    Timer t;
    probe.serve_batch(window);
    sweep_us = t.seconds() * 1e6;
  }
  // EDF serves tagged queries within ~2 sweeps; arrival order would make
  // them wait ~flood_windows sweeps. A 4-sweep budget separates the two
  // cleanly.
  const auto deadline_us = static_cast<std::uint64_t>(4.0 * sweep_us) + 100;

  const std::size_t flood = flood_windows * kWindow;
  std::printf("\ndeadline burst (%zu-query flood + %zu tagged @%.1f ms):\n",
              flood, tagged_count, static_cast<double>(deadline_us) / 1e3);
  ServeOptions options;
  options.batch_window = kWindow;
  options.admission.queue_capacity = 0;  // shed only at deadlines
  QueryEngine engine(h, options);
  engine.start();
  std::vector<std::future<QueryResult>> futures;
  futures.reserve(flood + tagged_count);
  Rng rng(777);
  for (std::size_t i = 0; i < flood; ++i) {
    Query q;
    q.u = static_cast<Vertex>(rng.uniform(h.num_vertices()));
    q.v = static_cast<Vertex>(rng.uniform(h.num_vertices()));
    futures.push_back(engine.submit(q));
  }
  for (std::size_t i = 0; i < tagged_count; ++i) {
    Query q;
    q.u = static_cast<Vertex>(rng.uniform(h.num_vertices()));
    q.v = static_cast<Vertex>(rng.uniform(h.num_vertices()));
    q.deadline_us = deadline_us;
    futures.push_back(engine.submit(q));
  }
  double flood_max_us = 0.0;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const QueryResult r = futures[i].get();
    if (i < flood) flood_max_us = std::max(flood_max_us, r.latency_us);
  }
  engine.stop();
  const std::uint64_t shed = engine.stats().shed_deadline;
  std::printf("  flood's slowest answer %.1f ms; edf shed-deadline %" PRIu64
              " / %zu tagged\n",
              flood_max_us / 1e3, shed, tagged_count);

  obs::MetricsRegistry::instance()
      .gauge("bench.serve.deadline_burst_edf_shed")
      .set(static_cast<double>(shed));

  if (flood_max_us <= static_cast<double>(deadline_us)) {
    std::printf("FAIL: the flood's slowest answer (%.1f ms) beat the tagged "
                "deadline — no overload reached\n",
                flood_max_us / 1e3);
    return false;
  }
  // The windowed EDF selection (nth_element partition instead of a
  // full-backlog sort) must not change which queries EDF saves: the budget
  // is 4 sweeps and EDF serves tagged queries within ~2, so every tagged
  // query makes its deadline — exactly as the full sort did.
  if (shed != 0) {
    std::printf("FAIL: EDF shed %" PRIu64 " tagged queries (expected 0 — "
                "the windowed selection changed shed behavior)\n",
                shed);
    return false;
  }
  return true;
}

/// Section 5: the tracing-overhead gate. The same batched workload served
/// with request tracing off and with exemplar sampling on, each timed as
/// the min of `kRuns` fresh-engine runs (min-of-N discards scheduler
/// noise; a fresh engine per run keeps the route rows identical). The
/// traced/untraced runs are *interleaved* rather than run as two blocks:
/// machine-load drift then hits both arms equally instead of biasing
/// whichever arm ran during the noisy window.
/// Returns false when the traced path costs more than kOverheadCeiling.
bool tracing_overhead_gate(bench::PerfRecord& rec, const Graph& h,
                           std::size_t num_queries, std::size_t window) {
  constexpr int kRuns = 7;
  constexpr double kOverheadCeiling = 0.03;
  const auto queries = skewed_queries(h, num_queries, 16, 314159);

  const auto run_once = [&](bool traced) {
    ServeOptions options;
    options.trace.exemplars = traced;
    QueryEngine engine(h, options);
    Timer t;
    for (std::size_t lo = 0; lo < queries.size(); lo += window) {
      const std::size_t hi = std::min(queries.size(), lo + window);
      engine.serve_batch(std::span(queries).subspan(lo, hi - lo));
    }
    return t.millis();
  };

  // A low threshold so the exemplar ring actually takes traffic during the
  // timed runs — this gates the worst case, not an idle tracer.
  obs::RequestTracer::instance().configure(/*threshold_us=*/100.0);
  run_once(false);  // warm the substrate (page-in, frequency ramp)
  double base_ms = run_once(false);
  double traced_ms = run_once(true);
  for (int r = 1; r < kRuns; ++r) {
    base_ms = std::min(base_ms, run_once(false));
    traced_ms = std::min(traced_ms, run_once(true));
  }
  const double overhead = traced_ms / base_ms - 1.0;

  auto& reg = obs::MetricsRegistry::instance();
  reg.gauge("bench.serve.trace_base_ms").set(base_ms);
  reg.gauge("bench.serve.trace_traced_ms").set(traced_ms);
  reg.gauge("bench.serve.trace_overhead").set(overhead);
  rec.add_json_section("request_trace",
                       obs::RequestTracer::instance().to_json());

  std::printf("\ntracing overhead (%zu queries, min of %d runs): "
              "untraced %.2f ms, exemplars on %.2f ms (%+.2f%%, "
              "%zu tail exemplars kept)\n",
              queries.size(), kRuns, base_ms, traced_ms, overhead * 1e2,
              obs::RequestTracer::instance().size());

  if (overhead > kOverheadCeiling) {
    std::printf("FAIL: exemplar tracing costs %.2f%% (> %.0f%% ceiling)\n",
                overhead * 1e2, kOverheadCeiling * 1e2);
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  bench::PerfRecord rec("serve");
  bench::print_header(
      "Query serving: batched bitmap + MS-BFS oracle vs one-BFS-per-query",
      "Point queries answered from the adjacency bitmap within distance 3 "
      "and coalesced into 64-wide sweeps beyond it must answer identically "
      "to the scalar oracle and clear a 3x throughput floor.");

  const std::size_t queries = quick ? 2048 : 8192;
  const std::size_t per_client = quick ? 256 : 1024;

  const Graph regular_g = random_regular(1024, 16, 42);
  const Graph regular_h =
      build_regular_spanner(regular_g, {.seed = 7}).spanner.h;
  // Theorem 2's construction wants a Δ-regular expander with Δ ≳ n^{2/3};
  // a dense random regular graph is one with overwhelming probability.
  const Graph expander_g = random_regular(1024, bench::degree_for(1024, 2.0 / 3.0), 43);
  const Graph expander_h =
      build_expander_spanner(expander_g, {.seed = 7}).spanner.h;
  std::printf("substrates: regular spanner %zu/%zu edges, expander spanner "
              "%zu/%zu edges\n\n",
              regular_h.num_edges(), regular_g.num_edges(),
              expander_h.num_edges(), expander_g.num_edges());

  bool ok = true;
  {
    ScopedTimer t(rec.phase("batched_vs_naive"));
    ok &= compare_batched_vs_naive("regular", regular_h, queries, 1024);
    ok &= compare_batched_vs_naive("expander", expander_h, queries, 1024);
  }
  {
    ScopedTimer t(rec.phase("closed_loop"));
    ok &= closed_loop_sweep(regular_h, per_client);
  }
  {
    ScopedTimer t(rec.phase("overload"));
    ok &= overload_demo(regular_h, quick ? 2000 : 8000);
  }
  {
    ScopedTimer t(rec.phase("deadline_burst"));
    // A big sparse substrate so one window's sweep is a measurable plug.
    const Graph burst_h = random_regular(30000, 8, 44);
    ok &= deadline_burst_demo(burst_h, quick ? 32 : 64, 100);
  }
  {
    ScopedTimer t(rec.phase("trace_overhead"));
    ok &= tracing_overhead_gate(rec, regular_h, queries, 1024);
  }

  if (!ok) {
    std::printf("\nbench_serve: FAILED\n");
    return 1;
  }
  std::printf("\nbench_serve: OK\n");
  return 0;
}
