// dcs_tool — command-line front end for the DC-spanner library.
//
//   dcs_tool gen <family> <out.graph> [args...]     generate a graph
//       families:
//         regular <n> <delta> [seed]
//         expander <m>                      (Gabber–Galil on m² vertices)
//         lps <p> <q>                       (LPS Ramanujan X^{p,q})
//         ring <cliques> <size>
//         hypercube <dim>
//         clique-matching <n>
//   dcs_tool spanner <algorithm> <in.graph> <out.graph> [seed]
//       algorithms: regular | expander | baswana-sen | greedy3
//   dcs_tool verify <in.graph> <spanner.graph> [alpha]
//   dcs_tool route <in.graph> <spanner.graph> <workload> [seed]
//       workloads: matching | permutation | all-edges
//   dcs_tool resilience <in.graph> <spanner.graph> [edge-fraction]
//       [vertex-faults] [seed]     inject faults, recertify, self-heal
//   dcs_tool soak <in.graph> <spanner.graph> [waves] [seed]
//       continuous-churn soak: supervised repair + traffic bursts checked
//       against invariants; violations are ddmin-minimized.
//       soak flags: --replay=SCHEDULE (re-run a recorded schedule),
//       --qps=N (serve N closed-loop queries per wave through the
//       snapshot-backed live oracle, checked by the query-certified
//       invariant), --inject-repair-bug (harness self-test: the
//       supervisor silently drops a repaired edge, the soak must catch
//       it), --inject-stale-cache-bug (harness self-test: the engine's
//       distance rows survive epoch swaps; needs --qps),
//       --persist-dir=DIR (attach the durability plane: checkpoint +
//       write-ahead log into DIR), --checkpoint-interval=N (checkpoint
//       cadence in waves, default 16), --crash-at-wave=N (simulate a
//       kill -9 before wave N, recover from DIR, and check the
//       recovery-certified invariant; needs --persist-dir)
//   dcs_tool checkpoint <in.graph> <spanner.graph> <dir>
//       cut generation 1 of a durable checkpoint directory from a
//       certified (graph, spanner) pair — the state a crashed process
//       recovers from
//   dcs_tool recover <in.graph> <dir>
//       rebuild the supervised oracle from the newest valid generation
//       in <dir> (checkpoint load + WAL replay + recertification), print
//       the recovery report, and spot-check the recovered spanner's
//       stretch against the certificate. Exit 0 when recovery lands a
//       non-lost certificate, 1 when it fails closed.
//   dcs_tool pipeline <n> [delta] [seed]
//       end-to-end: generate, build Theorem 3 spanner, verify, simulate
//   dcs_tool info <in.graph>
//   dcs_tool top <socket> [--once] [--interval-ms=N]
//       live view of another process's --stats-socket endpoint: serving
//       counters, SLO burn-rate windows, and the flight-recorder tail,
//       re-polled every interval (or exactly once with --once)
//
// Observability flags (valid before or after the subcommand):
//   --log-level=SPEC     e.g. --log-level=debug or --log-level=info,spanner=trace
//   --log-json           JSON-lines log records instead of text
//   --metrics-out=PATH   enable metrics; write registry on exit (.csv or .json)
//   --trace-out=PATH     record spans; write Chrome trace-event JSON on exit
//   --artifacts-dir=DIR  subcommands that produce artifacts (soak: schedule,
//                        minimized reproducer, JSON report) write them here
//   --flight-buffer=N    flight-recorder ring capacity per thread; 0 turns
//                        the recorder off entirely
//   --stats-socket=PATH  serve the live-introspection endpoint on a unix
//                        socket for the subcommand's duration (the server
//                        `dcs_tool top` connects to)
//
// Every invocation arms the flight recorder's crash dump: a failed
// DCS_CHECK or a fatal signal writes flight.json (into --artifacts-dir
// when set, the working directory otherwise) before the process dies.
//
// SIGTERM/SIGINT are handled gracefully in the long-running modes: a soak
// stops at the next wave boundary with its artifacts intact, `top` exits
// its poll loop, and a --stats-socket endpoint is shut down and its socket
// unlinked — then metrics/trace artifacts are flushed exactly as on a
// normal exit.
//
// Exit codes are uniform across subcommands: 0 on success; 1 when a check
// fails (verification, resilience recertification, soak invariant, pipeline
// stretch/simulation); 2 on usage errors or malformed input.

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

// SIGPIPE guard for the `top` client: send(MSG_NOSIGNAL) turns a write to
// a vanished stats endpoint into an error return instead of killing the
// process. (Always present on Linux; the fallback keeps other POSIX
// systems compiling.)
#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0
#endif

#include "core/baseline_spanners.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/json.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/stats_endpoint.hpp"
#include "obs/trace.hpp"
#include "persist/durability.hpp"
#include "core/expander_spanner.hpp"
#include "core/general_spanner.hpp"
#include "core/regular_spanner.hpp"
#include "core/report.hpp"
#include "core/router.hpp"
#include "core/sparsify.hpp"
#include "core/verifier.hpp"
#include "core/vft_spanner.hpp"
#include "graph/connectivity.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/ramanujan.hpp"
#include "resilience/failure_injector.hpp"
#include "resilience/fault_state.hpp"
#include "resilience/health_monitor.hpp"
#include "resilience/soak.hpp"
#include "resilience/spanner_repair.hpp"
#include "graph/bfs.hpp"
#include "routing/packet_sim.hpp"
#include "serve/query_engine.hpp"
#include "routing/shortest_paths.hpp"
#include "routing/tables.hpp"
#include "routing/workloads.hpp"
#include "spectral/expansion.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace dcs;

// Position-independent flags stripped by main() and consumed by the
// subcommands that use them.
std::string g_artifacts_dir;
std::string g_replay_path;
bool g_inject_repair_bug = false;
bool g_inject_stale_cache_bug = false;
std::uint64_t g_qps = 0;
std::uint64_t g_dispatchers = 1;
std::string g_stats_socket;
bool g_top_once = false;
std::uint64_t g_top_interval_ms = 1000;
std::string g_persist_dir;
std::uint64_t g_checkpoint_interval = 16;
std::uint64_t g_crash_at_wave = 0;

// Graceful-shutdown flag, set (and only set) by the SIGTERM/SIGINT
// handler. The long-running modes poll it: the soak stops at the next
// wave boundary, `top` exits its poll loop. Everything downstream of the
// subcommand's return — artifact flush, stats-socket unlink — then runs
// exactly as on a normal exit.
std::atomic<bool> g_stop{false};

extern "C" void handle_shutdown_signal(int) {
  g_stop.store(true, std::memory_order_relaxed);
}

[[noreturn]] void usage(const std::string& message = "") {
  if (!message.empty()) std::cerr << "error: " << message << "\n\n";
  std::cerr <<
      "usage:\n"
      "  dcs_tool gen <family> <out.graph> [args...]\n"
      "  dcs_tool spanner "
      "<regular|expander|baswana-sen|greedy3|vft|sparsify|stretchN> "
      "<in> <out> [seed]\n"
      "  dcs_tool verify <in.graph> <spanner.graph> [alpha]\n"
      "  dcs_tool route <in.graph> <spanner.graph> "
      "<matching|permutation|all-edges> [seed]\n"
      "  dcs_tool report <in.graph> <spanner.graph> [seed]\n"
      "  dcs_tool simulate <graph> <matching|permutation> [seed]\n"
      "  dcs_tool tables <graph> [seed]\n"
      "  dcs_tool serve-bench <spanner.graph> [queries] [seed]\n"
      "  dcs_tool resilience <in.graph> <spanner.graph> "
      "[edge-fraction] [vertex-faults] [seed]\n"
      "  dcs_tool soak <in.graph> <spanner.graph> [waves] [seed] "
      "[--qps=N] [--dispatchers=N] [--replay=SCHEDULE] "
      "[--inject-repair-bug] "
      "[--inject-stale-cache-bug] [--persist-dir=DIR] "
      "[--checkpoint-interval=N] [--crash-at-wave=N]\n"
      "  dcs_tool checkpoint <in.graph> <spanner.graph> <dir>\n"
      "  dcs_tool recover <in.graph> <dir>\n"
      "  dcs_tool pipeline <n> [delta] [seed]\n"
      "  dcs_tool info <in.graph>\n"
      "  dcs_tool top <socket> [--once] [--interval-ms=N]\n"
      "flags (any subcommand): --log-level=SPEC --log-json "
      "--metrics-out=PATH --trace-out=PATH --artifacts-dir=DIR "
      "--flight-buffer=N --stats-socket=PATH\n";
  std::exit(2);
}

std::uint64_t arg_u64(const std::vector<std::string>& args, std::size_t i,
                      std::uint64_t fallback) {
  return i < args.size() ? std::strtoull(args[i].c_str(), nullptr, 10)
                         : fallback;
}

int cmd_gen(const std::vector<std::string>& args) {
  if (args.size() < 2) usage("gen needs a family and an output path");
  const std::string& family = args[0];
  const std::string& out = args[1];
  Graph g;
  if (family == "regular") {
    if (args.size() < 4) usage("regular needs <n> <delta>");
    g = random_regular(arg_u64(args, 2, 0), arg_u64(args, 3, 0),
                       arg_u64(args, 4, 1));
  } else if (family == "expander") {
    if (args.size() < 3) usage("expander needs <m>");
    g = margulis_expander(arg_u64(args, 2, 0));
  } else if (family == "lps") {
    if (args.size() < 4) usage("lps needs <p> <q> (primes ≡ 1 mod 4)");
    const LpsGraph lps =
        lps_ramanujan_graph(arg_u64(args, 2, 0), arg_u64(args, 3, 0));
    std::cout << "LPS X^{p,q}: " << (lps.is_psl ? "PSL" : "PGL")
              << "(2," << lps.q << "), Ramanujan bound 2√p = "
              << 2.0 * std::sqrt(static_cast<double>(lps.p)) << "\n";
    g = lps.graph;
  } else if (family == "ring") {
    if (args.size() < 4) usage("ring needs <cliques> <size>");
    g = ring_of_cliques(arg_u64(args, 2, 0), arg_u64(args, 3, 0));
  } else if (family == "hypercube") {
    if (args.size() < 3) usage("hypercube needs <dim>");
    g = hypercube(arg_u64(args, 2, 0));
  } else if (family == "clique-matching") {
    if (args.size() < 3) usage("clique-matching needs <n>");
    g = clique_matching_graph(arg_u64(args, 2, 0));
  } else {
    usage("unknown family: " + family);
  }
  write_graph_file(out, g);
  std::cout << "wrote " << out << ": " << g.num_vertices() << " vertices, "
            << g.num_edges() << " edges\n";
  return 0;
}

int cmd_spanner(const std::vector<std::string>& args) {
  if (args.size() < 3) usage("spanner needs <algorithm> <in> <out>");
  const std::string& algorithm = args[0];
  const Graph g = read_graph_file(args[1]);
  const std::uint64_t seed = arg_u64(args, 3, 1);

  Spanner spanner;
  if (algorithm == "regular") {
    RegularSpannerOptions o;
    o.seed = seed;
    spanner = build_regular_spanner(g, o).spanner;
  } else if (algorithm == "expander") {
    ExpanderSpannerOptions o;
    o.seed = seed;
    spanner = build_expander_spanner(g, o).spanner;
  } else if (algorithm == "baswana-sen") {
    spanner = baswana_sen_3_spanner(g, seed);
  } else if (algorithm == "greedy3") {
    spanner = greedy_spanner(g, 3, seed);
  } else if (algorithm == "vft") {
    VftSpannerOptions o;
    o.seed = seed;
    o.faults = 1;
    spanner = build_vft_spanner(g, o).spanner;
  } else if (algorithm == "sparsify") {
    SparsifyOptions o;
    o.seed = seed;
    o.target_degree =
        2.0 * std::log2(static_cast<double>(g.num_vertices()));
    spanner = uniform_sparsify(g, o).spanner;
  } else if (algorithm.rfind("stretch", 0) == 0) {
    // "stretchN": generalized sampling spanner with α = N
    StretchSpannerOptions o;
    o.seed = seed;
    o.alpha = static_cast<Dist>(
        std::strtoul(algorithm.c_str() + 7, nullptr, 10));
    if (o.alpha == 0) usage("stretchN needs a numeric N, e.g. stretch5");
    spanner = build_stretch_spanner(g, o).spanner;
  } else {
    usage("unknown algorithm: " + algorithm);
  }
  write_graph_file(args[2], spanner.h);

  Table t({"quantity", "value"});
  t.add("input edges", spanner.stats.input_edges);
  t.add("spanner edges", spanner.h.num_edges());
  t.add("compression",
        static_cast<double>(spanner.h.num_edges()) /
            static_cast<double>(g.num_edges()));
  t.add("reinserted", spanner.stats.reinserted_edges);
  t.print(std::cout);
  return 0;
}

int cmd_verify(const std::vector<std::string>& args) {
  if (args.size() < 2) usage("verify needs <in> <spanner>");
  const Graph g = read_graph_file(args[0]);
  const Graph h = read_graph_file(args[1]);
  const double alpha =
      args.size() > 2 ? std::strtod(args[2].c_str(), nullptr) : 3.0;
  if (h.num_vertices() != g.num_vertices() || !g.contains_subgraph(h)) {
    std::cout << "FAIL: spanner is not a subgraph of the input\n";
    return 1;
  }
  const auto report = measure_distance_stretch(g, h, 64);
  std::cout << "max stretch " << report.max_stretch << ", mean "
            << report.mean_stretch << ", unreachable " << report.unreachable
            << "\n";
  if (!report.satisfies(alpha)) {
    std::cout << "FAIL: stretch exceeds " << alpha << "\n";
    return 1;
  }
  std::cout << "OK: " << alpha << "-distance spanner\n";
  return 0;
}

int cmd_route(const std::vector<std::string>& args) {
  if (args.size() < 3) usage("route needs <in> <spanner> <workload>");
  const Graph g = read_graph_file(args[0]);
  const Graph h = read_graph_file(args[1]);
  const std::string& workload = args[2];
  const std::uint64_t seed = arg_u64(args, 3, 1);

  DetourRouter router(h, h);
  if (workload == "matching") {
    const auto matching = random_matching_problem(g, seed);
    const auto report =
        measure_matching_congestion(g, h, matching, router, seed + 1);
    std::cout << "matching of " << matching.size() << " pairs: C_G = "
              << report.base_congestion
              << ", C_H = " << report.spanner_congestion
              << ", max path length = " << report.max_length_ratio << "\n";
  } else if (workload == "permutation" || workload == "all-edges") {
    const auto problem = workload == "permutation"
                             ? random_permutation_problem(g.num_vertices(),
                                                          seed)
                             : all_edges_problem(g);
    const Routing p = shortest_path_routing(g, problem, seed + 1);
    const auto report =
        measure_general_congestion(g, h, p, router, seed + 2);
    std::cout << workload << " (" << problem.size() << " pairs): C_G = "
              << report.base_congestion
              << ", C_H = " << report.spanner_congestion << " (stretch "
              << report.congestion_stretch() << "), max length ratio "
              << report.max_length_ratio << "\n";
  } else {
    usage("unknown workload: " + workload);
  }
  return 0;
}

int cmd_report(const std::vector<std::string>& args) {
  if (args.size() < 2) usage("report needs <in.graph> <spanner.graph>");
  const Graph g = read_graph_file(args[0]);
  const Graph h = read_graph_file(args[1]);
  SpannerReportOptions o;
  o.seed = arg_u64(args, 2, 1);
  DetourRouter router(h, h);
  const auto report = make_spanner_report(g, h, router, o);
  std::cout << report.to_string();
  return report.connected && report.max_stretch > 0.0 ? 0 : 1;
}

int cmd_simulate(const std::vector<std::string>& args) {
  if (args.size() < 2) usage("simulate needs <graph> <workload>");
  const Graph g = read_graph_file(args[0]);
  const std::string& workload = args[1];
  const std::uint64_t seed = arg_u64(args, 2, 1);

  RoutingProblem problem;
  if (workload == "permutation") {
    problem = random_permutation_problem(g.num_vertices(), seed);
  } else if (workload == "matching") {
    problem = random_matching_problem(g, seed);
  } else {
    usage("unknown workload: " + workload);
  }
  const Routing routing = shortest_path_routing(g, problem, seed + 1);
  const auto sim =
      simulate_store_and_forward(g, routing, {.seed = seed + 2});
  const std::size_t c = node_congestion(routing, g.num_vertices());
  std::cout << workload << " of " << problem.size()
            << " packets: congestion " << c << ", dilation " << sim.dilation
            << ", makespan " << sim.makespan << " (lower bound "
            << PacketSimResult::lower_bound(c, sim.dilation)
            << "), mean latency " << sim.mean_latency << ", max queue "
            << sim.max_queue << "\n";
  return 0;
}

int cmd_tables(const std::vector<std::string>& args) {
  if (args.empty()) usage("tables needs <graph>");
  const Graph g = read_graph_file(args[0]);
  const auto tables = RoutingTables::build(g, arg_u64(args, 1, 0));
  std::cout << "next-hop tables: " << tables.total_bits() << " bits total ("
            << static_cast<double>(tables.total_bits()) / 8192.0
            << " KiB), " << tables.bits_per_entry() << " bits/entry\n";
  return 0;
}

// Smoke-tests the query-serving engine on a stored (spanner) graph: serves
// a skewed distance/route workload through the batched path, spot-checks a
// sample of answers against scalar BFS ground truth, and prints the
// engine's coalescing/cache tallies. Exit 0 when every spot-check matches,
// 1 on any mismatch, 2 on usage errors (uniform with the other commands).
int cmd_serve_bench(const std::vector<std::string>& args) {
  if (args.empty()) usage("serve-bench needs <spanner.graph>");
  const Graph h = read_graph_file(args[0]);
  if (h.num_vertices() < 2) usage("serve-bench needs at least 2 vertices");
  const std::size_t num_queries = arg_u64(args, 1, 4096);
  const std::uint64_t seed = arg_u64(args, 2, 1);

  Rng rng(mix64(seed, 0x5e12));
  const std::size_t hot = std::max<std::size_t>(1, h.num_vertices() / 64);
  std::vector<serve::Query> queries;
  queries.reserve(num_queries);
  for (std::size_t i = 0; i < num_queries; ++i) {
    serve::Query q;
    q.kind = rng.bernoulli(0.25) ? serve::QueryKind::kRoute
                                 : serve::QueryKind::kDistance;
    q.u = rng.bernoulli(0.5)
              ? static_cast<Vertex>(rng.uniform(hot))
              : static_cast<Vertex>(rng.uniform(h.num_vertices()));
    q.v = static_cast<Vertex>(rng.uniform(h.num_vertices()));
    queries.push_back(q);
  }

  serve::QueryEngine engine(h);
  Timer timer;
  const auto results = engine.serve_batch(queries);
  const double elapsed_ms = timer.millis();

  // Spot-check a deterministic sample against the scalar oracle. A
  // shutdown signal ends the (BFS-heavy) sweep early; the checks done so
  // far still count.
  std::size_t mismatches = 0;
  bool spot_check_complete = true;
  const std::size_t stride = std::max<std::size_t>(1, num_queries / 64);
  for (std::size_t i = 0; i < queries.size(); i += stride) {
    if (g_stop.load(std::memory_order_relaxed)) {
      spot_check_complete = false;
      break;
    }
    const auto truth = bfs_distances(h, queries[i].u);
    if (results[i].distance != truth[queries[i].v]) ++mismatches;
    if (queries[i].kind == serve::QueryKind::kRoute &&
        results[i].distance != kUnreachable &&
        path_length(results[i].path) != results[i].distance) {
      ++mismatches;
    }
  }

  const auto s = engine.stats();
  Table t({"quantity", "value"});
  t.add("queries", s.queries);
  t.add("distance / route", std::to_string(s.distance_queries) + " / " +
                                std::to_string(s.route_queries));
  t.add("elapsed ms", elapsed_ms);
  t.add("queries/s", static_cast<double>(s.queries) / (elapsed_ms / 1e3));
  t.add("MS-BFS sources swept", s.coalesced_sources);
  t.add("cache hits / misses / evictions",
        std::to_string(s.cache_hits) + " / " + std::to_string(s.cache_misses) +
            " / " + std::to_string(s.cache_evictions));
  t.add("route rows filled", s.route_rows_filled);
  t.add("unreachable answers", s.unreachable);
  t.print(std::cout);

  if (mismatches != 0) {
    std::cout << "FAIL: " << mismatches
              << " spot-checked answers disagree with scalar BFS\n";
    return 1;
  }
  std::cout << (spot_check_complete
                    ? "OK: all spot-checked answers match scalar BFS\n"
                    : "OK (interrupted): spot checks done before shutdown "
                      "all match scalar BFS\n");
  return 0;
}

int cmd_resilience(const std::vector<std::string>& args) {
  if (args.size() < 2) usage("resilience needs <in.graph> <spanner.graph>");
  const Graph g = read_graph_file(args[0]);
  const Graph h = read_graph_file(args[1]);
  const double edge_fraction =
      args.size() > 2 ? std::strtod(args[2].c_str(), nullptr) : 0.1;
  const std::size_t vertex_faults = arg_u64(args, 3, 2);
  const std::uint64_t seed = arg_u64(args, 4, 1);
  if (h.num_vertices() != g.num_vertices() || !g.contains_subgraph(h)) {
    std::cout << "FAIL: spanner is not a subgraph of the input\n";
    return 1;
  }

  FailureInjectorOptions fo;
  fo.seed = seed;
  fo.edge_fault_fraction = edge_fraction;
  fo.vertex_faults_per_wave = vertex_faults;
  const auto schedule = FailureInjector(g, fo).generate();
  FaultState state(g.num_vertices());
  state.apply(schedule.events);

  const HealthMonitor monitor(g);
  const auto before = monitor.check(h, state);
  SpannerRepairOptions ro;
  ro.seed = seed + 1;
  const auto repaired = repair_spanner_after(g, h, state, schedule.events, ro);
  const Graph g_surv = state.surviving(g);
  const auto after = monitor.check_surviving(g_surv, repaired.h, state);
  const auto rebuilt = rebuild_spanner(g_surv, ro);

  Table t({"quantity", "value"});
  t.add("edge faults", schedule.edge_crashes());
  t.add("vertex faults", schedule.vertex_crashes());
  t.add("health before", std::string(to_string(before.distance)));
  t.add("repair outcome", std::string(to_string(repaired.outcome)));
  t.add("candidate edges", repaired.candidate_edges);
  t.add("reinserted edges", repaired.reinserted_edges);
  t.add("health after", std::string(to_string(after.distance)));
  t.add("repair [ms]", repaired.seconds * 1e3);
  t.add("rebuild [ms]", rebuilt.seconds * 1e3);
  t.print(std::cout);
  std::cout << before.summary() << "\n" << after.summary() << "\n";
  return after.distance == GuaranteeStatus::kHeld ? 0 : 1;
}

int cmd_soak(const std::vector<std::string>& args) {
  if (args.size() < 2) usage("soak needs <in.graph> <spanner.graph>");
  const Graph g = read_graph_file(args[0]);
  const Graph h = read_graph_file(args[1]);
  if (h.num_vertices() != g.num_vertices() || !g.contains_subgraph(h)) {
    std::cout << "FAIL: spanner is not a subgraph of the input\n";
    return 1;
  }

  SoakOptions o;
  o.waves = arg_u64(args, 2, 1000);
  o.seed = arg_u64(args, 3, 1);
  o.churn.edge_churn_rate = 0.02;
  o.churn.vertex_churn_rate = 0.004;
  o.churn.recovery_rate = 0.25;
  o.churn.flap_probability = 0.3;
  o.churn.flap_duration = 2;
  o.artifacts_dir = g_artifacts_dir;
  o.inject_repair_bug = g_inject_repair_bug;
  o.qps = g_qps;
  o.dispatchers = static_cast<std::size_t>(g_dispatchers);
  o.inject_stale_cache_bug = g_inject_stale_cache_bug;
  if (o.inject_stale_cache_bug && o.qps == 0) {
    usage("--inject-stale-cache-bug needs query traffic (--qps=N)");
  }
  if (o.dispatchers > 1 && o.qps == 0) {
    usage("--dispatchers needs query traffic (--qps=N)");
  }
  o.persist_dir = g_persist_dir;
  o.checkpoint_interval = static_cast<std::size_t>(g_checkpoint_interval);
  o.crash_at_wave = static_cast<std::size_t>(g_crash_at_wave);
  if (o.crash_at_wave > 0 && o.persist_dir.empty()) {
    usage("--crash-at-wave needs a durable directory (--persist-dir=DIR)");
  }
  o.stop_flag = &g_stop;

  SoakResult result;
  if (!g_replay_path.empty()) {
    std::ifstream is(g_replay_path);
    if (!is.good()) usage("cannot open replay schedule: " + g_replay_path);
    const auto schedule = read_schedule(is);
    o.waves = std::max(o.waves, schedule.num_waves());
    result = replay_soak(g, h, schedule, o);
  } else {
    result = run_soak(g, h, o);
  }

  Table t({"quantity", "value"});
  t.add("waves", result.waves_run);
  t.add("events", result.schedule.events.size());
  t.add("repairs", result.repairs);
  t.add("rebuilds", result.rebuilds);
  t.add("recertifications", result.recertifications);
  t.add("max repair debt", result.max_debt);
  t.add("worst state", std::string(to_string(result.worst_state)));
  t.add("final state", std::string(to_string(result.final_state)));
  t.add("traffic bursts", result.sims_run);
  t.add("packets injected", result.packets_injected);
  t.add("packets delivered", result.packets_delivered);
  t.add("packets shed", result.packets_shed);
  if (o.qps > 0) {
    t.add("query batches", result.query_batches);
    t.add("queries submitted", result.queries_submitted);
    t.add("queries served", result.queries_served);
    t.add("queries shed", result.queries_shed);
    t.add("epochs published", result.epochs_published);
    t.add("epochs adopted", result.epochs_adopted);
  }
  if (!o.persist_dir.empty()) {
    t.add("checkpoints written", result.checkpoints_written);
    t.add("final generation", result.final_generation);
    if (result.crash_recovery_ran) {
      t.add("recovery generation", result.recovery_generation);
      t.add("recovery WAL waves", result.recovery_wal_replayed);
      t.add("recovery [ms]", result.recovery_seconds * 1e3);
    }
  }
  t.print(std::cout);
  std::cout << result.summary() << "\n";
  if (result.stopped_early) {
    std::cout << "stopped early by signal; artifacts are complete up to "
                 "wave " << result.waves_run << "\n";
  }
  if (!g_artifacts_dir.empty()) {
    std::cout << "artifacts written to " << g_artifacts_dir << "\n";
  }
  return result.ok() ? 0 : 1;
}

// Cuts generation 1 of a durable checkpoint directory from a certified
// (graph, spanner) pair: the state `dcs_tool recover` — or a restarted
// daemon — rebuilds the live oracle from.
int cmd_checkpoint(const std::vector<std::string>& args) {
  if (args.size() < 3) usage("checkpoint needs <in> <spanner> <dir>");
  const Graph g = read_graph_file(args[0]);
  const Graph h = read_graph_file(args[1]);
  if (h.num_vertices() != g.num_vertices() || !g.contains_subgraph(h)) {
    std::cout << "FAIL: spanner is not a subgraph of the input\n";
    return 1;
  }

  SpannerSupervisor supervisor(g, h);
  persist::DurabilityManager durability(args[2]);
  supervisor.attach_durability(&durability);
  if (!supervisor.checkpoint_now()) {
    std::cout << "FAIL: checkpoint write failed: " << durability.last_error()
              << "\n";
    return 1;
  }

  Table t({"quantity", "value"});
  t.add("directory", durability.dir());
  t.add("generation", durability.generation());
  t.add("checkpoint",
        durability.checkpoint_path(durability.generation()));
  t.add("vertices", g.num_vertices());
  t.add("graph edges", g.num_edges());
  t.add("spanner edges", h.num_edges());
  t.add("WAL healthy", std::string(durability.wal_healthy() ? "yes" : "no"));
  t.print(std::cout);
  std::cout << "OK: generation " << durability.generation()
            << " published\n";
  return 0;
}

// Rebuilds the supervised oracle from the newest valid generation on
// disk, prints the recovery report, and spot-checks the recovered
// spanner's stretch on the surviving network against the recertified
// bound. Exit 0 when recovery lands a non-lost certificate, 1 when it
// fails closed (or the spot checks disagree with the certificate).
int cmd_recover(const std::vector<std::string>& args) {
  if (args.size() < 2) usage("recover needs <in.graph> <dir>");
  const Graph g = read_graph_file(args[0]);

  persist::DurabilityManager durability(args[1]);
  SupervisorRecovery recovery;
  const auto supervisor =
      SpannerSupervisor::recover(g, durability, {}, recovery);
  if (supervisor == nullptr) {
    std::cout << "FAIL: " << recovery.error << "\n";
    return 1;
  }

  Table t({"quantity", "value"});
  t.add("generation loaded", recovery.generation);
  t.add("checkpoint wave", recovery.checkpoint_wave);
  t.add("generations skipped", recovery.generations_skipped);
  t.add("WAL waves replayed", recovery.wal_waves_replayed);
  t.add("WAL events replayed", recovery.wal_events_replayed);
  t.add("WAL tail truncated",
        std::string(recovery.wal_truncated ? "yes" : "no"));
  t.add("certificate", std::string(to_string(recovery.certificate)));
  t.add("certified alpha", recovery.certified_alpha);
  t.add("recheckpointed", std::string(recovery.recheckpointed ? "yes" : "no"));
  t.add("spanner edges", supervisor->spanner().num_edges());
  t.add("repair debt", supervisor->repair_debt());
  t.add("ladder state", std::string(to_string(supervisor->ladder_state())));
  t.add("recovery [ms]", recovery.seconds * 1e3);
  t.add("  load [ms]", recovery.load_seconds * 1e3);
  t.add("  replay [ms]", recovery.replay_seconds * 1e3);
  t.add("  recheck [ms]", recovery.recheck_seconds * 1e3);
  t.print(std::cout);
  std::cout << recovery.summary() << "\n";

  if (recovery.certificate == GuaranteeStatus::kLost) {
    std::cout << "FAIL: recovered state does not recertify\n";
    return 1;
  }

  // Spot-check: the recertified bound must actually hold on a BFS sample
  // of the surviving network — a recovery that loaded the wrong spanner
  // would pass the certificate gauge but fail here.
  const Graph g_surv = supervisor->fault_state().surviving(g);
  const Graph& h = supervisor->spanner();
  const std::size_t n = g_surv.num_vertices();
  std::size_t checked = 0;
  std::size_t violations = 0;
  const std::size_t sources = std::min<std::size_t>(n, 16);
  for (std::size_t i = 0; i < sources; ++i) {
    const auto s = static_cast<Vertex>(i * (n / sources));
    const auto dg = bfs_distances(g_surv, s);
    const auto dh = bfs_distances(h, s);
    for (Vertex v = 0; v < n; ++v) {
      if (dg[v] == kUnreachable) continue;
      ++checked;
      if (dh[v] == kUnreachable ||
          static_cast<double>(dh[v]) >
              recovery.certified_alpha * static_cast<double>(dg[v])) {
        ++violations;
      }
    }
  }
  if (violations != 0) {
    std::cout << "FAIL: " << violations << " of " << checked
              << " spot-checked pairs exceed the certified stretch\n";
    return 1;
  }
  std::cout << "OK: recovered, recertified ("
            << to_string(recovery.certificate) << ", alpha "
            << recovery.certified_alpha << "), " << checked
            << " spot-checked pairs inside the bound\n";
  return 0;
}

// End-to-end driver: one invocation that exercises generation, the Theorem 3
// construction, the verifier, and the packet simulator. With --trace-out /
// --metrics-out this yields a trace covering every construction phase plus
// the simulator's load histograms from a single process.
int cmd_pipeline(const std::vector<std::string>& args) {
  if (args.empty()) usage("pipeline needs <n>");
  const std::size_t n = arg_u64(args, 0, 0);
  if (n < 8) usage("pipeline needs n >= 8");
  std::size_t delta = arg_u64(args, 1, 0);
  if (delta == 0) {
    delta = static_cast<std::size_t>(
        std::llround(std::pow(static_cast<double>(n), 2.0 / 3.0)));
  }
  if (delta % 2 != 0) ++delta;  // keep n·Δ even for the regular generator
  if (delta >= n) usage("pipeline needs delta < n");
  const std::uint64_t seed = arg_u64(args, 2, 1);

  const Graph g = random_regular(n, delta, seed);
  RegularSpannerOptions o;
  o.seed = seed + 1;
  const auto built = build_regular_spanner(g, o);
  const Graph& h = built.spanner.h;

  const auto stretch = measure_distance_stretch(g, h, 64);
  const auto problem = random_permutation_problem(n, seed + 2);
  const Routing routing = shortest_path_routing(h, problem, seed + 3);
  const auto sim = simulate_store_and_forward(h, routing, {.seed = seed + 4});

  Table t({"quantity", "value"});
  t.add("vertices", n);
  t.add("degree", delta);
  t.add("input edges", g.num_edges());
  t.add("spanner edges", h.num_edges());
  t.add("reinserted", built.spanner.stats.reinserted_edges);
  t.add("max stretch", stretch.max_stretch);
  t.add("unreachable", stretch.unreachable);
  t.add("sim makespan", sim.makespan);
  t.add("sim max queue", sim.max_queue);
  t.print(std::cout);
  // Uniform exit-code convention: any failed check is 1, not just the
  // stretch measurement — a timed-out simulation is a failed check too.
  return stretch.unreachable == 0 && sim.status == SimStatus::kCompleted
             ? 0
             : 1;
}

int cmd_info(const std::vector<std::string>& args) {
  if (args.empty()) usage("info needs <in>");
  const Graph g = read_graph_file(args[0]);
  Table t({"quantity", "value"});
  t.add("vertices", g.num_vertices());
  t.add("edges", g.num_edges());
  t.add("min degree", g.min_degree());
  t.add("max degree", g.max_degree());
  t.add("regular", std::string(g.is_regular() ? "yes" : "no"));
  t.add("connected", std::string(is_connected(g) ? "yes" : "no"));
  if (g.num_vertices() >= 2 && g.num_edges() >= 1) {
    const auto expansion = estimate_expansion(g);
    t.add("lambda1", expansion.lambda1);
    t.add("lambda (expansion)", expansion.lambda);
    t.add("normalized expansion", expansion.normalized());
  }
  t.print(std::cout);
  return 0;
}

// --- `top`: client side of obs::StatsEndpoint ------------------------------

// Writes the whole request with EINTR retries, short-write looping, and
// no SIGPIPE — a stats endpoint that went away mid-poll must surface as a
// clean error, not kill the client.
bool write_all_bytes(int fd, std::string_view s) {
  while (!s.empty()) {
    const ssize_t n = ::send(fd, s.data(), s.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;
    s.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

// Pulls one '\n'-terminated reply off the socket; `pending` buffers any
// bytes read past the newline for the next call.
bool read_reply_line(int fd, std::string& pending, std::string& line) {
  for (;;) {
    const auto nl = pending.find('\n');
    if (nl != std::string::npos) {
      line = pending.substr(0, nl);
      pending.erase(0, nl + 1);
      return true;
    }
    char buf[4096];
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    pending.append(buf, static_cast<std::size_t>(n));
  }
}

// Renders one "all" reply: serving-plane counters/gauges, SLO burn-rate
// windows, and the flight-recorder tail.
void render_top(const obs::JsonValue& all) {
  static constexpr std::string_view kPrefixes[] = {"serve.", "supervisor.",
                                                   "snapshot."};
  const auto serving_plane = [&](const std::string& name) {
    for (const auto prefix : kPrefixes) {
      if (name.rfind(prefix, 0) == 0) return true;
    }
    return false;
  };

  const auto& metrics = all.at("metrics");
  Table counters({"metric", "value"});
  std::size_t shown = 0;
  for (const auto& [name, value] : metrics.at("counters").as_object()) {
    if (!serving_plane(name)) continue;
    counters.add(name, static_cast<std::uint64_t>(value.as_number()));
    ++shown;
  }
  for (const auto& [name, value] : metrics.at("gauges").as_object()) {
    if (!serving_plane(name)) continue;
    counters.add(name, value.as_number());
    ++shown;
  }
  if (shown == 0) {
    std::cout << "(no serving-plane metrics yet — is --metrics-out / "
                 "metrics enablement on in the serving process?)\n";
  } else {
    counters.print(std::cout);
  }

  // SLO windows read better as plain lines (one per window, long then
  // short) than squeezed into the two-column table helper.
  const auto& slo = all.at("slo").as_object();
  for (const auto& [name, tracker] : slo) {
    for (const auto& window : tracker.at("windows").as_array()) {
      std::cout << "slo " << name << ": " << window.at("seconds").as_number()
                << "s window, total "
                << static_cast<std::uint64_t>(window.at("total").as_number())
                << ", breaching "
                << static_cast<std::uint64_t>(
                       window.at("breaching").as_number())
                << ", burn rate " << window.at("burn_rate").as_number()
                << "\n";
    }
  }

  const auto& events = all.at("flight").at("flight").as_array();
  const std::size_t show = std::min<std::size_t>(events.size(), 8);
  std::cout << "flight tail (" << show << " of " << events.size() << "):\n";
  for (std::size_t i = events.size() - show; i < events.size(); ++i) {
    const auto& e = events[i];
    std::cout << "  " << e.at("kind").as_string() << " "
              << e.at("detail").as_string() << " a="
              << static_cast<std::uint64_t>(e.at("a").as_number()) << " b="
              << static_cast<std::uint64_t>(e.at("b").as_number()) << "\n";
  }
}

// Live introspection client: connects to a --stats-socket endpoint, asks
// for the "all" section, and renders it every --interval-ms (or once).
// Exit 0 after a successful render, 2 on connect/protocol problems —
// there is no "check failed" outcome, so 1 is never returned.
int cmd_top(const std::vector<std::string>& args) {
  if (args.empty()) usage("top needs <socket-path>");
  const std::string& path = args[0];

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    usage("socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    std::cerr << "error: socket(): " << std::strerror(errno) << "\n";
    return 2;
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    std::cerr << "error: cannot connect to " << path << ": "
              << std::strerror(errno) << "\n";
    ::close(fd);
    return 2;
  }

  std::string pending;
  std::uint64_t polls = 0;
  for (;;) {
    std::string line;
    if (!write_all_bytes(fd, "all\n") || !read_reply_line(fd, pending, line)) {
      std::cerr << "error: stats endpoint at " << path
                << " closed the connection\n";
      ::close(fd);
      return 2;
    }
    obs::JsonValue all;
    try {
      all = obs::parse_json(line);
    } catch (const std::exception& e) {
      std::cerr << "error: malformed stats reply: " << e.what() << "\n";
      ::close(fd);
      return 2;
    }
    if (polls > 0) std::cout << "\n";
    std::cout << "== " << path << " poll " << ++polls << " ==\n";
    render_top(all);
    if (g_top_once) break;
    // Sleep in short slices so SIGTERM/SIGINT ends the poll loop promptly
    // instead of after a full interval.
    for (std::uint64_t slept = 0;
         slept < g_top_interval_ms &&
         !g_stop.load(std::memory_order_relaxed);
         slept += 50) {
      std::this_thread::sleep_for(std::chrono::milliseconds(
          std::min<std::uint64_t>(50, g_top_interval_ms - slept)));
    }
    if (g_stop.load(std::memory_order_relaxed)) break;
  }
  ::close(fd);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Observability flags are position-independent: strip them out first so
  // every subcommand accepts them without having to parse them itself.
  std::vector<std::string> words;
  std::string log_spec;
  std::string metrics_out;
  std::string trace_out;
  bool log_json = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a.rfind("--log-level=", 0) == 0) {
      log_spec = a.substr(12);
    } else if (a == "--log-json") {
      log_json = true;
    } else if (a.rfind("--metrics-out=", 0) == 0) {
      metrics_out = a.substr(14);
    } else if (a.rfind("--trace-out=", 0) == 0) {
      trace_out = a.substr(12);
    } else if (a.rfind("--artifacts-dir=", 0) == 0) {
      g_artifacts_dir = a.substr(16);
    } else if (a.rfind("--replay=", 0) == 0) {
      g_replay_path = a.substr(9);
    } else if (a == "--inject-repair-bug") {
      g_inject_repair_bug = true;
    } else if (a == "--inject-stale-cache-bug") {
      g_inject_stale_cache_bug = true;
    } else if (a.rfind("--qps=", 0) == 0) {
      g_qps = std::strtoull(std::string(a.substr(6)).c_str(), nullptr, 10);
    } else if (a.rfind("--dispatchers=", 0) == 0) {
      const auto n = parse_u64_strict(a.substr(14));
      if (!n || *n == 0) {
        usage("--dispatchers needs a positive dispatcher count: " +
              std::string(a));
      }
      g_dispatchers = *n;
    } else if (a.rfind("--persist-dir=", 0) == 0) {
      g_persist_dir = a.substr(14);
    } else if (a.rfind("--checkpoint-interval=", 0) == 0) {
      const auto n = parse_u64_strict(a.substr(22));
      if (!n || *n == 0) {
        usage("--checkpoint-interval needs a positive wave count: " +
              std::string(a));
      }
      g_checkpoint_interval = *n;
    } else if (a.rfind("--crash-at-wave=", 0) == 0) {
      const auto n = parse_u64_strict(a.substr(16));
      if (!n) usage("--crash-at-wave needs a wave number: " + std::string(a));
      g_crash_at_wave = *n;
    } else if (a.rfind("--flight-buffer=", 0) == 0) {
      const auto n = parse_u64_strict(a.substr(16));
      if (!n) usage("--flight-buffer needs an event count: " + std::string(a));
      if (*n == 0) {
        obs::FlightRecorder::instance().set_enabled(false);
      } else {
        obs::FlightRecorder::instance().set_capacity(
            static_cast<std::size_t>(*n));
      }
    } else if (a.rfind("--stats-socket=", 0) == 0) {
      g_stats_socket = a.substr(15);
    } else if (a == "--once") {
      g_top_once = true;
    } else if (a.rfind("--interval-ms=", 0) == 0) {
      const auto n = parse_u64_strict(a.substr(14));
      if (!n) usage("--interval-ms needs a number: " + std::string(a));
      g_top_interval_ms = *n;
    } else if (a.rfind("--", 0) == 0) {
      usage("unknown flag: " + std::string(a));
    } else {
      words.emplace_back(a);
    }
  }
  if (words.empty()) usage();

  if (log_json) {
    obs::Logger::instance().set_format(obs::Logger::Format::kJsonLines);
  }
  if (!log_spec.empty()) obs::Logger::instance().configure(log_spec);
  if (!metrics_out.empty()) obs::set_metrics_enabled(true);
  if (!trace_out.empty()) obs::Trace::start();
  // Black-box contract: any abort or fatal signal leaves the flight
  // recorder's tail behind, next to the other artifacts when a directory
  // is set.
  obs::FlightRecorder::instance().arm_crash_dump(
      g_artifacts_dir.empty() ? "flight.json"
                              : g_artifacts_dir + "/flight.json");
  // Graceful shutdown: SIGTERM/SIGINT set a flag the long-running modes
  // poll, so a terminated soak still writes its artifacts and a
  // --stats-socket endpoint still unlinks its socket (both run on the
  // normal return path below). SIGPIPE is ignored outright — socket
  // writes use MSG_NOSIGNAL and handle the error return instead.
  std::signal(SIGTERM, handle_shutdown_signal);
  std::signal(SIGINT, handle_shutdown_signal);
  std::signal(SIGPIPE, SIG_IGN);
  // Flush on every exit path (including errors) so a failed run still
  // leaves its telemetry behind for diagnosis.
  const auto flush_obs = [&] {
    if (!trace_out.empty()) obs::Trace::write_json(trace_out);
    if (!metrics_out.empty()) {
      obs::MetricsRegistry::instance().write(metrics_out);
    }
  };

  const std::string command = words.front();
  const std::vector<std::string> args(words.begin() + 1, words.end());
  int rc = 2;
  std::unique_ptr<obs::StatsEndpoint> stats;
  try {
    if (!g_stats_socket.empty()) {
      stats = std::make_unique<obs::StatsEndpoint>(
          obs::StatsEndpoint::Options{.socket_path = g_stats_socket});
      stats->start();
    }
    if (command == "gen") rc = cmd_gen(args);
    else if (command == "spanner") rc = cmd_spanner(args);
    else if (command == "verify") rc = cmd_verify(args);
    else if (command == "route") rc = cmd_route(args);
    else if (command == "report") rc = cmd_report(args);
    else if (command == "simulate") rc = cmd_simulate(args);
    else if (command == "tables") rc = cmd_tables(args);
    else if (command == "serve-bench") rc = cmd_serve_bench(args);
    else if (command == "resilience") rc = cmd_resilience(args);
    else if (command == "soak") rc = cmd_soak(args);
    else if (command == "checkpoint") rc = cmd_checkpoint(args);
    else if (command == "recover") rc = cmd_recover(args);
    else if (command == "pipeline") rc = cmd_pipeline(args);
    else if (command == "info") rc = cmd_info(args);
    else if (command == "top") rc = cmd_top(args);
    else usage("unknown command: " + command);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    flush_obs();
    return 2;
  }
  flush_obs();
  return rc;
}
