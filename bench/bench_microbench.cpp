// Microbenchmarks of the library's hot kernels. Two sections:
//
//  * a kernel-comparison pass (runs first, always): times the scalar
//    reference implementations against the batched traversal engine and
//    the bitmap support oracle on identical inputs, checks the outputs
//    are checksum-identical, and emits the timings and speedup ratios
//    through PerfRecord so tools/bench_compare can diff runs against the
//    committed baselines in bench/baselines/;
//  * the google-benchmark suite (BFS, spanner constructions, edge
//    coloring, bipartite matching, spectral estimation, decomposition).
//    Pass --benchmark_filter=^$ to skip it (CI's perf-smoke job does).

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <vector>

#include "bench_common.hpp"
#include "core/expander_spanner.hpp"
#include "util/simd.hpp"
#include "core/matching_decomposition.hpp"
#include "core/regular_spanner.hpp"
#include "core/router.hpp"
#include "core/support.hpp"
#include "graph/bfs.hpp"
#include "graph/dijkstra.hpp"
#include "graph/generators.hpp"
#include "graph/traversal.hpp"
#include "graph/weighted_graph.hpp"
#include "routing/edge_coloring.hpp"
#include "routing/matching.hpp"
#include "routing/mwu_routing.hpp"
#include "routing/packet_sim.hpp"
#include "routing/shortest_paths.hpp"
#include "routing/tables.hpp"
#include "routing/workloads.hpp"
#include "spectral/expansion.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace {

using namespace dcs;

const Graph& shared_graph(std::size_t n, std::size_t delta) {
  static std::map<std::pair<std::size_t, std::size_t>, Graph> cache;
  auto [it, inserted] = cache.try_emplace({n, delta});
  if (inserted) it->second = random_regular(n, delta, 12345);
  return it->second;
}

void BM_BfsDistances(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Graph& g = shared_graph(n, 16);
  Vertex source = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bfs_distances(g, source));
    source = static_cast<Vertex>((source + 1) % n);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_edges()));
}
BENCHMARK(BM_BfsDistances)->Arg(1024)->Arg(4096);

void BM_RegularSpannerBuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto delta = static_cast<std::size_t>(
      std::llround(std::pow(static_cast<double>(n), 2.0 / 3.0)));
  const Graph& g = shared_graph(n, delta + delta % 2);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    RegularSpannerOptions o;
    o.seed = ++seed;
    benchmark::DoNotOptimize(build_regular_spanner(g, o));
  }
}
BENCHMARK(BM_RegularSpannerBuild)->Arg(256)->Arg(512);

void BM_ExpanderSpannerBuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Graph& g = shared_graph(n, 64);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    ExpanderSpannerOptions o;
    o.seed = ++seed;
    benchmark::DoNotOptimize(build_expander_spanner(g, o));
  }
}
BENCHMARK(BM_ExpanderSpannerBuild)->Arg(512);

void BM_MisraGries(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Graph& g = shared_graph(n, 24);
  for (auto _ : state) {
    benchmark::DoNotOptimize(misra_gries_edge_coloring(g));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_edges()));
}
BENCHMARK(BM_MisraGries)->Arg(512)->Arg(1024);

void BM_HopcroftKarpNeighborhoods(benchmark::State& state) {
  const Graph& g = shared_graph(1024, 96);
  Vertex u = 0;
  for (auto _ : state) {
    const Vertex v = g.neighbors(u)[0];
    std::vector<Vertex> nu(g.neighbors(u).begin(), g.neighbors(u).end());
    std::vector<Vertex> nv(g.neighbors(v).begin(), g.neighbors(v).end());
    benchmark::DoNotOptimize(maximum_bipartite_matching(g, nu, nv));
    u = static_cast<Vertex>((u + 1) % g.num_vertices());
  }
}
BENCHMARK(BM_HopcroftKarpNeighborhoods);

void BM_ExpansionEstimate(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Graph& g = shared_graph(n, 16);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(estimate_expansion(g, 60, ++seed));
  }
}
BENCHMARK(BM_ExpansionEstimate)->Arg(1024);

void BM_SupportTest(benchmark::State& state) {
  const Graph& g = shared_graph(512, 64);
  const auto edges = g.edges();
  std::size_t i = 0;
  for (auto _ : state) {
    const Edge e = edges[i++ % edges.size()];
    benchmark::DoNotOptimize(is_ab_supported(g, e, 2, 16));
  }
}
BENCHMARK(BM_SupportTest);

void BM_Dijkstra(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const WeightedGraph g =
      WeightedGraph::from_unweighted(shared_graph(n, 16));
  Vertex source = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dijkstra_distances(g, source));
    source = static_cast<Vertex>((source + 1) % n);
  }
}
BENCHMARK(BM_Dijkstra)->Arg(1024)->Arg(4096);

void BM_MwuRound(benchmark::State& state) {
  const Graph& g = shared_graph(256, 16);
  const auto problem = random_pairs_problem(256, 200, 3);
  MwuOptions o;
  o.rounds = 1;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    o.seed = ++seed;
    benchmark::DoNotOptimize(mwu_min_congestion(g, problem, o));
  }
}
BENCHMARK(BM_MwuRound);

void BM_PacketSim(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Graph& g = shared_graph(n, 16);
  const auto problem = random_permutation_problem(n, 5);
  const Routing p = shortest_path_routing(g, problem, 7);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        simulate_store_and_forward(g, p, {.seed = ++seed}));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(problem.size()));
}
BENCHMARK(BM_PacketSim)->Arg(1024);

void BM_RoutingTables(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Graph& g = shared_graph(n, 16);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(RoutingTables::build(g, ++seed));
  }
}
BENCHMARK(BM_RoutingTables)->Arg(512);

void BM_DecompositionPipeline(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Graph& g = shared_graph(n, 16);
  const auto problem = random_pairs_problem(n, n / 2, 7);
  const Routing p = shortest_path_routing(g, problem, 9);
  DetourRouter router(g, g);
  const auto fn = matching_route_fn(router);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        substitute_routing_via_matchings(n, p, fn, ++seed));
  }
}
BENCHMARK(BM_DecompositionPipeline)->Arg(256);

// ---------------------------------------------------------------------------
// Kernel comparisons: scalar reference vs accelerated engine, same inputs,
// checksum-verified outputs. Single-threaded so the ratios measure the
// kernels, not the pool.

/// Best-of-k wall time of `fn` in milliseconds; `fn` returns a checksum.
template <typename Fn>
double best_of(int k, std::uint64_t& checksum, Fn&& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < k; ++rep) {
    Timer t;
    checksum = fn();
    best = std::min(best, t.seconds() * 1e3);
  }
  return best;
}

void report_kernel(bench::PerfRecord&, const char* name, const char* gauge,
                   double scalar_ms, double fast_ms) {
  const double speedup = scalar_ms / fast_ms;
  auto& reg = obs::MetricsRegistry::instance();
  reg.gauge(std::string("bench.microbench.") + gauge + "_scalar_ms")
      .set(scalar_ms);
  reg.gauge(std::string("bench.microbench.") + gauge + "_fast_ms")
      .set(fast_ms);
  reg.gauge(std::string("bench.microbench.") + gauge + "_speedup")
      .set(speedup);
  std::printf("%-28s scalar %9.3f ms   engine %9.3f ms   speedup %5.2fx\n",
              name, scalar_ms, fast_ms, speedup);
}

/// MS-BFS verification kernel: all-distances from a batch of sources, the
/// shape of measure_distance_stretch / exact_pairwise_stretch.
void kernel_msbfs(bench::PerfRecord& rec) {
  const std::size_t n = 2048;
  const Graph& g = shared_graph(n, 16);
  constexpr std::size_t kSources = 192;  // 3 full batches

  std::uint64_t scalar_sum = 0;
  const double scalar_ms = best_of(3, scalar_sum, [&] {
    std::uint64_t sum = 0;
    for (std::size_t s = 0; s < kSources; ++s) {
      const auto dist = bfs_distances(g, static_cast<Vertex>(s));
      for (Dist d : dist) sum += d;
    }
    return sum;
  });

  std::uint64_t ms_sum = 0;
  const double ms_ms = best_of(3, ms_sum, [&] {
    std::uint64_t sum = 0;
    std::vector<Vertex> batch;
    for (std::size_t lo = 0; lo < kSources; lo += kMsBfsBatch) {
      batch.clear();
      for (std::size_t s = lo; s < lo + kMsBfsBatch; ++s) {
        batch.push_back(static_cast<Vertex>(s));
      }
      const MsBfsView view = multi_source_bfs(g, batch);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        for (Vertex v = 0; v < n; ++v) sum += view.at(i, v);
      }
    }
    return sum;
  });
  DCS_CHECK(scalar_sum == ms_sum, "MS-BFS checksum mismatch");
  report_kernel(rec, "batched BFS verify (n=2048)", "msbfs", scalar_ms,
                ms_ms);
}

/// Support counting in the paper's dense regime (Δ ≈ n^{2/3}): sorted-merge
/// reference vs the bitmap oracle.
void kernel_bitmap_support(bench::PerfRecord& rec) {
  const std::size_t n = 2048;
  const Graph& g = shared_graph(n, bench::degree_for(n, 2.0 / 3.0));
  const auto edges = g.edges();
  const std::size_t kEdges = std::min<std::size_t>(edges.size(), 2000);

  std::uint64_t scalar_sum = 0;
  const double scalar_ms = best_of(3, scalar_sum, [&] {
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < kEdges; ++i) {
      sum += count_supported_extensions(g, edges[i].u, edges[i].v, 2);
    }
    return sum;
  });

  const SupportOracle oracle(g);
  DCS_CHECK(oracle.bitmapped(),
            "dense benchmark graph should trigger the bitmap");
  std::uint64_t bitmap_sum = 0;
  const double bitmap_ms = best_of(3, bitmap_sum, [&] {
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < kEdges; ++i) {
      sum += oracle.count_supported_extensions(edges[i].u, edges[i].v, 2);
    }
    return sum;
  });
  DCS_CHECK(scalar_sum == bitmap_sum, "bitmap support checksum mismatch");
  report_kernel(rec, "support counting (Δ=n^2/3)", "bitmap_support",
                scalar_ms, bitmap_ms);
}

/// Re-times `fn` on the forced-scalar tier and checks the checksum is
/// bit-identical to `expected` — the dispatch layer's contract, verified
/// in-process on every bench run. Exports the checksum as a gauge so CI
/// can also diff it across separate SIMD and DCS_FORCE_SCALAR=1 runs.
/// Restores (rather than clears) the override so a forced-scalar process
/// stays forced-scalar.
template <typename Fn>
void check_tier_invariance(const char* gauge, std::uint64_t expected,
                           Fn&& fn) {
  const bool prev = simd::force_scalar();
  simd::set_force_scalar(true);
  std::uint64_t scalar_tier = 0;
  best_of(1, scalar_tier, fn);
  simd::set_force_scalar(prev);
  DCS_CHECK(scalar_tier == expected,
            "SIMD and forced-scalar tiers disagree");
  obs::MetricsRegistry::instance()
      .gauge(std::string("bench.microbench.checksum.") + gauge)
      .set(static_cast<double>(expected));
}

/// Support counting at n=4096 in the paper's dense regime: sorted-merge
/// reference vs the bitmap oracle's AND+popcount kernel.
void kernel_bitmap_support_4096(bench::PerfRecord& rec) {
  const std::size_t n = 4096;
  const Graph& g = shared_graph(n, bench::degree_for(n, 2.0 / 3.0));
  const auto edges = g.edges();
  const std::size_t kEdges = std::min<std::size_t>(edges.size(), 1500);

  std::uint64_t scalar_sum = 0;
  const double scalar_ms = best_of(3, scalar_sum, [&] {
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < kEdges; ++i) {
      sum += count_supported_extensions(g, edges[i].u, edges[i].v, 2);
    }
    return sum;
  });

  const SupportOracle oracle(g);
  DCS_CHECK(oracle.bitmapped(),
            "dense 4096 benchmark graph should trigger the bitmap");
  const auto fast_pass = [&] {
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < kEdges; ++i) {
      sum += oracle.count_supported_extensions(edges[i].u, edges[i].v, 2);
    }
    return sum;
  };
  std::uint64_t bitmap_sum = 0;
  const double bitmap_ms = best_of(3, bitmap_sum, fast_pass);
  DCS_CHECK(scalar_sum == bitmap_sum,
            "bitmap support 4096 checksum mismatch");
  check_tier_invariance("bitmap_support4096", bitmap_sum, fast_pass);
  report_kernel(rec, "support counting (n=4096)", "bitmap_support4096",
                scalar_ms, bitmap_ms);
}

void run_kernel_comparisons() {
  bench::PerfRecord rec("microbench");
  bench::print_header("Traversal-engine kernel comparisons",
                      "Scalar reference vs batched engine on identical "
                      "inputs; outputs checksum-verified equal.");
  std::printf("SIMD dispatch tier: %s (hardware: %s)\n\n",
              simd::tier_name(simd::active_tier()),
              simd::tier_name(simd::hardware_tier()));
  {
    ScopedTimer t(rec.phase("msbfs"));
    kernel_msbfs(rec);
  }
  {
    ScopedTimer t(rec.phase("bitmap_support"));
    kernel_bitmap_support(rec);
  }
  {
    ScopedTimer t(rec.phase("bitmap_support4096"));
    kernel_bitmap_support_4096(rec);
  }
}

// google-benchmark entries for the same kernels, for interactive use.

void BM_MultiSourceBfs(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Graph& g = shared_graph(n, 16);
  std::vector<Vertex> batch(kMsBfsBatch);
  Vertex base = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < kMsBfsBatch; ++i) {
      batch[i] = static_cast<Vertex>((base + i) % n);
    }
    benchmark::DoNotOptimize(multi_source_bfs(g, batch));
    base = static_cast<Vertex>((base + kMsBfsBatch) % n);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kMsBfsBatch));
}
BENCHMARK(BM_MultiSourceBfs)->Arg(1024)->Arg(4096);

void BM_BitmapSupportTest(benchmark::State& state) {
  const Graph& g = shared_graph(512, 64);
  static const SupportOracle oracle(g);
  const auto edges = g.edges();
  std::size_t i = 0;
  for (auto _ : state) {
    const Edge e = edges[i++ % edges.size()];
    benchmark::DoNotOptimize(oracle.is_ab_supported(e, 2, 16));
  }
}
BENCHMARK(BM_BitmapSupportTest);

/// Algorithm 1 step 3's ball test B₂(u) ∩ N(v) ≠ ∅ in G′ at n = 2048,
/// Δ = 320, over the removed edges of G whose ends are more than 2 apart
/// in G′: simd::rows_meet (Arg 1) against the threshold kernel at k = 1
/// (Arg 0), which gives the same answers.
void BM_Step3RowsMeet(benchmark::State& state) {
  static const Graph sampled =
      build_regular_spanner(shared_graph(2048, 320), {}).sampled;
  static const AdjacencyBitmap adjacency(sampled);
  static const AdjacencyBitmap ball = adjacency.two_ball(sampled);
  static const std::vector<Edge> pairs = [] {
    std::vector<Edge> out;
    for (const Edge& e : shared_graph(2048, 320).edges()) {
      if (!ball.test(e.u, e.v)) out.push_back(e);
    }
    return out;
  }();
  const std::size_t words = adjacency.words_per_row();
  for (auto _ : state) {
    std::size_t met = 0;
    for (const Edge& e : pairs) {
      const std::uint64_t* a = ball.row(e.u).data();
      const std::uint64_t* b = adjacency.row(e.v).data();
      met += state.range(0) != 0 ? simd::rows_meet(a, b, words)
                                 : simd::and_popcount_at_least(a, b, words, 1);
    }
    benchmark::DoNotOptimize(met);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() *
                                                    pairs.size()));
}
BENCHMARK(BM_Step3RowsMeet)->Arg(0)->Arg(1);

void BM_HasEdge(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Graph& g = shared_graph(n, 64);
  std::uint64_t x = 0x9e3779b97f4a7c15ull;  // xorshift query stream
  for (auto _ : state) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const auto u = static_cast<Vertex>(x % n);
    const auto v = static_cast<Vertex>((x >> 32) % n);
    benchmark::DoNotOptimize(g.has_edge(u, v));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_HasEdge)->Arg(1024)->Arg(4096);

}  // namespace

int main(int argc, char** argv) {
  run_kernel_comparisons();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
