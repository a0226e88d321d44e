#include "core/verifier.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <mutex>

#include "core/support.hpp"
#include "graph/bfs.hpp"
#include "graph/traversal.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace dcs {

namespace {

/// One worker's share of a DistanceStretchReport.
struct StretchTally {
  double total = 0.0;
  double max = 0.0;
  std::size_t checked = 0;
  std::size_t unreachable = 0;

  /// One G-edge whose endpoints are `d` apart in H (kUnreachable when
  /// beyond the cap).
  void add(Dist d) {
    ++checked;
    if (d == kUnreachable) {
      ++unreachable;
    } else {
      total += d;
      max = std::max(max, static_cast<double>(d));
    }
  }
};

}  // namespace

DistanceStretchReport measure_distance_stretch(const Graph& g,
                                               const Graph& h, Dist cap) {
  DCS_REQUIRE(g.num_vertices() == h.num_vertices(),
              "spanner must share the vertex set");
  const std::size_t n = g.num_vertices();

  std::mutex merge_mutex;
  DistanceStretchReport report;
  double total = 0.0;
  auto merge = [&](const StretchTally& t) {
    std::lock_guard lock(merge_mutex);
    total += t.total;
    report.max_stretch = std::max(report.max_stretch, t.max);
    report.checked_edges += t.checked;
    report.unreachable += t.unreachable;
  };

  // Every G-edge of a valid 3-spanner has its endpoints at most 3 apart in
  // H, which H's radius-2 balls answer exactly: a ball distance is final
  // (beyond the cap it counts as unreachable), and an edge the balls leave
  // unresolved is more than 3 apart, so unreachable under a cap ≤ 3 and
  // otherwise measured by the BFS below. `unresolved` marks the vertices
  // with such a canonical (v > u) edge; without balls, that is every
  // vertex with a canonical edge.
  const ShortDistanceOracle near(h, g.num_edges());
  std::vector<std::uint8_t> unresolved(n, 0);
  auto ball_distance = [&](Vertex u, Vertex v) {
    return near.balled() ? near.distance(u, v) : kUnreachable;
  };
  parallel_chunks(0, n, [&](std::size_t lo, std::size_t hi, std::size_t) {
    StretchTally tally;
    for (std::size_t u = lo; u < hi; ++u) {
      for (Vertex v : g.neighbors(static_cast<Vertex>(u))) {
        if (v <= u) continue;
        const Dist d = ball_distance(static_cast<Vertex>(u), v);
        if (d != kUnreachable) {
          tally.add(d <= cap ? d : kUnreachable);
        } else if (near.balled() && cap <= 3) {
          tally.add(kUnreachable);
        } else {
          unresolved[u] = 1;
        }
      }
    }
    merge(tally);
  });

  // Batching the remaining sources 64 per multi-source pass is the single
  // hottest win in the repo — one sweep of H serves a whole word of them.
  std::vector<Vertex> sources;
  for (Vertex u = 0; u < n; ++u) {
    if (unresolved[u]) sources.push_back(u);
  }
  const std::size_t num_batches =
      (sources.size() + kMsBfsBatch - 1) / kMsBfsBatch;
  parallel_chunks(
      0, num_batches, [&](std::size_t lo, std::size_t hi, std::size_t) {
        StretchTally tally;
        auto& scratch = traversal_scratch();
        for (std::size_t b = lo; b < hi; ++b) {
          const std::size_t first = b * kMsBfsBatch;
          const std::size_t count =
              std::min(kMsBfsBatch, sources.size() - first);
          const std::span<const Vertex> batch(sources.data() + first, count);
          const MsBfsView view = multi_source_bfs(h, batch, cap, &scratch);
          for (std::size_t i = 0; i < count; ++i) {
            const Vertex u = batch[i];
            for (Vertex v : g.neighbors(u)) {
              if (v <= u || ball_distance(u, v) != kUnreachable) continue;
              tally.add(view.at(i, v));
            }
          }
        }
        merge(tally);
      });

  const std::size_t reached = report.checked_edges - report.unreachable;
  report.mean_stretch =
      reached == 0 ? 0.0 : total / static_cast<double>(reached);
  return report;
}

double exact_pairwise_stretch(const Graph& g, const Graph& h) {
  DCS_REQUIRE(g.num_vertices() == h.num_vertices(),
              "spanner must share the vertex set");
  const std::size_t n = g.num_vertices();
  std::atomic<std::uint64_t> worst_bits{0};
  auto update_max = [&worst_bits](double value) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    std::uint64_t cur = worst_bits.load(std::memory_order_relaxed);
    double cur_val;
    std::memcpy(&cur_val, &cur, sizeof(cur_val));
    while (value > cur_val &&
           !worst_bits.compare_exchange_weak(cur, bits)) {
      std::memcpy(&cur_val, &cur, sizeof(cur_val));
    }
  };

  const std::size_t num_batches = (n + kMsBfsBatch - 1) / kMsBfsBatch;
  parallel_chunks(
      0, num_batches, [&](std::size_t lo, std::size_t hi, std::size_t) {
        // Two arenas per worker: the G and H batches must stay live
        // simultaneously while their rows are compared.
        TraversalScratch scratch_g, scratch_h;
        for (std::size_t b = lo; b < hi; ++b) {
          const std::size_t first = b * kMsBfsBatch;
          const std::size_t count = std::min(kMsBfsBatch, n - first);
          std::array<Vertex, kMsBfsBatch> batch;
          for (std::size_t i = 0; i < count; ++i) {
            batch[i] = static_cast<Vertex>(first + i);
          }
          const std::span<const Vertex> sources(batch.data(), count);
          const MsBfsView dg =
              multi_source_bfs(g, sources, kUnreachable, &scratch_g);
          const MsBfsView dh =
              multi_source_bfs(h, sources, kUnreachable, &scratch_h);
          for (std::size_t i = 0; i < count; ++i) {
            const Vertex u = batch[i];
            for (Vertex v = u + 1; v < n; ++v) {
              const Dist dgv = dg.at(i, v);
              if (dgv == kUnreachable || dgv == 0) continue;
              const Dist dhv = dh.at(i, v);
              DCS_CHECK(dhv != kUnreachable,
                        "spanner disconnected a pair connected in G");
              update_max(static_cast<double>(dhv) /
                         static_cast<double>(dgv));
            }
          }
        }
      });

  std::uint64_t bits = worst_bits.load();
  double out;
  std::memcpy(&out, &bits, sizeof(out));
  return out;
}

CongestionReport measure_matching_congestion(const Graph& g, const Graph& h,
                                             const RoutingProblem& matching,
                                             const PairRouter& router,
                                             std::uint64_t seed) {
  DCS_REQUIRE(matching.is_matching(),
              "measure_matching_congestion requires a matching problem");
  for (auto [u, v] : matching.pairs) {
    DCS_REQUIRE(g.has_edge(u, v),
                "matching pairs must be edges of G so that C_G = 1");
  }
  const Routing base = Routing::direct_edges(matching);
  const Routing sub = route_problem(router, matching, seed);
  DCS_REQUIRE(routing_is_valid(h, matching, sub),
              "substitute routing is invalid on H");

  CongestionReport report;
  report.base_congestion = node_congestion(base, g.num_vertices());
  report.spanner_congestion = node_congestion(sub, h.num_vertices());
  for (std::size_t i = 0; i < sub.paths.size(); ++i) {
    report.max_length_ratio =
        std::max(report.max_length_ratio,
                 static_cast<double>(path_length(sub.paths[i])));
  }
  return report;
}

CongestionReport measure_general_congestion(const Graph& g, const Graph& h,
                                            const Routing& p_on_g,
                                            const PairRouter& router,
                                            std::uint64_t seed) {
  // Implied problem: each path's endpoints.
  RoutingProblem problem;
  problem.pairs.reserve(p_on_g.paths.size());
  for (const auto& path : p_on_g.paths) {
    DCS_REQUIRE(path.size() >= 2, "paths must have at least one edge");
    problem.pairs.emplace_back(path.front(), path.back());
  }
  DCS_REQUIRE(routing_is_valid(g, problem, p_on_g),
              "input routing is invalid on G");

  const SubstituteRouting sub = substitute_routing_via_matchings(
      g.num_vertices(), p_on_g, matching_route_fn(router), seed);
  DCS_REQUIRE(routing_is_valid(h, problem, sub.routing),
              "substitute routing is invalid on H");

  CongestionReport report;
  report.base_congestion = node_congestion(p_on_g, g.num_vertices());
  report.spanner_congestion = node_congestion(sub.routing, h.num_vertices());
  report.decomposition = sub.stats;
  for (std::size_t i = 0; i < sub.routing.paths.size(); ++i) {
    const double lp = static_cast<double>(path_length(p_on_g.paths[i]));
    const double lq = static_cast<double>(path_length(sub.routing.paths[i]));
    if (lp > 0) {
      report.max_length_ratio = std::max(report.max_length_ratio, lq / lp);
    }
  }
  return report;
}

}  // namespace dcs
