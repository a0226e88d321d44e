#include "resilience/spanner_repair.hpp"

#include <algorithm>
#include <cmath>

#include "core/support.hpp"
#include "graph/subgraph.hpp"
#define DCS_LOG_COMPONENT "repair"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "routing/matching.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace dcs {

namespace {

// Salt for the repair resampling coin, so repaired regions draw fresh
// randomness instead of replaying the original construction's coin.
constexpr std::uint64_t kResampleSalt = 0x5e5a11edULL;

/// Average degree over the non-isolated vertices of g (isolated vertices
/// are dead hosts, not part of the surviving network).
double surviving_average_degree(const Graph& g) {
  std::size_t active = 0;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (g.degree(v) > 0) ++active;
  }
  if (active == 0) return 0.0;
  return 2.0 * static_cast<double>(g.num_edges()) /
         static_cast<double>(active);
}

std::vector<Edge> candidate_edges(const Graph& g_surviving,
                                  std::span<const Vertex> frontier) {
  std::vector<std::uint8_t> dirty(g_surviving.num_vertices(), 0);
  for (Vertex v : frontier) dirty[v] = 1;
  std::vector<Edge> candidates;
  for (Edge e : g_surviving.edges()) {
    if (dirty[e.u] || dirty[e.v]) candidates.push_back(e);
  }
  return candidates;
}

std::size_t count_endpoints(std::span<const Edge> edges, std::size_t n) {
  std::vector<std::uint8_t> seen(n, 0);
  std::size_t count = 0;
  for (Edge e : edges) {
    count += !seen[e.u] + !seen[e.v];
    seen[e.u] = 1;
    seen[e.v] = 1;
  }
  return count;
}

RepairResult repair_with_candidates(const Graph& g_surviving,
                                    const Graph& h_surviving,
                                    std::span<const Edge> candidates,
                                    std::size_t frontier_vertices,
                                    const SpannerRepairOptions& options);

}  // namespace

const char* to_string(RepairOutcome outcome) {
  switch (outcome) {
    case RepairOutcome::kNoop: return "noop";
    case RepairOutcome::kPatched: return "patched";
    case RepairOutcome::kRebuilt: return "rebuilt";
  }
  return "?";
}

std::vector<Vertex> damage_frontier(const Graph& g,
                                    std::span<const FaultEvent> events) {
  std::vector<std::uint8_t> mark(g.num_vertices(), 0);
  auto mark_neighborhood = [&](Vertex w) {
    for (Vertex x : g.neighbors(w)) mark[x] = 1;
  };
  for (const FaultEvent& e : events) {
    switch (e.kind) {
      case FaultKind::kVertexDown:
      case FaultKind::kVertexUp:
        mark_neighborhood(e.u);
        break;
      case FaultKind::kEdgeDown:
      case FaultKind::kEdgeUp:
        mark[e.u] = 1;
        mark[e.v] = 1;
        mark_neighborhood(e.u);
        mark_neighborhood(e.v);
        break;
    }
  }
  std::vector<Vertex> frontier;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (mark[v]) frontier.push_back(v);
  }
  return frontier;
}

std::vector<Edge> repair_candidates(const Graph& g, const Graph& g_surviving,
                                    std::span<const FaultEvent> events) {
  const std::size_t n = g.num_vertices();
  DCS_REQUIRE(g_surviving.num_vertices() == n,
              "surviving graph must share the vertex set");
  EdgeSet endangered;

  // Vertex events: w can appear as either interior of a ≤3-hop replacement,
  // which forces an endpoint of the covered edge into N_G(w).
  std::vector<std::uint8_t> near_vertex(n, 0);
  bool any_vertex_event = false;
  for (const FaultEvent& ev : events) {
    if (ev.kind != FaultKind::kVertexDown && ev.kind != FaultKind::kVertexUp) {
      continue;
    }
    any_vertex_event = true;
    for (Vertex x : g.neighbors(ev.u)) near_vertex[x] = 1;
  }
  if (any_vertex_event) {
    for (Edge e : g_surviving.edges()) {
      if (near_vertex[e.u] || near_vertex[e.v]) endangered.insert(e);
    }
  }

  // Edge events: a replacement u-…-v of length ≤ 3 can traverse (x,z) only
  // with u ∈ N[x], v ∈ N[z] (up to swapping x and z), so both endpoints
  // must sit near the faulted edge — one near each side.
  std::vector<std::uint8_t> in_nz(n, 0);
  std::vector<Vertex> stamped;
  for (const FaultEvent& ev : events) {
    if (ev.kind != FaultKind::kEdgeDown && ev.kind != FaultKind::kEdgeUp) {
      continue;
    }
    in_nz[ev.v] = 1;
    stamped.push_back(ev.v);
    for (Vertex y : g.neighbors(ev.v)) {
      in_nz[y] = 1;
      stamped.push_back(y);
    }
    // Scanning from the N[x] side alone covers both orientations: an edge
    // with one endpoint in N[x] and the other in N[z] is seen from its
    // N[x]-endpoint either way.
    auto scan_from = [&](Vertex w) {
      for (Vertex y : g_surviving.neighbors(w)) {
        if (in_nz[y]) endangered.insert(canonical(w, y));
      }
    };
    scan_from(ev.u);
    for (Vertex w : g.neighbors(ev.u)) scan_from(w);
    for (Vertex w : stamped) in_nz[w] = 0;
    stamped.clear();
  }

  auto out = endangered.to_vector();
  // EdgeSet iteration order is unspecified; sort for reproducible repairs.
  std::ranges::sort(out, [](Edge a, Edge b) {
    return edge_key(a) < edge_key(b);
  });
  return out;
}

RepairResult repair_spanner(const Graph& g_surviving,
                            const Graph& h_surviving,
                            std::span<const Vertex> frontier,
                            const SpannerRepairOptions& options) {
  return repair_with_candidates(g_surviving, h_surviving,
                                candidate_edges(g_surviving, frontier),
                                frontier.size(), options);
}

RepairResult repair_spanner(const Graph& g_surviving,
                            const Graph& h_surviving,
                            std::span<const Edge> candidates,
                            const SpannerRepairOptions& options) {
  return repair_with_candidates(
      g_surviving, h_surviving, candidates,
      count_endpoints(candidates, g_surviving.num_vertices()), options);
}

namespace {

RepairResult repair_with_candidates(const Graph& g_surviving,
                                    const Graph& h_surviving,
                                    std::span<const Edge> candidates,
                                    std::size_t frontier_vertices,
                                    const SpannerRepairOptions& options) {
  DCS_REQUIRE(g_surviving.num_vertices() == h_surviving.num_vertices(),
              "repair inputs must share the vertex set");
  DCS_REQUIRE(g_surviving.contains_subgraph(h_surviving),
              "spanner is not a subgraph of the surviving network");
  DCS_TRACE_SPAN("spanner_repair");
  Timer timer;

  auto& reg = obs::MetricsRegistry::instance();
  const auto note = [&](const RepairResult& r, std::size_t broken_edges) {
    reg.counter(std::string("repair.outcome.") + to_string(r.outcome)).inc();
    reg.histogram("repair.candidate_edges")
        .record(static_cast<double>(candidates.size()));
    reg.histogram("repair.broken_edges")
        .record(static_cast<double>(broken_edges));
    reg.histogram("repair.patch_ms").record(r.seconds * 1e3);
    DCS_LOG(Debug) << "repair: " << to_string(r.outcome) << ", "
                   << candidates.size() << " endangered, " << broken_edges
                   << " broken, +" << r.resampled_edges << " resampled +"
                   << r.reinserted_edges << " reinserted";
  };

  RepairResult result;
  result.frontier_vertices = frontier_vertices;
  result.candidate_edges = candidates.size();
  if (candidates.empty()) {
    result.h = h_surviving;
    result.outcome = RepairOutcome::kNoop;
    result.seconds = timer.seconds();
    note(result, 0);
    return result;
  }

  // Cheap screen first: most endangered edges kept their replacement (H
  // loses only its own share of the faults). Only the *broken* ones — not
  // in H∖F and without a surviving ≤3 replacement — need the construction
  // machinery re-run around them. The screen runs on the sparse H, so it is
  // far cheaper per edge than anything the rebuild does on G; with enough
  // candidates, H∖F's radius-2 balls answer each with one row AND.
  std::vector<std::uint8_t> is_broken(candidates.size(), 0);
  {
    DCS_TRACE_SPAN("screen");
    const ShortDistanceOracle h_near(h_surviving, candidates.size());
    parallel_for(0, candidates.size(), [&](std::size_t i) {
      const Edge e = candidates[i];
      if (!h_near.has_short_replacement(e.u, e.v)) is_broken[i] = 1;
    });
  }
  std::vector<Edge> broken;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (is_broken[i]) broken.push_back(candidates[i]);
  }

  if (broken.empty()) {
    result.h = h_surviving;
    result.outcome = RepairOutcome::kNoop;
    result.seconds = timer.seconds();
    note(result, 0);
    return result;
  }

  // Locality budget, measured on the actual damage: past this point a full
  // rebuild makes more progress per edge examined than patching would.
  if (static_cast<double>(broken.size()) >
      options.rebuild_threshold *
          static_cast<double>(g_surviving.num_edges())) {
    RepairResult rebuilt = rebuild_spanner(g_surviving, options);
    rebuilt.frontier_vertices = frontier_vertices;
    rebuilt.candidate_edges = candidates.size();
    note(rebuilt, broken.size());
    return rebuilt;
  }

  const double avg_degree = surviving_average_degree(g_surviving);
  const auto delta = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(avg_degree)));
  const RegularSpannerParams params =
      compute_regular_spanner_params(delta, options.build);
  const double rho =
      options.resample_rho > 0.0 ? options.resample_rho : params.rho;

  std::vector<Edge> patched = h_surviving.edges();
  const std::size_t base_edges = patched.size();

  if (options.strategy == RepairStrategy::kDetourPatch) {
    DCS_TRACE_SPAN("detour_patch");
    // Step 1 analog: restore router capacity around the damage with the
    // construction's deterministic coin (salted, so the repair does not
    // replay the original sample that the faults just destroyed). Only the
    // neighborhoods of broken edges draw new capacity.
    std::vector<std::uint8_t> near_broken(g_surviving.num_vertices(), 0);
    for (Edge e : broken) {
      near_broken[e.u] = 1;
      near_broken[e.v] = 1;
    }
    for (Edge e : candidates) {
      if ((near_broken[e.u] || near_broken[e.v]) &&
          !h_surviving.has_edge(e.u, e.v) &&
          edge_sampled(e, rho, mix64(options.seed, kResampleSalt))) {
        patched.push_back(e);
        ++result.resampled_edges;
      }
    }
    const Graph h1 = Graph::from_edges(g_surviving.num_vertices(), patched);

    // Steps 2+3 analog: the Ê test and the undetoured-edge rule, applied
    // to the broken edges only. Verdicts are evaluated against the static
    // h1, so they are order-independent and parallel.
    const SupportOracle g_support(g_surviving);
    const ShortDistanceOracle h1_near(h1, broken.size());
    std::vector<std::uint8_t> reinsert(broken.size(), 0);
    parallel_for(0, broken.size(), [&](std::size_t i) {
      const Edge e = broken[i];
      if (h1.has_edge(e.u, e.v)) return;
      if (!g_support.is_ab_supported(e, params.support_a,
                                     params.support_b) ||
          !h1_near.has_short_replacement(e.u, e.v)) {
        reinsert[i] = 1;
      }
    });
    for (std::size_t i = 0; i < broken.size(); ++i) {
      if (reinsert[i]) {
        patched.push_back(broken[i]);
        ++result.reinserted_edges;
      }
    }
  } else {
    DCS_TRACE_SPAN("matching_patch");
    // Theorem 2 repair: rebuild the neighborhood matching of every broken
    // edge and splice one matched 3-hop path back into the spanner.
    std::vector<std::vector<Edge>> additions(broken.size());
    std::vector<std::uint8_t> reinsert(broken.size(), 0);
    parallel_for(0, broken.size(), [&](std::size_t i) {
      const Edge e = broken[i];
      const auto nu = g_surviving.neighbors(e.u);
      const auto nv = g_surviving.neighbors(e.v);
      const auto matched = maximum_bipartite_matching(g_surviving, nu, nv);
      for (std::size_t k = 0; k < matched.size(); ++k) {
        // Deterministic per-edge pick spreads detour load across the
        // matching instead of always taking the first matched pair.
        const Edge m = matched[(mix64(options.seed, edge_key(e)) + k) %
                               matched.size()];
        Vertex x = m.u;
        Vertex z = m.v;
        if (!g_surviving.has_edge(e.u, x) || !g_surviving.has_edge(z, e.v)) {
          std::swap(x, z);
        }
        if (g_surviving.has_edge(e.u, x) && g_surviving.has_edge(z, e.v)) {
          additions[i] = {canonical(e.u, x), canonical(x, z),
                          canonical(z, e.v)};
          break;
        }
      }
      if (additions[i].empty()) reinsert[i] = 1;
    });
    for (std::size_t i = 0; i < broken.size(); ++i) {
      if (reinsert[i]) {
        patched.push_back(broken[i]);
        ++result.reinserted_edges;
      }
      for (Edge e : additions[i]) patched.push_back(e);
      result.resampled_edges += additions[i].size();
    }
  }

  result.h = Graph::from_edges(g_surviving.num_vertices(), patched);
  // Duplicate additions collapse in from_edges; recount what actually
  // landed so the stats stay truthful.
  result.resampled_edges =
      std::min(result.resampled_edges, result.h.num_edges() - base_edges);
  result.outcome = result.h.num_edges() == base_edges ? RepairOutcome::kNoop
                                                      : RepairOutcome::kPatched;
  result.seconds = timer.seconds();
  note(result, broken.size());
  return result;
}

}  // namespace

RepairResult repair_spanner_after(const Graph& g, const Graph& h,
                                  const FaultState& state,
                                  std::span<const FaultEvent> events,
                                  const SpannerRepairOptions& options) {
  const Graph g_surviving = state.surviving(g);
  const auto candidates = repair_candidates(g, g_surviving, events);
  return repair_spanner(g_surviving, state.surviving(h), candidates, options);
}

RepairResult rebuild_spanner(const Graph& g_surviving,
                             const SpannerRepairOptions& options) {
  DCS_TRACE_SPAN("rebuild");
  Timer timer;
  RepairResult result;
  result.outcome = RepairOutcome::kRebuilt;

  // Dead vertices are isolated in the surviving graph; Algorithm 1 rejects
  // isolated vertices, so rebuild on the induced live subgraph and map the
  // spanner back to host ids.
  std::vector<bool> keep(g_surviving.num_vertices(), false);
  std::size_t active = 0;
  for (Vertex v = 0; v < g_surviving.num_vertices(); ++v) {
    if (g_surviving.degree(v) > 0) {
      keep[v] = true;
      ++active;
    }
  }
  if (active < 2 || g_surviving.num_edges() == 0) {
    result.h = Graph(g_surviving.num_vertices());
    result.seconds = timer.seconds();
    return result;
  }
  const InducedSubgraph sub = induced_subgraph(g_surviving, keep);

  // Faults break exact regularity; widen the near-regular acceptance to the
  // survivors' actual degree spread (footnote 1 of the paper).
  RegularSpannerOptions build = options.build;
  build.seed = options.seed;
  const auto [sub_min_deg, sub_max_deg] = sub.graph.degree_bounds();
  const double ratio =
      static_cast<double>(sub_max_deg) /
      static_cast<double>(std::max<std::size_t>(1, sub_min_deg));
  build.max_degree_ratio = std::max(build.max_degree_ratio, ratio + 0.01);

  const auto rebuilt = build_regular_spanner(sub.graph, build);
  std::vector<Edge> host_edges;
  host_edges.reserve(rebuilt.spanner.h.num_edges());
  for (Edge e : rebuilt.spanner.h.edges()) {
    host_edges.push_back(sub.host_edge(e));
  }
  result.h = Graph::from_edges(g_surviving.num_vertices(), host_edges);
  result.candidate_edges = g_surviving.num_edges();
  result.reinserted_edges = rebuilt.spanner.stats.reinserted_edges;
  result.seconds = timer.seconds();
  return result;
}

}  // namespace dcs
