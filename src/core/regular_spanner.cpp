#include "core/regular_spanner.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <span>
#include <vector>

#include "core/support.hpp"
#define DCS_LOG_COMPONENT "spanner"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace dcs {

namespace {

/// The first rows of `blocks` contiguous row ranges of g that hold equal
/// shares of its canonical edges (v > u), followed by n. Row u holds about
/// Δ(n−u)/n of them, so equal row ranges would hand the first of four
/// blocks 44% of the edges.
std::vector<std::size_t> balanced_row_blocks(const Graph& g,
                                             std::size_t blocks) {
  const std::size_t n = g.num_vertices();
  std::vector<std::size_t> first(blocks + 1, n);
  first[0] = 0;
  std::size_t seen = 0;
  std::size_t b = 1;
  for (Vertex u = 0; u < n && b < blocks; ++u) {
    const auto nb = g.neighbors(u);
    seen += static_cast<std::size_t>(
        nb.end() - std::upper_bound(nb.begin(), nb.end(), u));
    while (b < blocks && seen * blocks >= b * g.num_edges()) {
      first[b++] = u + 1;
    }
  }
  return first;
}

/// Runs body(first_row, end_row, out) over the row blocks, one block per
/// pool worker, and returns the blocks' outputs concatenated in block
/// order. Each block appends only to its own list, so a body that emits
/// the canonical edges of its rows in order yields a canonical list. A call
/// from inside a parallel region runs all rows as one block.
template <typename Body>
std::vector<Edge> collect_row_blocks(const std::vector<std::size_t>& first,
                                     Body&& body) {
  std::vector<std::vector<Edge>> parts(first.size() - 1);
  parallel_chunks(0, parts.size(),
                  [&](std::size_t lo, std::size_t hi, std::size_t) {
                    body(first[lo], first[hi], parts[lo]);
                  });
  std::size_t total = 0;
  for (const auto& part : parts) total += part.size();
  std::vector<Edge> out;
  out.reserve(total);
  for (const auto& part : parts) {
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

/// The neighbours of u above u: u's canonical edges.
std::span<const Vertex> upper_neighbors(const Graph& g, Vertex u) {
  const auto nb = g.neighbors(u);
  return {std::upper_bound(nb.begin(), nb.end(), u), nb.end()};
}

}  // namespace

RegularSpannerParams compute_regular_spanner_params(
    std::size_t delta, const RegularSpannerOptions& options) {
  DCS_REQUIRE(delta >= 1, "degree must be positive");
  RegularSpannerParams params;
  params.delta = delta;
  params.delta_prime = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(
             options.delta_prime_factor *
             std::sqrt(static_cast<double>(delta)))));
  params.rho =
      std::min(1.0, static_cast<double>(params.delta_prime) /
                        static_cast<double>(delta));
  params.support_a = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(
             options.support_a_factor *
             static_cast<double>(params.delta_prime))));
  params.support_b = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(
             options.support_b_factor * static_cast<double>(delta))));
  return params;
}

RegularSpannerResult build_regular_spanner(
    const Graph& g, const RegularSpannerOptions& options) {
  DCS_REQUIRE(g.num_vertices() >= 2, "spanner input too small");
  const auto [min_deg, max_deg] = g.degree_bounds();
  DCS_REQUIRE(min_deg >= 1, "input graph has isolated vertices");
  std::size_t delta;
  if (options.max_degree_ratio <= 1.0) {
    DCS_REQUIRE(min_deg == max_deg,
                "Algorithm 1 requires a Δ-regular input (set "
                "max_degree_ratio > 1 for near-regular graphs)");
    delta = min_deg;
  } else {
    // Footnote 1: degrees within a constant factor of each other.
    DCS_REQUIRE(static_cast<double>(max_deg) <=
                    options.max_degree_ratio * static_cast<double>(min_deg),
                "input degrees exceed the allowed near-regular ratio");
    delta = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::llround(
               2.0 * static_cast<double>(g.num_edges()) /
               static_cast<double>(g.num_vertices()))));
  }

  const RegularSpannerParams params =
      compute_regular_spanner_params(delta, options);

  RegularSpannerResult result;
  result.delta = delta;
  result.delta_prime = params.delta_prime;
  const double rho = params.rho;
  result.support_a = params.support_a;
  result.support_b = params.support_b;

  DCS_TRACE_SPAN("regular_spanner");
  const std::size_t n = g.num_vertices();
  // Both passes walk G's rows in blocks of equal edge shares; each block
  // emits the canonical edges of its rows in order.
  const auto blocks = balanced_row_blocks(g, ThreadPool::shared().size());

  // Step 1: independent sampling with the shared per-edge coin, so the
  // distributed construction (dist/dist_spanner) reproduces G' exactly.
  std::vector<Edge> sampled;
  {
    DCS_TRACE_SPAN("sample");
    const std::size_t expected = static_cast<std::size_t>(
        rho * static_cast<double>(g.num_edges()) /
        static_cast<double>(blocks.size() - 1) * 1.2) + 16;
    sampled = collect_row_blocks(
        blocks, [&](std::size_t lo, std::size_t hi, std::vector<Edge>& out) {
          out.reserve(expected);
          for (auto u = static_cast<Vertex>(lo); u < hi; ++u) {
            for (Vertex v : upper_neighbors(g, u)) {
              if (edge_sampled(Edge{u, v}, rho, options.seed)) {
                out.push_back(Edge{u, v});
              }
            }
          }
        });
    result.sampled = Graph::from_edges(n, sampled);
  }
  const std::size_t removed = g.num_edges() - sampled.size();

  // Steps 2+3: every edge of G missing from G′ is reinserted if it fails
  // the Ê test, or if it passes but has no replacement of length ≤ 3 in G′.
  std::vector<Edge> reinserted;
  std::atomic<std::size_t> unsupported{0};
  std::atomic<std::size_t> undetoured{0};
  {
    DCS_TRACE_SPAN("support_reinsert_loop");
    // Dense inputs get word-parallel oracles via the adjacency bitmap;
    // sparse inputs stay on the sorted merge. Step 3 asks "d_G′(u,v) ≤ 3?"
    // of every supported removed edge, which the radius-2 balls of G′
    // answer with one rows-meet test each once there are enough such
    // edges.
    const SupportOracle support(g);
    const ShortDistanceOracle sampled_near(
        result.sampled, options.reinsert_undetoured ? removed : 0);
    const std::size_t a = result.support_a;
    const std::size_t b = result.support_b;
    // Edge by edge, the Ê test makes at least b base tests per removed
    // edge. Once that is at least n²/2, test every unordered base once
    // instead: with S the bases of ≥ a+1 routers, the a-supported
    // extensions (v,z) of (u,v) toward v are exactly the bits of S_u & N(v)
    // (S_u has no bit u).
    const AdjacencyBitmap& adjacency = support.bitmap();
    const AdjacencyBitmap bases =
        support.bitmapped() && n * n <= 2 * removed * b
            ? adjacency.supported_bases(a + 1)
            : AdjacencyBitmap{};
    // N(v) has at most n − |S_u| vertices outside S_u, so
    // |S_u ∩ N(v)| ≥ deg(v) − (n − |S_u|): where that alone reaches b, the
    // row AND is not needed. |S_u| is row u's popcount, common_count(u, u).
    std::vector<std::size_t> bases_in_row(bases.num_vertices(), 0);
    parallel_chunks(0, bases_in_row.size(),
                    [&](std::size_t lo, std::size_t hi, std::size_t) {
                      for (auto u = static_cast<Vertex>(lo); u < hi; ++u) {
                        bases_in_row[u] = bases.common_count(u, u);
                      }
                    });
    auto supported_toward = [&](Vertex u, Vertex v) {
      if (g.degree(v) + bases_in_row[u] >= b + n) return true;
      return simd::and_popcount_at_least(bases.row(u).data(),
                                         adjacency.row(v).data(),
                                         adjacency.words_per_row(), b);
    };
    reinserted = collect_row_blocks(
        blocks, [&](std::size_t lo, std::size_t hi, std::vector<Edge>& out) {
          std::size_t block_unsupported = 0;
          std::size_t block_undetoured = 0;
          for (auto u = static_cast<Vertex>(lo); u < hi; ++u) {
            // G′'s row is a subsequence of G's: walking both in step
            // leaves exactly the removed edges (u, v), v > u.
            const auto kept = upper_neighbors(result.sampled, u);
            auto next_kept = kept.begin();
            for (Vertex v : upper_neighbors(g, u)) {
              if (next_kept != kept.end() && *next_kept == v) {
                ++next_kept;
                continue;
              }
              const bool supported =
                  bases.empty() ? support.is_ab_supported(Edge{u, v}, a, b)
                                : supported_toward(u, v) ||
                                      supported_toward(v, u);
              if (!supported) {
                if (options.reinsert_unsupported) {
                  out.push_back(Edge{u, v});
                  ++block_unsupported;
                }
              } else if (options.reinsert_undetoured &&
                         !sampled_near.has_short_replacement(u, v)) {
                out.push_back(Edge{u, v});
                ++block_undetoured;
              }
            }
          }
          unsupported += block_unsupported;
          undetoured += block_undetoured;
        });
  }
  result.reinserted_unsupported = unsupported;
  result.reinserted_undetoured = undetoured;

  DCS_TRACE_SPAN("assemble");
  // Both lists are sublists of G's canonical edge list, so their merge is
  // canonical too and from_edges need not sort it.
  std::vector<Edge> spanner_edges(sampled.size() + reinserted.size());
  std::merge(sampled.begin(), sampled.end(), reinserted.begin(),
             reinserted.end(), spanner_edges.begin());

  result.spanner.h = Graph::from_edges(n, spanner_edges);
  auto& stats = result.spanner.stats;
  stats.input_edges = g.num_edges();
  stats.sampled_edges = sampled.size();
  stats.reinserted_edges =
      result.reinserted_unsupported + result.reinserted_undetoured;
  stats.spanner_edges = result.spanner.h.num_edges();
  stats.sample_probability = rho;

  // Aggregated once per build (no per-edge atomics in the loops above):
  // every removed edge is one iteration of the support-test + reinsert
  // loop, so the counter tracks the Theorem 3 loop's total work.
  auto& reg = obs::MetricsRegistry::instance();
  reg.counter("spanner.regular.builds").inc();
  reg.counter("spanner.regular.edges_sampled").inc(sampled.size());
  reg.counter("spanner.regular.reinsert_loop_iterations").inc(removed);
  reg.counter("spanner.regular.support_tests").inc(removed);
  reg.counter("spanner.regular.edges_reinserted")
      .inc(stats.reinserted_edges);
  DCS_LOG(Debug) << "regular spanner: n=" << n << " Δ=" << delta
                 << " ρ=" << rho << " sampled " << sampled.size() << "/"
                 << g.num_edges() << ", reinserted "
                 << result.reinserted_unsupported << " unsupported + "
                 << result.reinserted_undetoured << " undetoured";
  return result;
}

}  // namespace dcs
