#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/regular_spanner.hpp"
#include "core/support.hpp"
#include "core/verifier.hpp"
#include "graph/connectivity.hpp"
#include "graph/generators.hpp"
#include "util/thread_pool.hpp"

namespace dcs {
namespace {

RegularSpannerOptions default_options(std::uint64_t seed = 1) {
  RegularSpannerOptions o;
  o.seed = seed;
  return o;
}

/// Algorithm 1's H rebuilt edge by edge from G' with the per-edge Ê test
/// and the scalar 3-detour check, whichever way build_regular_spanner
/// evaluated either.
Graph per_edge_spanner(const Graph& g, const RegularSpannerResult& built) {
  const SupportOracle support(g);
  std::vector<Edge> kept;
  for (Edge e : g.edges()) {
    if (built.sampled.has_edge(e.u, e.v) ||
        !support.is_ab_supported(e, built.support_a, built.support_b) ||
        !has_short_replacement(built.sampled, e.u, e.v)) {
      kept.push_back(e);
    }
  }
  return Graph::from_edges(g.num_vertices(), kept);
}

/// FNV-1a over the canonical edge list.
std::uint64_t edge_digest(const Graph& g) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const Edge& e : g.edges()) {
    for (Vertex x : {e.u, e.v}) {
      h ^= x;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

TEST(RegularSpanner, RequiresRegularInput) {
  const Graph g = path_graph(10);
  EXPECT_THROW(build_regular_spanner(g), std::invalid_argument);
}

TEST(RegularSpanner, ParamsMatchPaperFormulas) {
  RegularSpannerOptions o;
  o.delta_prime_factor = 1.0;
  o.support_a_factor = 0.25;
  o.support_b_factor = 0.25;
  const auto p = compute_regular_spanner_params(100, o);
  EXPECT_EQ(p.delta, 100u);
  EXPECT_EQ(p.delta_prime, 10u);  // √Δ
  EXPECT_DOUBLE_EQ(p.rho, 0.1);   // Δ'/Δ
  EXPECT_EQ(p.support_a, 3u);     // round(0.25·10) (min 1)
  EXPECT_EQ(p.support_b, 25u);
}

TEST(RegularSpanner, SpannerIsSubgraphWithSameVertices) {
  const Graph g = random_regular(100, 24, 3);
  const auto result = build_regular_spanner(g, default_options());
  EXPECT_EQ(result.spanner.h.num_vertices(), g.num_vertices());
  EXPECT_TRUE(g.contains_subgraph(result.spanner.h));
  EXPECT_TRUE(result.spanner.h.contains_subgraph(result.sampled));
}

TEST(RegularSpanner, StatsAreConsistent) {
  const Graph g = random_regular(120, 30, 5);
  const auto result = build_regular_spanner(g, default_options(7));
  const auto& s = result.spanner.stats;
  EXPECT_EQ(s.input_edges, g.num_edges());
  EXPECT_EQ(s.spanner_edges, result.spanner.h.num_edges());
  EXPECT_EQ(s.reinserted_edges,
            result.reinserted_unsupported + result.reinserted_undetoured);
  EXPECT_EQ(s.sampled_edges, result.sampled.num_edges());
  EXPECT_EQ(s.spanner_edges, s.sampled_edges + s.reinserted_edges);
  EXPECT_GT(s.sample_probability, 0.0);
  EXPECT_LE(s.sample_probability, 1.0);
}

TEST(RegularSpanner, DeterministicPerSeed) {
  const Graph g = random_regular(80, 20, 9);
  const auto a = build_regular_spanner(g, default_options(5));
  const auto b = build_regular_spanner(g, default_options(5));
  const auto c = build_regular_spanner(g, default_options(6));
  EXPECT_EQ(a.spanner.h, b.spanner.h);
  EXPECT_NE(a.spanner.h, c.spanner.h);
}

TEST(RegularSpanner, DistanceStretchAtMostThree) {
  // Dense regular graph (Δ ≥ n^{2/3}): the full Algorithm 1 guarantees a
  // 3-distance spanner deterministically thanks to the reinsertion rules.
  const std::size_t n = 150;
  const auto delta = static_cast<std::size_t>(
      std::ceil(std::pow(static_cast<double>(n), 2.0 / 3.0)));  // ≈ 29
  const Graph g = random_regular(n, delta + (delta % 2), 11);
  const auto result = build_regular_spanner(g, default_options(2));
  const auto report = measure_distance_stretch(g, result.spanner.h);
  EXPECT_TRUE(report.satisfies(3.0))
      << "max stretch " << report.max_stretch << ", unreachable "
      << report.unreachable;
}

TEST(RegularSpanner, SpannerIsConnectedOnDenseInput) {
  const Graph g = random_regular(100, 26, 13);
  const auto result = build_regular_spanner(g, default_options(3));
  EXPECT_TRUE(is_connected(result.spanner.h));
}

TEST(RegularSpanner, CompressesDenseGraphs) {
  // At Δ = n/2 the spanner should keep well under half the edges.
  const Graph g = random_regular(200, 100, 17);
  const auto result = build_regular_spanner(g, default_options(4));
  EXPECT_LT(result.spanner.stats.compression(), 0.5)
      << "kept " << result.spanner.h.num_edges() << " of " << g.num_edges();
  const auto report = measure_distance_stretch(g, result.spanner.h);
  EXPECT_TRUE(report.satisfies(3.0));
}

TEST(RegularSpanner, AblationWithoutReinsertionCanViolateStretch) {
  // Pure sampling (both reinsertion rules off) keeps ~ρ·m edges; stretch 3
  // then only holds w.h.p. asymptotically, and the edge count must be
  // strictly smaller than with reinsertion.
  const Graph g = random_regular(100, 30, 19);
  RegularSpannerOptions off = default_options(5);
  off.reinsert_unsupported = false;
  off.reinsert_undetoured = false;
  const auto ablated = build_regular_spanner(g, off);
  const auto full = build_regular_spanner(g, default_options(5));
  EXPECT_EQ(ablated.spanner.stats.reinserted_edges, 0u);
  EXPECT_LE(ablated.spanner.h.num_edges(), full.spanner.h.num_edges());
  EXPECT_EQ(ablated.spanner.h, ablated.sampled);
}

TEST(RegularSpanner, UndetouredReinsertionKeepsSupportedEdgesRoutable) {
  const Graph g = random_regular(60, 16, 23);
  const auto result = build_regular_spanner(g, default_options(6));
  // Every edge of G absent from G' must have a ≤3 replacement in H (either
  // it was reinserted or a detour survived).
  for (Edge e : g.edges()) {
    if (!result.sampled.has_edge(e.u, e.v)) {
      EXPECT_TRUE(has_short_replacement(result.spanner.h, e.u, e.v))
          << "edge (" << e.u << "," << e.v << ")";
    }
  }
}

TEST(RegularSpanner, EhatTestMatchesPerEdgeOracleOnBothSides) {
  // Dense inputs with n² ≤ 2·|removed|·b test every unordered base once
  // through the supported-base bitmap; the others test each removed edge
  // on its own.
  // Each input here really fails the Ê test, so a wrong bit shows in H.
  RegularSpannerOptions strict;
  strict.support_a_factor = 3.0;
  strict.support_b_factor = 0.5;
  const struct {
    const char* name;
    Graph g;
    RegularSpannerOptions options;
    bool all_bases;  // n² ≤ 2·|removed|·b
  } cases[] = {
      {"clique_matching_graph(512)", clique_matching_graph(512), {}, true},
      {"random_regular(512, 128, 7)", random_regular(512, 128, 7), strict,
       true},
      {"ring_of_cliques(32, 63)", ring_of_cliques(32, 63), {}, false},
  };
  for (const auto& c : cases) {
    ASSERT_TRUE(SupportOracle(c.g).bitmapped()) << c.name;
    const auto built = build_regular_spanner(c.g, c.options);
    const std::size_t n = c.g.num_vertices();
    const std::size_t removed = c.g.num_edges() - built.sampled.num_edges();
    EXPECT_EQ(n * n <= 2 * removed * built.support_b, c.all_bases)
        << c.name;
    EXPECT_GT(built.reinserted_unsupported, 0u) << c.name;
    EXPECT_EQ(built.spanner.h, per_edge_spanner(c.g, built)) << c.name;
  }
}

TEST(RegularSpanner, GoldenDigestsOnBothSidesOfEachRule) {
  // Pins G′, both reinsert counts and H per seed on each side of both path
  // choices: the Ê test through the supported-base bitmap S, per edge on
  // the adjacency bitmap, or per edge on the sorted merge; step 3 through
  // G′'s radius-2 balls or the scalar merge (ShortDistanceOracle::balls_pay).
  // Each case also runs from inside a parallel region, where the row-block
  // passes fall back to one block on the calling thread.
  const struct {
    const char* name;
    Graph g;
    std::uint64_t seed;
    bool bitmapped;    // SupportOracle(g).bitmapped()
    bool all_bases;    // the Ê test fills S
    bool step3_balls;  // step 3 fills G′'s balls
    std::uint64_t sampled_digest;
    std::size_t unsupported;
    std::size_t undetoured;
    std::uint64_t digest;
  } cases[] = {
      {"random_regular(2048, 320, 1)", random_regular(2048, 320, 1), 1, true,
       true, true, 0xed402b70f0f9efeeull, 0, 21327, 0x5e4f7131ac9b6d83ull},
      {"random_regular(2048, 64, 7)", random_regular(2048, 64, 7), 7, true,
       false, true, 0x345b8cd1718158c3ull, 0, 44796, 0xf5a8f01a4c61febeull},
      {"random_regular(512, 64, 5)", random_regular(512, 64, 5), 5, true,
       true, true, 0x16258ca163abebaaull, 0, 5375, 0xc602decc88a903e4ull},
      {"random_regular(130, 30, 2)", random_regular(130, 30, 2), 2, true,
       true, true, 0xc74adc05946f7108ull, 0, 655, 0xb3e61c3bd89921e4ull},
      {"ring_of_cliques(300, 15)", ring_of_cliques(300, 15), 4, false, false,
       false, 0x51da62ec83be1954ull, 0, 5764, 0xb7c6ff86c27a10afull},
  };
  for (const auto& c : cases) {
    const auto built = build_regular_spanner(c.g, default_options(c.seed));
    const std::size_t n = c.g.num_vertices();
    const std::size_t removed = c.g.num_edges() - built.sampled.num_edges();
    const bool bitmapped = SupportOracle(c.g).bitmapped();
    EXPECT_EQ(bitmapped, c.bitmapped) << c.name;
    EXPECT_EQ(bitmapped && n * n <= 2 * removed * built.support_b,
              c.all_bases)
        << c.name;
    EXPECT_EQ(ShortDistanceOracle::balls_pay(n, built.sampled.num_edges(),
                                             removed),
              c.step3_balls)
        << c.name;
    EXPECT_EQ(edge_digest(built.sampled), c.sampled_digest) << c.name;
    EXPECT_EQ(built.reinserted_unsupported, c.unsupported) << c.name;
    EXPECT_EQ(built.reinserted_undetoured, c.undetoured) << c.name;
    EXPECT_EQ(edge_digest(built.spanner.h), c.digest) << c.name;

    RegularSpannerResult nested;
    parallel_chunks(0, 1, [&](std::size_t, std::size_t, std::size_t) {
      nested = build_regular_spanner(c.g, default_options(c.seed));
    });
    EXPECT_EQ(nested.sampled, built.sampled) << c.name;
    EXPECT_EQ(nested.reinserted_unsupported, c.unsupported) << c.name;
    EXPECT_EQ(nested.reinserted_undetoured, c.undetoured) << c.name;
    EXPECT_EQ(nested.spanner.h, built.spanner.h) << c.name;
  }
}

TEST(RegularSpanner, SupportThresholdSweepMonotonicity) {
  // Stricter support thresholds can only reinsert more edges.
  const Graph g = random_regular(100, 30, 29);
  std::size_t prev_edges = 0;
  for (double f : {0.125, 0.5, 2.0}) {
    RegularSpannerOptions o = default_options(8);
    o.support_a_factor = f;
    o.support_b_factor = f;
    const auto r = build_regular_spanner(g, o);
    EXPECT_GE(r.spanner.h.num_edges(), prev_edges);
    prev_edges = r.spanner.h.num_edges();
  }
}

TEST(RegularSpanner, NearRegularInputsAcceptedWithRatio) {
  // Margulis expanders are near-regular after deduplication (degrees 3–8).
  const Graph g = margulis_expander(12);
  EXPECT_THROW(build_regular_spanner(g), std::invalid_argument);
  RegularSpannerOptions o;
  o.seed = 3;
  o.max_degree_ratio = 3.0;
  const auto result = build_regular_spanner(g, o);
  EXPECT_TRUE(g.contains_subgraph(result.spanner.h));
  const auto report = measure_distance_stretch(g, result.spanner.h);
  EXPECT_TRUE(report.satisfies(3.0));
}

TEST(RegularSpanner, NearRegularRatioEnforced) {
  // A star is maximally irregular; even a generous ratio must reject it.
  std::vector<Edge> edges;
  for (Vertex v = 1; v < 20; ++v) edges.push_back({0, v});
  const Graph star = Graph::from_edges(20, edges);
  RegularSpannerOptions o;
  o.max_degree_ratio = 2.0;
  EXPECT_THROW(build_regular_spanner(star, o), std::invalid_argument);
}

TEST(RegularSpanner, CompleteGraphFullySupported) {
  // K_n with moderate thresholds: every edge is richly supported, so only
  // sampling + detour-survival decide membership and H stays sparse.
  const Graph g = complete_graph(64);
  const auto result = build_regular_spanner(g, default_options(31));
  EXPECT_LT(result.spanner.h.num_edges(), g.num_edges());
  const auto report = measure_distance_stretch(g, result.spanner.h);
  EXPECT_TRUE(report.satisfies(3.0));
}

}  // namespace
}  // namespace dcs
