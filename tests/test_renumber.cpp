#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/verifier.hpp"
#include "graph/bfs.hpp"
#include "graph/generators.hpp"
#include "graph/renumber.hpp"
#include "graph/traversal.hpp"
#include "persist/checkpoint.hpp"
#include "traversal_corpus.hpp"
#include "util/rng.hpp"

// End-to-end isomorphism property tests for cache-order renumbering: a
// relabeled graph must be indistinguishable from the original through
// every layer that can observe it — adjacency, distances, the (α,β)
// stretch certificate, and persist checkpoints, which stay in original-ID
// space.

namespace dcs {
namespace {

using dcs::testing::corpus;
using dcs::testing::sample_sources;

constexpr VertexOrder kOrders[] = {VertexOrder::kOriginal,
                                   VertexOrder::kDegreeDescending,
                                   VertexOrder::kBfs};

Renumbering inverse_of(const Renumbering& map) {
  return Renumbering{map.to_external, map.to_internal};
}

/// A deterministic strict subgraph of g (every third edge dropped) — the
/// "spanner" role for invariance tests that need a (g, h) pair without
/// paying for a real build per corpus graph.
Graph thinned(const Graph& g) {
  const std::vector<Edge> all = g.edges();
  std::vector<Edge> kept;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (i % 3 != 2) kept.push_back(all[i]);
  }
  return Graph::from_edges(g.num_vertices(), kept);
}

TEST(Renumber, PermutationIsValidBijectionOnCorpus) {
  for (const Graph& g : corpus()) {
    for (VertexOrder order : kOrders) {
      const Renumbering map = compute_renumbering(g, order);
      ASSERT_EQ(map.size(), g.num_vertices()) << vertex_order_name(order);
      EXPECT_TRUE(map.is_valid())
          << vertex_order_name(order) << " n=" << g.num_vertices();
    }
  }
}

TEST(Renumber, OriginalOrderIsIdentity) {
  const Graph g = random_regular(64, 8, 1);
  const RenumberedGraph rg = g.renumber(VertexOrder::kOriginal);
  EXPECT_EQ(rg.graph, g);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(rg.map.internal(v), v);
    EXPECT_EQ(rg.map.external(v), v);
  }
}

TEST(Renumber, DegreeDescendingPacksHubsFirst) {
  for (const Graph& g : corpus()) {
    const RenumberedGraph rg = g.renumber(VertexOrder::kDegreeDescending);
    for (Vertex i = 1; i < rg.graph.num_vertices(); ++i) {
      ASSERT_GE(rg.graph.degree(i - 1), rg.graph.degree(i))
          << "internal id " << i << " n=" << g.num_vertices();
    }
  }
}

TEST(Renumber, RelabeledGraphIsIsomorphicOnCorpus) {
  for (const Graph& g : corpus()) {
    for (VertexOrder order : {VertexOrder::kDegreeDescending,
                              VertexOrder::kBfs}) {
      const RenumberedGraph rg = g.renumber(order);
      ASSERT_EQ(rg.graph.num_vertices(), g.num_vertices());
      ASSERT_EQ(rg.graph.num_edges(), g.num_edges());
      for (Vertex v = 0; v < g.num_vertices(); ++v) {
        ASSERT_EQ(rg.graph.degree(rg.map.internal(v)), g.degree(v));
      }
      for (const Edge& e : g.edges()) {
        ASSERT_TRUE(rg.graph.has_edge(rg.map.internal(e.u),
                                      rg.map.internal(e.v)));
      }
      // Applying the inverse permutation must reproduce g exactly.
      EXPECT_EQ(inverse_of(rg.map).apply_to(rg.graph), g);
    }
  }
}

TEST(Renumber, DistancesInvariantUnderRelabelingOnCorpus) {
  Rng rng(41);
  for (const Graph& g : corpus()) {
    for (VertexOrder order : {VertexOrder::kDegreeDescending,
                              VertexOrder::kBfs}) {
      const RenumberedGraph rg = g.renumber(order);
      for (Vertex s : sample_sources(g, rng, 3)) {
        const auto reference = bfs_distances(g, s);
        // The relabeled sweep runs through the full traversal engine so
        // the invariance covers the SIMD/prefetch bottom-up path too.
        const auto relabeled =
            bfs_distances_hybrid(rg.graph, rg.map.internal(s));
        for (Vertex v = 0; v < g.num_vertices(); ++v) {
          ASSERT_EQ(relabeled[rg.map.internal(v)], reference[v])
              << "n=" << g.num_vertices() << " s=" << s << " v=" << v;
        }
      }
    }
  }
}

TEST(Renumber, StretchCertificateInvariantUnderRelabeling) {
  for (const Graph& g :
       {random_regular(130, 16, 7), margulis_expander(11),
        erdos_renyi(120, 0.1, 5)}) {
    const Graph h = thinned(g);
    const DistanceStretchReport base = measure_distance_stretch(g, h);
    for (VertexOrder order : {VertexOrder::kDegreeDescending,
                              VertexOrder::kBfs}) {
      const Renumbering map = compute_renumbering(g, order);
      const DistanceStretchReport relabeled =
          measure_distance_stretch(map.apply_to(g), map.apply_to(h));
      EXPECT_DOUBLE_EQ(relabeled.max_stretch, base.max_stretch);
      EXPECT_DOUBLE_EQ(relabeled.mean_stretch, base.mean_stretch);
      EXPECT_EQ(relabeled.checked_edges, base.checked_edges);
      EXPECT_EQ(relabeled.unreachable, base.unreachable);
    }
  }
}

TEST(Renumber, CheckpointRoundTripStaysInOriginalIdSpace) {
  const Graph g = random_regular(130, 16, 9);
  const Graph h = thinned(g);

  persist::CheckpointData data;
  data.wave = 7;
  data.epoch = 3;
  data.graph = g;
  data.spanner = h;
  data.down_vertices = {4, 17};
  data.debt = {h.edges()[0], h.edges()[5]};
  data.repairs = 11;

  const std::string bytes = persist::encode_checkpoint(data);
  std::string error;
  const auto decoded = persist::decode_checkpoint(bytes, &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  // Persisted state is in original IDs: the round trip reproduces the
  // exact graphs, and the relabeled copies are recoverable from them with
  // the permutation alone.
  EXPECT_EQ(decoded->graph, g);
  EXPECT_EQ(decoded->spanner, h);
  for (VertexOrder order : {VertexOrder::kDegreeDescending,
                            VertexOrder::kBfs}) {
    const Renumbering map = compute_renumbering(decoded->graph, order);
    EXPECT_EQ(map.apply_to(decoded->graph), map.apply_to(g));
    EXPECT_EQ(inverse_of(map).apply_to(map.apply_to(decoded->spanner)), h);
  }
}

}  // namespace
}  // namespace dcs
