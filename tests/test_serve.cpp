// Query-serving engine: batch-coalescing equivalence against the scalar
// BFS ground truth, 2Q cache behaviour (scan resistance, ghost
// promotion), epoch-snapshot lifecycle (publish/pin/retire, cache
// invalidation on adoption, degraded shedding), shed-outcome accounting
// under saturation, and concurrency hammers — including the snapshot-swap
// hammer — run under TSan in CI alongside the obs suite.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "graph/bfs.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/request_trace.hpp"
#include "obs/slo.hpp"
#include "routing/tables.hpp"
#include "serve/admission.hpp"
#include "serve/lru_cache.hpp"
#include "serve/query_engine.hpp"
#include "serve/snapshot.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace dcs {
namespace {

using serve::AdmissionController;
using serve::AdmissionOptions;
using serve::Query;
using serve::QueryEngine;
using serve::QueryKind;
using serve::QueryOutcome;
using serve::QueryResult;
using serve::ServeOptions;
using serve::ServeSnapshot;
using serve::SnapshotRef;
using serve::SnapshotStore;
using serve::SpannerCertificate;
using serve::TwoQCache;

Graph test_graph(std::size_t n = 200, std::size_t delta = 8,
                 std::uint64_t seed = 7) {
  return random_regular(n, delta, seed);
}

std::vector<Query> random_queries(const Graph& g, std::size_t count,
                                  std::uint64_t seed,
                                  double route_fraction = 0.0,
                                  std::size_t hot_sources = 0) {
  Rng rng(seed);
  std::vector<Query> queries;
  queries.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Query q;
    q.kind = rng.uniform_double() < route_fraction ? QueryKind::kRoute
                                                   : QueryKind::kDistance;
    q.u = hot_sources > 0 && rng.bernoulli(0.5)
              ? static_cast<Vertex>(rng.uniform(hot_sources))
              : static_cast<Vertex>(rng.uniform(g.num_vertices()));
    q.v = static_cast<Vertex>(rng.uniform(g.num_vertices()));
    queries.push_back(q);
  }
  return queries;
}

// --- 2Q cache ------------------------------------------------------------
// Capacity 8 splits into A1in = 2 (capacity/4), Am = 6, ghosts = 4.

TEST(TwoQCache, FirstTimersFlowThroughTheFifoAndGhost) {
  TwoQCache<int, int> cache(8);
  cache.insert(1, 10);  // A1in: [1]
  cache.insert(2, 20);  // A1in: [2, 1]
  cache.insert(3, 30);  // A1in full: 1 demoted to ghost
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_FALSE(cache.contains(1));
  EXPECT_TRUE(cache.remembers(1));
  EXPECT_TRUE(cache.contains(2));
  EXPECT_TRUE(cache.contains(3));
}

TEST(TwoQCache, GhostHitPromotesToMainQueue) {
  TwoQCache<int, int> cache(8);
  cache.insert(1, 10);
  cache.insert(2, 20);
  cache.insert(3, 30);                 // 1 ghosted
  EXPECT_EQ(cache.find(1), nullptr);   // miss, but a remembered one
  EXPECT_EQ(cache.ghost_hits(), 1u);
  cache.insert(1, 11);                 // second miss → straight into Am
  EXPECT_TRUE(cache.contains(1));
  EXPECT_FALSE(cache.remembers(1));
  // A full A1in scan cannot evict an Am resident.
  for (int k = 100; k < 200; ++k) cache.insert(k, k);
  ASSERT_NE(cache.find(1), nullptr);
  EXPECT_EQ(*cache.find(1), 11);
  EXPECT_LE(cache.size(), 8u);
}

TEST(TwoQCache, ScanDoesNotPolluteTheMainQueue) {
  TwoQCache<int, int> cache(8);
  // Promote two hot keys into Am via their ghosts.
  for (int hot : {1, 2}) cache.insert(hot, hot);
  for (int k = 50; k < 54; ++k) cache.insert(k, k);  // push both to ghosts
  for (int hot : {1, 2}) cache.insert(hot, hot * 10);
  EXPECT_TRUE(cache.contains(1));
  EXPECT_TRUE(cache.contains(2));
  // One pass over 1000 cold keys: hot set must survive untouched.
  for (int k = 1000; k < 2000; ++k) cache.insert(k, k);
  EXPECT_EQ(*cache.find(1), 10);
  EXPECT_EQ(*cache.find(2), 20);
  EXPECT_LE(cache.size(), 8u);
}

TEST(TwoQCache, MainQueueEvictsItsLruWhenFull) {
  TwoQCache<int, int> cache(8);  // Am capacity 6
  // Promote 7 keys into Am (each via its ghost); the first promoted key
  // is the Am LRU and must fall out on the seventh promotion.
  for (int key = 1; key <= 7; ++key) {
    cache.insert(key, key);
    cache.insert(100 + key, 0);  // push `key` through A1in...
    cache.insert(200 + key, 0);  // ...into the ghost queue
    cache.insert(key, key * 10);  // ghost hit → Am
    ASSERT_TRUE(cache.contains(key));
  }
  EXPECT_FALSE(cache.contains(1));
  for (int key = 2; key <= 7; ++key) EXPECT_TRUE(cache.contains(key));
}

TEST(TwoQCache, CountsHitsAndMisses) {
  TwoQCache<int, int> cache(4);
  cache.insert(1, 1);
  cache.find(1);
  cache.find(1);
  cache.find(2);
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(TwoQCache, ClearDropsResidentsAndGhostsButKeepsTallies) {
  TwoQCache<int, int> cache(8);
  cache.insert(1, 10);
  cache.insert(2, 20);
  cache.insert(3, 30);  // 1 ghosted
  cache.find(2);
  const auto hits = cache.hits();
  const auto misses = cache.misses();
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.contains(2));
  EXPECT_FALSE(cache.remembers(1));  // epoch invalidation kills ghosts too
  EXPECT_EQ(cache.hits(), hits);
  EXPECT_EQ(cache.misses(), misses);
  // Post-clear, a re-inserted key is a first-timer again (A1in, not Am).
  cache.insert(1, 11);
  EXPECT_TRUE(cache.contains(1));
  EXPECT_EQ(*cache.find(1), 11);
}

TEST(TwoQCache, NeverExceedsCapacityUnderChurn) {
  TwoQCache<int, int> cache(8);
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const int key = static_cast<int>(rng.uniform(64));
    if (cache.find(key) == nullptr) cache.insert(key, key);
    ASSERT_LE(cache.size(), 8u);
  }
  EXPECT_GT(cache.evictions(), 0u);
  EXPECT_GT(cache.ghost_hits(), 0u);
}

TEST(TwoQCache, CapacityOneDegeneratesToASingleSlot) {
  TwoQCache<int, int> cache(1);
  cache.insert(1, 10);
  EXPECT_EQ(*cache.find(1), 10);
  cache.insert(2, 20);  // evicts 1 (whole capacity is the A1in slot)
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_FALSE(cache.contains(1));
  cache.insert(1, 11);  // ghost hit falls back to the FIFO slot
  EXPECT_EQ(*cache.find(1), 11);
  EXPECT_EQ(cache.size(), 1u);
}

// --- admission policy ----------------------------------------------------

TEST(Admission, BoundedQueueRefusesPastCapacity) {
  AdmissionController ctl({.queue_capacity = 2, .default_deadline_us = 0});
  EXPECT_TRUE(ctl.admit(0));
  EXPECT_TRUE(ctl.admit(1));
  EXPECT_FALSE(ctl.admit(2));
  AdmissionController unbounded({.queue_capacity = 0});
  EXPECT_TRUE(unbounded.admit(1u << 20));
}

TEST(Admission, DeadlineDefaultsAndExpiry) {
  AdmissionController ctl({.queue_capacity = 0, .default_deadline_us = 100});
  EXPECT_EQ(ctl.deadline_for(1000, 0), 1100u);   // default budget
  EXPECT_EQ(ctl.deadline_for(1000, 50), 1050u);  // per-query override
  AdmissionController none({.queue_capacity = 0, .default_deadline_us = 0});
  EXPECT_EQ(none.deadline_for(1000, 0), 0u);  // no deadline at all
  EXPECT_FALSE(AdmissionController::expired(500, 0));
  EXPECT_FALSE(AdmissionController::expired(500, 500));
  EXPECT_TRUE(AdmissionController::expired(501, 500));
}

TEST(Admission, OutcomeNamesAreStable) {
  EXPECT_STREQ(to_string(QueryOutcome::kServed), "served");
  EXPECT_STREQ(to_string(QueryOutcome::kShedAdmission), "shed-admission");
  EXPECT_STREQ(to_string(QueryOutcome::kShedDeadline), "shed-deadline");
  EXPECT_STREQ(to_string(QueryOutcome::kShedDegraded), "shed-degraded");
  EXPECT_STREQ(to_string(QueryOutcome::kShedShutdown), "shed-shutdown");
}

// --- batch-coalescing equivalence ----------------------------------------

TEST(QueryEngine, BatchedDistancesMatchScalarBfs) {
  const Graph h = test_graph();
  QueryEngine engine(h);
  const auto queries = random_queries(h, 500, 11, 0.0, 16);
  const auto results = engine.serve_batch(queries);
  ASSERT_EQ(results.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto truth = bfs_distances(h, queries[i].u);
    EXPECT_EQ(results[i].outcome, QueryOutcome::kServed);
    EXPECT_EQ(results[i].distance, truth[queries[i].v])
        << "query " << i << ": " << queries[i].u << "->" << queries[i].v;
  }
  const auto s = engine.stats();
  EXPECT_EQ(s.queries, 500u);
  EXPECT_EQ(s.served, 500u);
  EXPECT_GT(s.coalesced_sources, 0u);
  // Coalescing means far fewer BFS endpoints than queries.
  EXPECT_LT(s.coalesced_sources + s.cache_hits, 500u);
}

TEST(QueryEngine, RoutesAreValidShortestPathsOnH) {
  const Graph h = test_graph(150, 6, 9);
  QueryEngine engine(h);
  const auto queries = random_queries(h, 200, 13, 1.0);
  const auto results = engine.serve_batch(queries);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    const QueryResult& r = results[i];
    const Dist d = bfs_distances(h, q.u)[q.v];
    if (d == kUnreachable) {
      EXPECT_TRUE(r.path.empty());
      EXPECT_EQ(r.distance, kUnreachable);
      continue;
    }
    ASSERT_FALSE(r.path.empty());
    EXPECT_EQ(r.path.front(), q.u);
    EXPECT_EQ(r.path.back(), q.v);
    // Next-hop tables route along shortest paths of H.
    EXPECT_EQ(r.distance, d);
    EXPECT_EQ(path_length(r.path), static_cast<std::size_t>(d));
    for (std::size_t k = 0; k + 1 < r.path.size(); ++k) {
      EXPECT_TRUE(h.has_edge(r.path[k], r.path[k + 1]));
    }
  }
  EXPECT_GT(engine.stats().route_rows_filled, 0u);
}

TEST(QueryEngine, MixedBatchKeepsInputOrder) {
  const Graph h = test_graph(100, 6, 21);
  QueryEngine engine(h);
  const auto queries = random_queries(h, 300, 17, 0.4, 8);
  const auto results = engine.serve_batch(queries);
  ASSERT_EQ(results.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const Dist d = bfs_distances(h, queries[i].u)[queries[i].v];
    EXPECT_EQ(results[i].distance, d);
    if (queries[i].kind == QueryKind::kRoute && d != kUnreachable) {
      EXPECT_EQ(results[i].path.front(), queries[i].u);
      EXPECT_EQ(results[i].path.back(), queries[i].v);
    }
  }
}

TEST(QueryEngine, ServesSelfAndEmptyBatches) {
  const Graph h = test_graph(64, 4, 3);
  QueryEngine engine(h);
  EXPECT_TRUE(engine.serve_batch({}).empty());
  const QueryResult self =
      engine.serve_one({QueryKind::kDistance, 5, 5, 0});
  EXPECT_EQ(self.distance, 0u);
  const QueryResult self_route =
      engine.serve_one({QueryKind::kRoute, 5, 5, 0});
  EXPECT_EQ(self_route.distance, 0u);
  ASSERT_EQ(self_route.path.size(), 1u);
  EXPECT_EQ(self_route.path.front(), 5u);
}

TEST(QueryEngine, DisconnectedPairsReportUnreachable) {
  // Two components: a triangle and an isolated edge.
  GraphBuilder b(5);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(0, 2);
  b.add_edge(3, 4);
  const Graph h = b.build();
  QueryEngine engine(h);
  const std::vector<Query> queries{{QueryKind::kDistance, 0, 3, 0},
                                   {QueryKind::kRoute, 4, 1, 0}};
  const auto results = engine.serve_batch(queries);
  EXPECT_EQ(results[0].distance, kUnreachable);
  EXPECT_EQ(results[1].distance, kUnreachable);
  EXPECT_TRUE(results[1].path.empty());
  EXPECT_EQ(engine.stats().unreachable, 2u);
}

// --- cache behaviour inside the engine -----------------------------------

TEST(QueryEngine, RepeatSourcesHitTheRowCache) {
  const Graph h = test_graph();
  QueryEngine engine(h);
  std::vector<Query> queries;
  for (int round = 0; round < 3; ++round) {
    for (Vertex u = 0; u < 8; ++u) {
      queries.push_back({QueryKind::kDistance, u, 50, 0});
    }
  }
  // First batch: 8 distinct sources, one MS-BFS sweep; repeats within the
  // batch count as misses (the row materializes once for all of them).
  const auto first = engine.serve_batch(queries);
  const auto s1 = engine.stats();
  EXPECT_EQ(s1.coalesced_sources, 8u);
  // Second identical batch: pure cache hits, no new sweeps.
  const auto second = engine.serve_batch(queries);
  const auto s2 = engine.stats();
  EXPECT_EQ(s2.coalesced_sources, 8u);
  EXPECT_EQ(s2.cache_hits, s1.cache_hits + queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(first[i].distance, second[i].distance);
  }
}

TEST(QueryEngine, TinyCacheEvictsButStaysCorrect) {
  const Graph h = test_graph(120, 6, 5);
  ServeOptions options;
  options.cache_rows = 4;
  QueryEngine engine(h, options);
  const auto queries = random_queries(h, 400, 29);
  const auto results = engine.serve_batch(queries);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(results[i].distance,
              bfs_distances(h, queries[i].u)[queries[i].v]);
  }
  EXPECT_LE(engine.cached_rows(), 4u);
  EXPECT_GT(engine.stats().cache_evictions, 0u);
}

// --- snapshot store lifecycle ---------------------------------------------

TEST(SnapshotStore, PublishPinRetireLifecycle) {
  const Graph g = test_graph(32, 4, 91);
  SnapshotStore store(g, g);
  EXPECT_EQ(store.current_epoch(), 1u);
  EXPECT_EQ(store.published(), 1u);
  EXPECT_EQ(store.live(), 1u);

  SnapshotRef pin = store.pin();
  EXPECT_EQ(pin->epoch, 1u);
  EXPECT_EQ(store.publish(g, g, {}), 2u);
  EXPECT_EQ(store.current_epoch(), 2u);
  // The in-flight reader keeps epoch 1 alive and unchanged.
  EXPECT_EQ(pin->epoch, 1u);
  EXPECT_EQ(store.live(), 2u);
  EXPECT_EQ(store.retired(), 0u);
  pin.reset();  // last reader drains → epoch 1 retires
  EXPECT_EQ(store.retired(), 1u);
  EXPECT_EQ(store.live(), 1u);
  EXPECT_GE(store.pins(), 1u);
}

TEST(SnapshotStore, UnpinnedSnapshotsRetireOnPublish) {
  const Graph g = test_graph(16, 4, 93);
  SnapshotStore store(g, g);
  for (int i = 0; i < 3; ++i) store.publish(g, g, {});
  EXPECT_EQ(store.published(), 4u);
  EXPECT_EQ(store.retired(), 3u);
  EXPECT_EQ(store.live(), 1u);
  EXPECT_EQ(store.current_epoch(), 4u);
}

TEST(SnapshotStore, RejectsVertexCountMismatch) {
  const Graph small = test_graph(16, 4, 95);
  const Graph big = test_graph(32, 4, 95);
  EXPECT_THROW(SnapshotStore(small, big), std::invalid_argument);
  SnapshotStore store(big, big);
  EXPECT_THROW(store.publish(small, small, {}), std::invalid_argument);
}

TEST(SnapshotStore, PinnedSnapshotOutlivesTheStore) {
  SnapshotRef pin;
  {
    const Graph g = test_graph(24, 4, 97);
    SnapshotStore store(g, g);
    pin = store.pin();
  }
  // The store is gone; the snapshot (and its retirement tally) survive.
  EXPECT_EQ(pin->epoch, 1u);
  EXPECT_EQ(pin->spanner.num_vertices(), 24u);
  pin.reset();  // retires without a store — must not crash
}

// --- epoch adoption and cache invalidation --------------------------------

TEST(QueryEngine, AdoptsNewEpochAndInvalidatesDistanceRows) {
  const Graph h1 = test_graph(96, 6, 71);
  const Graph h2 = test_graph(96, 6, 72);
  SnapshotStore store(h1, h1);
  QueryEngine engine(store);
  const auto queries = random_queries(h1, 200, 23, 0.0, 8);

  const auto r1 = engine.serve_batch(queries);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(r1[i].epoch, 1u);
    EXPECT_EQ(r1[i].distance, bfs_distances(h1, queries[i].u)[queries[i].v]);
  }
  EXPECT_GT(engine.cached_rows(), 0u);

  store.publish(h2, h2, {});
  const auto r2 = engine.serve_batch(queries);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(r2[i].epoch, 2u);
    EXPECT_EQ(r2[i].distance, bfs_distances(h2, queries[i].u)[queries[i].v])
        << "stale row answered " << queries[i].u << "->" << queries[i].v;
  }
  EXPECT_EQ(engine.stats().epochs_adopted, 2u);
  EXPECT_EQ(engine.serving_epoch(), 2u);
}

TEST(QueryEngine, AdoptionResetsLazyRouteRows) {
  const Graph h1 = test_graph(80, 6, 73);
  const Graph h2 = test_graph(80, 6, 74);
  SnapshotStore store(h1, h1);
  QueryEngine engine(store);
  const auto queries = random_queries(h1, 120, 27, 1.0);

  const auto r1 = engine.serve_batch(queries);
  store.publish(h2, h2, {});
  const auto r2 = engine.serve_batch(queries);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    const Dist d2 = bfs_distances(h2, q.u)[q.v];
    EXPECT_EQ(r2[i].distance, d2);
    if (d2 == kUnreachable) continue;
    ASSERT_FALSE(r2[i].path.empty());
    for (std::size_t k = 0; k + 1 < r2[i].path.size(); ++k) {
      // Post-swap paths must be walkable on the *new* spanner.
      EXPECT_TRUE(h2.has_edge(r2[i].path[k], r2[i].path[k + 1]));
    }
  }
}

TEST(QueryEngine, StaleCacheBugHookKeepsPreEpochRows) {
  const Graph h1 = test_graph(64, 4, 81);
  const Graph h2 = test_graph(64, 4, 82);
  // A pair whose distance genuinely changes across the swap.
  Vertex u = 0, v = 0;
  bool found = false;
  for (u = 0; u < 64 && !found; ++u) {
    const auto d1 = bfs_distances(h1, u);
    const auto d2 = bfs_distances(h2, u);
    for (v = 0; v < 64; ++v) {
      if (d1[v] != d2[v] && d1[v] != kUnreachable && d2[v] != kUnreachable) {
        found = true;
        break;
      }
    }
    if (found) break;
  }
  ASSERT_TRUE(found) << "test graphs are distance-identical";

  SnapshotStore store(h1, h1);
  QueryEngine engine(store);
  engine.inject_stale_cache_bug();
  const Dist before = engine.serve_one({QueryKind::kDistance, u, v, 0}).distance;
  EXPECT_EQ(before, bfs_distances(h1, u)[v]);
  store.publish(h2, h2, {});
  const QueryResult after = engine.serve_one({QueryKind::kDistance, u, v, 0});
  // The bug: the row cached under epoch 1 answers an epoch-2 query.
  EXPECT_EQ(after.epoch, 2u);
  EXPECT_EQ(after.distance, before);
  EXPECT_NE(after.distance, bfs_distances(h2, u)[v]);
}

// --- degradation → shed mapping -------------------------------------------

TEST(QueryEngine, ShedsWholeBatchWhenCertificateLost) {
  const Graph h = test_graph(48, 4, 83);
  SpannerCertificate lost;
  lost.status = GuaranteeStatus::kLost;
  SnapshotStore store(h, h, lost);
  QueryEngine engine(store);
  const auto queries = random_queries(h, 50, 31, 0.5);
  const auto results = engine.serve_batch(queries);
  for (const QueryResult& r : results) {
    EXPECT_EQ(r.outcome, QueryOutcome::kShedDegraded);
    EXPECT_EQ(r.distance, kUnreachable);
    EXPECT_TRUE(r.path.empty());
    EXPECT_EQ(r.epoch, 1u);
  }
  const auto s = engine.stats();
  EXPECT_EQ(s.queries, 50u);
  EXPECT_EQ(s.served, 0u);
  EXPECT_EQ(s.shed_degraded, 50u);  // conservation via the structured shed
}

TEST(QueryEngine, ShedAtLadderThresholdIsConfigurable) {
  const Graph h = test_graph(48, 4, 85);
  SpannerCertificate repairing;  // certificate held, mid-repair ladder
  repairing.ladder = SupervisorState::kRepairing;
  SnapshotStore store(h, h, repairing);

  QueryEngine lenient(store);  // default policy sheds only at kLost
  EXPECT_EQ(lenient.serve_one({QueryKind::kDistance, 1, 2, 0}).outcome,
            QueryOutcome::kServed);

  ServeOptions strict;
  strict.shed_at = SupervisorState::kRepairing;
  QueryEngine engine(store, strict);
  EXPECT_EQ(engine.serve_one({QueryKind::kDistance, 1, 2, 0}).outcome,
            QueryOutcome::kShedDegraded);
}

TEST(QueryEngine, RequireFreshCertificateShedsStaleOnes) {
  const Graph h = test_graph(48, 4, 87);
  SpannerCertificate stale;
  stale.fresh = false;
  SnapshotStore store(h, h, stale);

  QueryEngine lenient(store);
  EXPECT_EQ(lenient.serve_one({QueryKind::kDistance, 1, 2, 0}).outcome,
            QueryOutcome::kServed);

  ServeOptions strict;
  strict.require_fresh_certificate = true;
  QueryEngine engine(store, strict);
  EXPECT_EQ(engine.serve_one({QueryKind::kDistance, 1, 2, 0}).outcome,
            QueryOutcome::kShedDegraded);
}

// --- concurrent path ------------------------------------------------------

TEST(QueryEngine, ConcurrentSubmissionsMatchGroundTruth) {
  const Graph h = test_graph(128, 6, 31);
  // Precompute all ground-truth rows once.
  std::vector<std::vector<Dist>> truth(h.num_vertices());
  for (Vertex u = 0; u < h.num_vertices(); ++u) {
    truth[u] = bfs_distances(h, u);
  }
  QueryEngine engine(h);
  engine.start();
  constexpr std::size_t kThreads = 8, kPerThread = 200;
  std::atomic<std::size_t> wrong{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(1000 + t);
      for (std::size_t i = 0; i < kPerThread; ++i) {
        Query q;
        q.u = static_cast<Vertex>(rng.uniform(h.num_vertices()));
        q.v = static_cast<Vertex>(rng.uniform(h.num_vertices()));
        QueryResult r = engine.submit(q).get();
        if (r.outcome != QueryOutcome::kServed ||
            r.distance != truth[q.u][q.v]) {
          wrong.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  engine.stop();
  EXPECT_EQ(wrong.load(), 0u);
  const auto s = engine.stats();
  EXPECT_EQ(s.queries, kThreads * kPerThread);
  EXPECT_EQ(s.served, kThreads * kPerThread);
  EXPECT_EQ(s.shed_admission + s.shed_deadline, 0u);
  // Batching happened: strictly fewer dispatches than queries is not
  // guaranteed in the limit, but some coalescing always occurs with eight
  // producers hammering one dispatcher.
  EXPECT_LE(s.batches, s.queries);
}

TEST(QueryEngine, SaturationShedsAtAdmissionWithExactAccounting) {
  const Graph h = test_graph(512, 8, 41);
  ServeOptions options;
  options.cache_rows = 1;  // defeat the cache: every batch pays BFS work
  options.admission.queue_capacity = 4;
  options.batch_window = 4;
  QueryEngine engine(h, options);
  engine.start();
  constexpr std::size_t kThreads = 4, kPerThread = 300;
  std::atomic<std::uint64_t> served{0}, shed{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(99 + t);
      // Fire the whole burst before waiting: open-loop producers are what
      // actually overflow a 4-deep queue (a closed loop with four clients
      // can never have more than four queries pending).
      std::vector<std::future<QueryResult>> futures;
      futures.reserve(kPerThread);
      for (std::size_t i = 0; i < kPerThread; ++i) {
        Query q;
        q.u = static_cast<Vertex>(rng.uniform(h.num_vertices()));
        q.v = static_cast<Vertex>(rng.uniform(h.num_vertices()));
        futures.push_back(engine.submit(q));
      }
      for (auto& f : futures) {
        if (f.get().outcome == QueryOutcome::kServed) {
          served.fetch_add(1, std::memory_order_relaxed);
        } else {
          shed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  engine.stop();
  const auto s = engine.stats();
  // Conservation: every submitted query has exactly one terminal outcome.
  EXPECT_EQ(s.queries, kThreads * kPerThread);
  EXPECT_EQ(s.served + s.shed_admission + s.shed_deadline,
            kThreads * kPerThread);
  EXPECT_EQ(served.load(), s.served);
  EXPECT_EQ(shed.load(), s.shed_admission + s.shed_deadline);
  // Four producers against a 4-deep queue and a deliberately slow engine:
  // admission control must have refused work.
  EXPECT_GT(s.shed_admission, 0u);
}

TEST(QueryEngine, ExpiredDeadlinesAreShedNotServed) {
  const Graph h = test_graph(1024, 8, 43);
  ServeOptions options;
  options.cache_rows = 1;
  options.admission.default_deadline_us = 20;  // far below one sweep's cost
  options.batch_window = 8;
  QueryEngine engine(h, options);
  engine.start();
  std::vector<std::future<QueryResult>> futures;
  Rng rng(55);
  for (std::size_t i = 0; i < 2000; ++i) {
    Query q;
    q.u = static_cast<Vertex>(rng.uniform(h.num_vertices()));
    q.v = static_cast<Vertex>(rng.uniform(h.num_vertices()));
    futures.push_back(engine.submit(q));
  }
  std::size_t shed_deadline = 0;
  for (auto& f : futures) {
    if (f.get().outcome == QueryOutcome::kShedDeadline) ++shed_deadline;
  }
  engine.stop();
  const auto s = engine.stats();
  EXPECT_EQ(s.queries, 2000u);
  EXPECT_EQ(s.served + s.shed_admission + s.shed_deadline, 2000u);
  EXPECT_EQ(s.shed_deadline, shed_deadline);
  EXPECT_GT(s.shed_deadline, 0u);
}

TEST(QueryEngine, StopDrainsThenRestartServes) {
  const Graph h = test_graph(64, 4, 47);
  QueryEngine engine(h);
  engine.start();
  auto f = engine.submit({QueryKind::kDistance, 1, 2, 0});
  engine.stop();
  EXPECT_EQ(f.get().outcome, QueryOutcome::kServed);
  engine.start();
  auto g2 = engine.submit({QueryKind::kDistance, 2, 3, 0});
  EXPECT_EQ(g2.get().distance, bfs_distances(h, 2)[3]);
  engine.stop();
}

TEST(QueryEngine, ServeBatchInsideParallelRegionStaysCorrect) {
  // The engine's batch phases run on the shared pool; driving the engine
  // from inside parallel_for exercises the nested parallel_ranges
  // degrade-to-serial path end to end.
  const Graph h = test_graph(96, 6, 51);
  QueryEngine engine(h);
  std::atomic<std::size_t> wrong{0};
  parallel_for(0, 4096, [&](std::size_t i) {
    if (i % 512 != 0) return;  // 8 calls, spread across workers
    Query q;
    q.u = static_cast<Vertex>(i % h.num_vertices());
    q.v = static_cast<Vertex>((i / 7) % h.num_vertices());
    const QueryResult r = engine.serve_one(q);
    if (r.distance != bfs_distances(h, q.u)[q.v]) {
      wrong.fetch_add(1, std::memory_order_relaxed);
    }
  });
  EXPECT_EQ(wrong.load(), 0u);
}

TEST(QueryEngine, EdfDrainsDeadlineQueriesBeforeOlderBacklog) {
  // A heavy substrate (big graph, cache defeated, one-window batches) so
  // every dispatch pays a real MS-BFS sweep and a backlog builds up. EDF
  // is global over the one queue, so it must hold with two dispatchers
  // draining it too.
  const Graph h = test_graph(20000, 8, 101);
  for (const std::size_t dispatchers : {1u, 2u}) {
    SCOPED_TRACE("dispatchers=" + std::to_string(dispatchers));
    ServeOptions options;
    options.dispatchers = dispatchers;
    options.cache_rows = 1;
    options.batch_window = 64;
    options.admission.queue_capacity = 0;  // unbounded: nothing shed here
    QueryEngine engine(h, options);
    engine.start();

    // Plug: one full window of distinct sources occupies the dispatchers
    // while everything below enqueues behind it.
    std::vector<std::future<QueryResult>> plug;
    for (Vertex u = 0; u < 64; ++u) {
      plug.push_back(engine.submit({QueryKind::kDistance, u, 0, 0}));
    }
    // Backlog: thirty windows of no-deadline queries (EDF sorts them
    // last) — deep enough that two dispatchers cannot drain it while a
    // producer on a loaded host is still submitting it...
    std::vector<std::future<QueryResult>> backlog;
    for (Vertex u = 64; u < 1984; ++u) {
      backlog.push_back(engine.submit({QueryKind::kDistance, u, 1, 0}));
    }
    // ...then a late burst that *does* carry deadlines. Arrival order
    // would serve it dead last; EDF must pull it ahead of the whole
    // no-deadline backlog.
    std::vector<std::future<QueryResult>> tagged;
    for (Vertex u = 1984; u < 2000; ++u) {
      tagged.push_back(
          engine.submit({QueryKind::kDistance, u, 2, 60'000'000}));
    }

    double tagged_mean = 0.0, backlog_mean = 0.0;
    for (auto& f : tagged) {
      const QueryResult r = f.get();
      EXPECT_EQ(r.outcome, QueryOutcome::kServed);  // 60 s budget: never shed
      tagged_mean += r.latency_us;
    }
    tagged_mean /= static_cast<double>(tagged.size());
    for (auto& f : backlog) backlog_mean += f.get().latency_us;
    backlog_mean /= static_cast<double>(backlog.size());
    for (auto& f : plug) f.get();
    engine.stop();

    // Submitted last, served early: the deadline class overtook the
    // backlog.
    EXPECT_LT(tagged_mean, backlog_mean);
    EXPECT_EQ(engine.stats().shed_deadline, 0u);
  }
}

TEST(QueryEngine, SnapshotSwapHammerStaysExactPerEpoch) {
  // The TSan target: four reader threads serve batches while a writer
  // publishes >= 120 epochs alternating two substrates. Every served
  // answer must be exact on the substrate of the epoch it reports —
  // a torn read (answering epoch e with epoch e±1 rows) is caught by the
  // per-variant ground truth; a use-after-retire crashes outright.
  constexpr std::size_t kN = 64;
  const Graph a = test_graph(kN, 4, 111);
  const Graph b = test_graph(kN, 4, 112);
  std::vector<std::vector<Dist>> truth_a(kN), truth_b(kN);
  for (Vertex u = 0; u < kN; ++u) {
    truth_a[u] = bfs_distances(a, u);
    truth_b[u] = bfs_distances(b, u);
  }

  SnapshotStore store(a, a);  // epoch 1 = variant a; parity keys the truth
  ServeOptions options;
  options.cache_rows = 16;
  QueryEngine engine(store, options);

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> wrong{0}, served{0}, shed{0}, submitted{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(500 + t);
      while (!done.load(std::memory_order_relaxed)) {
        std::vector<Query> batch(8);
        for (Query& q : batch) {
          q.u = static_cast<Vertex>(rng.uniform(kN));
          q.v = static_cast<Vertex>(rng.uniform(kN));
        }
        const auto results = engine.serve_batch(batch);
        submitted.fetch_add(batch.size(), std::memory_order_relaxed);
        for (std::size_t i = 0; i < results.size(); ++i) {
          const QueryResult& r = results[i];
          if (r.outcome != QueryOutcome::kServed) {
            shed.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          served.fetch_add(1, std::memory_order_relaxed);
          const auto& truth = (r.epoch % 2 == 1) ? truth_a : truth_b;
          if (r.distance != truth[batch[i].u][batch[i].v]) {
            wrong.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }

  for (int e = 0; e < 120; ++e) {
    const bool next_odd = (store.current_epoch() + 1) % 2 == 1;
    const Graph& g = next_odd ? a : b;
    store.publish(g, g, {});
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  done.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();

  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_EQ(shed.load(), 0u);  // healthy certificates throughout
  // Conservation across every epoch boundary the hammer crossed.
  EXPECT_EQ(served.load() + shed.load(), submitted.load());
  EXPECT_GE(store.published(), 121u);
  // No leak: everything retired except the store's current snapshot and
  // (at most) the engine's still-pinned older one.
  EXPECT_LE(store.live(), 2u);
  EXPECT_GE(engine.stats().epochs_adopted, 2u);
}

// --- dispatchers -----------------------------------------------------------

TEST(Admission, EdfSelectMatchesStableSortReference) {
  // edf_select replaces a full stable_sort of the backlog; the contract is
  // bit-identical selection: the `take` most deadline-pressed indices, 0 =
  // no deadline sorting last, FIFO within equal deadlines.
  Rng rng(7);
  for (int trial = 0; trial < 64; ++trial) {
    const std::size_t n = 1 + rng.uniform(200);
    std::vector<std::uint64_t> deadlines(n);
    for (std::uint64_t& d : deadlines) {
      // Zeros and heavy duplication, so the stable tie-break is exercised.
      d = rng.uniform(10) < 3 ? 0 : 1 + rng.uniform(8);
    }
    const std::size_t take = rng.uniform(n + 1);
    std::vector<std::uint32_t> reference(n);
    for (std::size_t i = 0; i < n; ++i) {
      reference[i] = static_cast<std::uint32_t>(i);
    }
    constexpr std::uint64_t kNone = std::numeric_limits<std::uint64_t>::max();
    std::stable_sort(reference.begin(), reference.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       const std::uint64_t da =
                           deadlines[a] == 0 ? kNone : deadlines[a];
                       const std::uint64_t db =
                           deadlines[b] == 0 ? kNone : deadlines[b];
                       return da < db;
                     });
    reference.resize(take);
    EXPECT_EQ(serve::edf_select(deadlines, take), reference)
        << "trial " << trial << " n=" << n << " take=" << take;
  }
}

TEST(QueryEngine, SubmitOnUnstartedEngineShedsShutdown) {
  // The old engine aborted the whole process here (a DCS_REQUIRE that the
  // engine was running); the contract now is a resolved future with a
  // structured terminal outcome.
  const Graph h = test_graph(64, 4, 83);
  QueryEngine engine(h);
  QueryResult r = engine.submit({QueryKind::kDistance, 1, 2, 0}).get();
  EXPECT_EQ(r.outcome, QueryOutcome::kShedShutdown);
  const auto s = engine.stats();
  EXPECT_EQ(s.queries, 1u);
  EXPECT_EQ(s.shed_shutdown, 1u);
}

TEST(QueryEngine, ShutdownRaceShedsInsteadOfAborting) {
  // Producers hammer submit() while the main thread cycles start()/stop().
  // Every future must resolve (served with a correct answer, or shed with
  // a structured outcome) and conservation must hold — the pre-fix engine
  // aborted the process the first time a submit lost the race.
  const Graph h = test_graph(256, 6, 71);
  std::vector<std::vector<Dist>> truth(h.num_vertices());
  for (Vertex u = 0; u < h.num_vertices(); ++u) {
    truth[u] = bfs_distances(h, u);
  }
  ServeOptions options;
  options.dispatchers = 2;
  options.cache_rows = 8;
  QueryEngine engine(h, options);

  constexpr std::size_t kThreads = 8, kPerThread = 400;
  std::atomic<std::uint64_t> served{0}, shed_shutdown{0}, shed_other{0},
      wrong{0};
  std::vector<std::thread> producers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    producers.emplace_back([&, t] {
      Rng rng(7000 + t);
      for (std::size_t i = 0; i < kPerThread; ++i) {
        Query q;
        q.u = static_cast<Vertex>(rng.uniform(h.num_vertices()));
        q.v = static_cast<Vertex>(rng.uniform(h.num_vertices()));
        const QueryResult r = engine.submit(q).get();
        switch (r.outcome) {
          case QueryOutcome::kServed:
            served.fetch_add(1, std::memory_order_relaxed);
            if (r.distance != truth[q.u][q.v]) {
              wrong.fetch_add(1, std::memory_order_relaxed);
            }
            break;
          case QueryOutcome::kShedShutdown:
            shed_shutdown.fetch_add(1, std::memory_order_relaxed);
            break;
          default:
            shed_other.fetch_add(1, std::memory_order_relaxed);
            break;
        }
      }
    });
  }
  // Start/stop churn while the producers run: each cycle opens a fresh
  // race window between the engine leaving kRunning and the dispatchers
  // exiting.
  for (int cycle = 0; cycle < 12; ++cycle) {
    engine.start();
    std::this_thread::sleep_for(std::chrono::microseconds(500));
    engine.stop();
  }
  engine.start();
  for (auto& t : producers) t.join();
  engine.stop();

  EXPECT_EQ(wrong.load(), 0u);
  const auto s = engine.stats();
  EXPECT_EQ(s.queries, kThreads * kPerThread);
  EXPECT_EQ(s.served + s.shed_admission + s.shed_deadline + s.shed_degraded +
                s.shed_shutdown,
            kThreads * kPerThread);
  EXPECT_EQ(s.served, served.load());
  EXPECT_EQ(s.shed_shutdown, shed_shutdown.load());
  EXPECT_EQ(s.served + s.shed_shutdown + s.shed_admission + s.shed_deadline,
            served.load() + shed_shutdown.load() + shed_other.load());
}

TEST(QueryEngine, IdleSingleDispatcherStartStopCyclesDoNotHang) {
  // Regression: stop() used to store its stop flag and notify without
  // passing through the queue mutex, so the notify could land between a
  // dispatcher's predicate check and its cv.wait() and be lost — the
  // dispatcher slept forever and stop() deadlocked in join(). Idle cycles
  // (no producers ever wake the cv) keep every dispatcher in the
  // predicate-check/wait entry window stop() has to race.
  const Graph h = test_graph(64, 4, 83);
  for (const std::size_t dispatchers : {1u, 4u}) {
    ServeOptions options;
    options.dispatchers = dispatchers;
    QueryEngine engine(h, options);
    for (int cycle = 0; cycle < 200; ++cycle) {
      engine.start();
      engine.stop();
    }
  }
  SUCCEED();
}

namespace {

/// Drives `clients` seeded producer threads through an engine configured
/// with `dispatchers` dispatchers and returns one order-sensitive answer
/// checksum per client (distance and route answers folded in submission
/// order). Identical streams must produce identical checksums regardless
/// of the dispatcher count.
std::vector<std::uint64_t> run_dispatcher_corpus(const Graph& h,
                                                 std::size_t dispatchers,
                                                 std::size_t clients,
                                                 std::size_t per_client) {
  ServeOptions options;
  options.dispatchers = dispatchers;
  options.cache_rows = 32;
  options.admission.queue_capacity = 0;  // unbounded: everything serves
  QueryEngine engine(h, options);
  engine.start();
  std::vector<std::uint64_t> checksums(clients, 0);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(42 * (c + 1));
      std::uint64_t sum = 0;
      for (std::size_t i = 0; i < per_client; ++i) {
        Query q;
        q.kind = i % 4 == 3 ? QueryKind::kRoute : QueryKind::kDistance;
        q.u = static_cast<Vertex>(rng.uniform(h.num_vertices()));
        q.v = static_cast<Vertex>(rng.uniform(h.num_vertices()));
        const QueryResult r = engine.submit(q).get();
        EXPECT_EQ(r.outcome, QueryOutcome::kServed);
        sum = sum * 1099511628211ull +
              (r.distance == kUnreachable ? 0xdead : r.distance + 1);
        if (q.kind == QueryKind::kRoute) {
          sum = sum * 1099511628211ull + r.path.size();
        }
      }
      checksums[c] = sum;
    });
  }
  for (auto& t : threads) t.join();
  engine.stop();
  const auto s = engine.stats();
  EXPECT_EQ(s.queries, clients * per_client);
  EXPECT_EQ(s.served, clients * per_client);
  EXPECT_EQ(s.served + s.shed_admission + s.shed_deadline + s.shed_degraded +
                s.shed_shutdown,
            s.queries);
  return checksums;
}

}  // namespace

TEST(QueryEngine, MultiDispatcherMatchesSingleDispatcherChecksums) {
  // Answer-equivalence across dispatcher counts: the same seeded client
  // streams produce checksum-identical answers at dispatchers=1 and
  // dispatchers=4, with exact conservation at both.
  const Graph h = test_graph(512, 6, 73);
  const auto single = run_dispatcher_corpus(h, 1, 4, 150);
  const auto multi = run_dispatcher_corpus(h, 4, 4, 150);
  EXPECT_EQ(single, multi);
}

TEST(QueryEngine, MultiDispatcherSaturationKeepsGlobalConservation) {
  // Four dispatchers against a 4-deep queue must still shed at admission
  // and account every query exactly once.
  const Graph h = test_graph(512, 8, 41);
  ServeOptions options;
  options.dispatchers = 4;
  options.cache_rows = 1;  // defeat the cache: every batch pays BFS work
  options.admission.queue_capacity = 4;
  options.batch_window = 4;
  QueryEngine engine(h, options);
  engine.start();
  constexpr std::size_t kThreads = 4, kPerThread = 300;
  std::atomic<std::uint64_t> served{0}, shed{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(99 + t);
      std::vector<std::future<QueryResult>> futures;
      futures.reserve(kPerThread);
      for (std::size_t i = 0; i < kPerThread; ++i) {
        Query q;
        q.u = static_cast<Vertex>(rng.uniform(h.num_vertices()));
        q.v = static_cast<Vertex>(rng.uniform(h.num_vertices()));
        futures.push_back(engine.submit(q));
      }
      for (auto& f : futures) {
        if (f.get().outcome == QueryOutcome::kServed) {
          served.fetch_add(1, std::memory_order_relaxed);
        } else {
          shed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  engine.stop();
  const auto s = engine.stats();
  EXPECT_EQ(s.queries, kThreads * kPerThread);
  EXPECT_EQ(s.served + s.shed_admission + s.shed_deadline + s.shed_shutdown,
            kThreads * kPerThread);
  EXPECT_EQ(served.load(), s.served);
  EXPECT_EQ(shed.load(), s.shed_admission + s.shed_deadline);
  EXPECT_GT(s.shed_admission, 0u);
}

TEST(QueryEngine, SharedQueueBacklogIsServedByEveryDispatcher) {
  // No dispatcher idles while queries wait: one that drains a window and
  // leaves work behind wakes a sibling. A distinct-source backlog, where
  // every source pays a real sweep, must be served by both dispatchers.
  const Graph h = test_graph(20000, 8, 103);
  ServeOptions options;
  options.dispatchers = 2;
  options.cache_rows = 1;
  options.batch_window = 16;
  options.admission.queue_capacity = 0;
  QueryEngine engine(h, options);
  engine.start();
  std::vector<std::future<QueryResult>> futures;
  for (Vertex u = 0; u < 600; ++u) {
    futures.push_back(engine.submit(
        {QueryKind::kDistance, u, static_cast<Vertex>(u % 100), 0}));
  }
  std::set<std::uint32_t> dispatchers;
  for (auto& f : futures) {
    const QueryResult r = f.get();
    EXPECT_EQ(r.outcome, QueryOutcome::kServed);
    dispatchers.insert(r.dispatcher);
  }
  engine.stop();
  EXPECT_EQ(engine.stats().served, 600u);
  EXPECT_EQ(dispatchers, (std::set<std::uint32_t>{1, 2}));
}

TEST(QueryEngine, SnapshotSwapHammerMultiDispatcher) {
  // The dispatchers=4 rerun of the snapshot-swap hammer, driven through
  // submit() so all four dispatchers race epoch adoption: answers must stay
  // exact on the epoch they report, conservation exact, and — the
  // shared-pin guarantee — the store pinned at most once per published
  // epoch, not once per batch per dispatcher.
  constexpr std::size_t kN = 64;
  const Graph a = test_graph(kN, 4, 121);
  const Graph b = test_graph(kN, 4, 122);
  std::vector<std::vector<Dist>> truth_a(kN), truth_b(kN);
  for (Vertex u = 0; u < kN; ++u) {
    truth_a[u] = bfs_distances(a, u);
    truth_b[u] = bfs_distances(b, u);
  }

  SnapshotStore store(a, a);  // epoch 1 = variant a; parity keys the truth
  ServeOptions options;
  options.dispatchers = 4;
  options.cache_rows = 16;
  options.admission.queue_capacity = 0;
  QueryEngine engine(store, options);
  engine.start();

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> wrong{0}, served{0}, shed{0}, submitted{0};
  std::vector<std::thread> producers;
  for (int t = 0; t < 4; ++t) {
    producers.emplace_back([&, t] {
      Rng rng(900 + t);
      while (!done.load(std::memory_order_relaxed)) {
        std::vector<Query> batch(8);
        std::vector<std::future<QueryResult>> futures;
        for (Query& q : batch) {
          q.u = static_cast<Vertex>(rng.uniform(kN));
          q.v = static_cast<Vertex>(rng.uniform(kN));
          futures.push_back(engine.submit(q));
        }
        submitted.fetch_add(batch.size(), std::memory_order_relaxed);
        for (std::size_t i = 0; i < futures.size(); ++i) {
          const QueryResult r = futures[i].get();
          if (r.outcome != QueryOutcome::kServed) {
            shed.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          served.fetch_add(1, std::memory_order_relaxed);
          const auto& truth = (r.epoch % 2 == 1) ? truth_a : truth_b;
          if (r.distance != truth[batch[i].u][batch[i].v]) {
            wrong.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }

  for (int e = 0; e < 120; ++e) {
    const bool next_odd = (store.current_epoch() + 1) % 2 == 1;
    const Graph& g = next_odd ? a : b;
    store.publish(g, g, {});
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  done.store(true, std::memory_order_relaxed);
  for (auto& t : producers) t.join();
  engine.stop();

  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_EQ(shed.load(), 0u);  // healthy certificates throughout
  EXPECT_EQ(served.load() + shed.load(), submitted.load());
  const auto s = engine.stats();
  EXPECT_EQ(s.queries, submitted.load());
  EXPECT_EQ(s.served + s.shed_admission + s.shed_deadline + s.shed_degraded +
                s.shed_shutdown,
            submitted.load());
  EXPECT_GE(store.published(), 121u);
  EXPECT_LE(store.live(), 2u);
  // One pin per adopted epoch (plus the constructor's), regardless of how
  // many dispatcher batches ran: the pre-refactor engine pinned per batch.
  EXPECT_LE(store.pins(), 1 + store.published());
  EXPECT_GE(engine.stats().epochs_adopted, 2u);
}

// --- lazy routing tables --------------------------------------------------

TEST(LazyRoutingTables, MatchesEagerBuildWithSameSeed) {
  const Graph g = test_graph(80, 6, 61);
  const auto eager = RoutingTables::build(g, 17);
  LazyRoutingTables lazy(g, 17);
  EXPECT_EQ(lazy.rows_filled(), 0u);
  for (Vertex dest = 0; dest < g.num_vertices(); dest += 7) {
    for (Vertex from = 0; from < g.num_vertices(); ++from) {
      ASSERT_EQ(lazy.next_hop(from, dest), eager.next_hop(from, dest))
          << from << " -> " << dest;
    }
  }
  EXPECT_EQ(lazy.rows_filled(), (g.num_vertices() + 6) / 7);
}

TEST(LazyRoutingTables, FillRowsDeduplicatesAndParallelizes) {
  const Graph g = test_graph(64, 4, 67);
  LazyRoutingTables lazy(g, 5);
  const std::vector<Vertex> dests{3, 9, 3, 9, 27, 3};
  lazy.fill_rows(dests);
  EXPECT_EQ(lazy.rows_filled(), 3u);
  EXPECT_TRUE(lazy.has_row(3));
  EXPECT_TRUE(lazy.has_row(27));
  EXPECT_FALSE(lazy.has_row(4));
  lazy.fill_rows(dests);  // idempotent
  EXPECT_EQ(lazy.rows_filled(), 3u);
  const auto path = lazy.route(0, 27);
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path.front(), 0u);
  EXPECT_EQ(path.back(), 27u);
  EXPECT_EQ(path_length(path), static_cast<std::size_t>(
                                   bfs_distances(g, 0)[27]));
}

TEST(LazyRoutingTables, ResetRebindsTheGraphAndDropsEveryRow) {
  const Graph g1 = test_graph(64, 4, 67);
  const Graph g2 = test_graph(64, 4, 68);
  LazyRoutingTables lazy(g1, 5);
  lazy.fill_rows(std::vector<Vertex>{3, 9});
  EXPECT_EQ(lazy.rows_filled(), 2u);

  lazy.reset(g2);  // the epoch-adoption path: same n, new topology
  EXPECT_EQ(lazy.rows_filled(), 0u);
  EXPECT_FALSE(lazy.has_row(3));
  // Rows refilled after the reset answer for g2, not g1.
  const auto eager = RoutingTables::build(g2, 5);
  for (Vertex from = 0; from < 64; ++from) {
    ASSERT_EQ(lazy.next_hop(from, 9), eager.next_hop(from, 9)) << from;
  }
}

// ------------------------------------------------------ request tracing ----

class RequestTracingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Threshold 0: keep every completed request as an exemplar.
    obs::RequestTracer::instance().configure(0.0, 256);
  }
  void TearDown() override {
    obs::RequestTracer::instance().configure(0.0, 256);
    obs::RequestTracer::instance().clear();
    obs::reset_slo_registry();
    obs::set_metrics_enabled(false);
  }
};

TEST_F(RequestTracingTest, DisabledTracingLeavesResultsUntraced) {
  const Graph h = test_graph();
  QueryEngine engine(h);  // ServeOptions::trace.exemplars defaults to off
  const auto results = engine.serve_batch(random_queries(h, 32, 1, 0.25));
  for (const auto& r : results) {
    EXPECT_EQ(r.trace_id, 0u);
    EXPECT_EQ(r.breakdown.queue_us, 0.0);
    EXPECT_EQ(r.breakdown.dispatch_us, 0.0);
    // Batch phases are filled on every path, traced or not.
    EXPECT_GT(r.breakdown.execute_us, 0.0);
  }
  EXPECT_EQ(obs::RequestTracer::instance().size(), 0u);
}

TEST_F(RequestTracingTest, SyncBatchAssignsIdsAndOffersExemplars) {
  const Graph h = test_graph();
  ServeOptions options;
  options.trace.exemplars = true;
  QueryEngine engine(h, options);
  const auto queries = random_queries(h, 24, 2, 0.25);
  const auto results = engine.serve_batch(queries);

  std::set<std::uint64_t> ids;
  for (const auto& r : results) {
    EXPECT_NE(r.trace_id, 0u);
    ids.insert(r.trace_id);
    EXPECT_GT(r.breakdown.execute_us, 0.0);
  }
  EXPECT_EQ(ids.size(), results.size());  // ids are per-request unique

  const auto exemplars = obs::RequestTracer::instance().exemplars();
  ASSERT_EQ(exemplars.size(), queries.size());
  for (std::size_t i = 0; i < exemplars.size(); ++i) {
    EXPECT_EQ(exemplars[i].kind, static_cast<std::uint32_t>(queries[i].kind));
    EXPECT_EQ(exemplars[i].epoch, 1u);  // single-snapshot store
    EXPECT_GT(exemplars[i].total_us, 0.0);
    EXPECT_EQ(exemplars[i].queue_us, 0.0);  // no queue on the sync path
  }
}

TEST_F(RequestTracingTest, CacheHitsAreVisibleInResultsAndExemplars) {
  const Graph h = test_graph();
  ServeOptions options;
  options.trace.exemplars = true;
  QueryEngine engine(h, options);
  std::vector<Query> queries;
  for (Vertex v = 0; v < 8; ++v) queries.push_back({QueryKind::kDistance, 3, v});

  for (const auto& r : engine.serve_batch(queries)) {
    EXPECT_FALSE(r.cache_hit);  // cold cache: the row had to be swept
  }
  for (const auto& r : engine.serve_batch(queries)) {
    EXPECT_TRUE(r.cache_hit);  // same source again: 2Q row hit
  }
  const auto exemplars = obs::RequestTracer::instance().exemplars();
  ASSERT_EQ(exemplars.size(), 2 * queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_FALSE(exemplars[i].cache_hit);
    EXPECT_TRUE(exemplars[queries.size() + i].cache_hit);
  }
}

TEST_F(RequestTracingTest, ConcurrentPathDecomposesLatencyAndKeepsIds) {
  const Graph h = test_graph();
  ServeOptions options;
  options.trace.exemplars = true;
  QueryEngine engine(h, options);
  engine.start();
  constexpr std::size_t kQueries = 48;
  std::vector<std::future<QueryResult>> futures;
  for (std::size_t i = 0; i < kQueries; ++i) {
    Query q;
    q.kind = i % 4 == 0 ? QueryKind::kRoute : QueryKind::kDistance;
    q.u = static_cast<Vertex>(i % h.num_vertices());
    q.v = static_cast<Vertex>((i * 7) % h.num_vertices());
    futures.push_back(engine.submit(q));
  }
  std::size_t served = 0;
  for (auto& f : futures) {
    const QueryResult r = f.get();
    EXPECT_NE(r.trace_id, 0u);  // sheds carry an identity too
    if (r.outcome != QueryOutcome::kServed) continue;
    ++served;
    EXPECT_GE(r.breakdown.queue_us, 0.0);
    EXPECT_GE(r.breakdown.dispatch_us, 0.0);
    EXPECT_GT(r.breakdown.execute_us, 0.0);
    if (r.cache_hit) {
      EXPECT_EQ(r.breakdown.row_fill_us, 0.0);
    }
  }
  engine.stop();
  EXPECT_GT(served, 0u);
  // Every completed request (served or deadline-shed) left an exemplar;
  // admission sheds resolve before dispatch and do not.
  const auto& tracer = obs::RequestTracer::instance();
  EXPECT_GE(tracer.size(), served);
  for (const auto& ex : tracer.exemplars()) {
    EXPECT_NE(ex.trace_id, 0u);
    EXPECT_GE(ex.total_us, ex.execute_us);
  }
}

TEST_F(RequestTracingTest, ServeLatencySloRecordsOnlyWhenMetricsAreOn) {
  const Graph h = test_graph();
  ServeOptions options;
  QueryEngine engine(h, options);
  engine.start();

  // Metrics off: the dispatcher skips the SLO tracker entirely.
  engine.submit({QueryKind::kDistance, 0, 5}).get();
  EXPECT_FALSE(
      obs::parse_json(obs::slo_registry_to_json()).has("serve.latency"));

  obs::set_metrics_enabled(true);
  constexpr std::size_t kQueries = 16;
  std::vector<std::future<QueryResult>> futures;
  for (std::size_t i = 0; i < kQueries; ++i) {
    futures.push_back(
        engine.submit({QueryKind::kDistance, static_cast<Vertex>(i), 9}));
  }
  for (auto& f : futures) f.get();
  engine.stop();

  const auto v = obs::parse_json(obs::slo_registry_to_json());
  ASSERT_TRUE(v.has("serve.latency"));
  const auto& window = v.at("serve.latency").at("windows").as_array()[0];
  EXPECT_GE(window.at("total").as_number(), static_cast<double>(kQueries));
}

}  // namespace
}  // namespace dcs
