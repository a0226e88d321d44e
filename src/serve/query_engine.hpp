#pragma once

// Concurrent query-serving engine: turns a built spanner into a long-lived
// distance/route oracle.
//
// The paper's (α,β)-DC-spanner is a *serving substrate*: distances stretch
// by at most α and congestion by at most β when live traffic is answered
// over the sparse subgraph H instead of G. Everything upstream of this file
// is batch-only; QueryEngine is the missing query path. Three ideas carry
// the whole design:
//
//  * Coalescing.  Point queries are grouped by their BFS endpoint —
//    Distance{u,v} by source u, Route{u,v} by destination v (a next-hop
//    table row is per-destination) — and the distinct endpoints of a batch
//    are advanced through one 64-wide multi_source_bfs sweep of H
//    (graph/traversal's MS-BFS engine, previously used only by offline
//    verification). One sweep of the adjacency serves a whole word of
//    concurrent queries, which is where the ≥3× over one-BFS-per-query
//    comes from.
//
//  * Bounded everything.  Materialized distance rows live in bounded
//    scan-resistant 2Q caches (serve/lru_cache.hpp), one per execution
//    context, so repeat sources are cache hits; route rows fill lazily
//    (routing/tables LazyRoutingTables); admission control
//    (serve/admission.hpp) bounds the pending queue globally and sheds
//    deadline-expired queries with packet_sim-style terminal outcomes, so
//    overload degrades throughput, never accounting: served + shed ==
//    submitted, always.
//
//  * Epoch snapshots.  The engine never reads a mutable graph: it serves
//    from immutable ServeSnapshots pinned out of a SnapshotStore
//    (serve/snapshot.hpp). When the maintenance plane (the
//    SpannerSupervisor) publishes a new epoch, the first batch to notice
//    *adopts* it — dropping every cached distance row and lazy route row,
//    because both were materialized against the previous topology — and
//    in-flight batches finish on the epoch they pinned. Every result
//    carries the epoch it was served under. When the published
//    certificate is too weak to stand behind (ladder at/past
//    ServeOptions::shed_at, guarantees lost, or stale when freshness is
//    required), the batch is shed with the structured kShedDegraded
//    outcome instead of stalling or serving uncertified answers.
//
// Thread model — one queue, N dispatchers:
//
//                                  ┌─▶ dispatcher 1 ─┐
//   producers ──submit()──▶ queue_ ┼─▶ dispatcher 2 ─┼─▶ shared pinned snapshot
//                                  │        …        │   (one pin per epoch)
//                                  └─▶ dispatcher N ─┘
//
//  * submit() admits against queue_.size() and enqueues under
//    queue_mutex_, so the queue bound and conservation are exact.
//  * A dispatcher takes up to one batch window — the whole queue when it
//    fits, otherwise the window's most deadline-pressed queries
//    (edf_select; EDF is global) — and notify_one()s a sibling when it
//    leaves work behind, so no dispatcher idles while queries wait.
//    Each dispatcher executes on its own 2Q row-cache context.
//  * All dispatchers serve under ONE pinned snapshot. Per batch, epoch
//    currency costs two atomic loads (store epoch vs adopted epoch); only
//    when they differ does a dispatcher take the exclusive substrate lock
//    and adopt — pinning once, dropping every context's row cache once,
//    and rebinding the route tables once per epoch, no matter how many
//    dispatchers are in flight (SnapshotStore::pin_if_newer makes the
//    race-losing adopters free).
//  * Shutdown. state_ ∈ {kIdle, kRunning, kDraining} is read and written
//    only under queue_mutex_, which also guards queue_ and the cv
//    predicate (queue non-empty, or state_ != kRunning). submit()
//    enqueues only while state_ == kRunning and otherwise sheds with
//    kShedShutdown; stop() sets kDraining and notify_all()s; a dispatcher
//    exits only when it sees kDraining with an empty queue. So every
//    enqueue precedes the stop, every dispatcher's exit check follows it
//    and finds the query already drained, and since the predicate only
//    changes under queue_mutex_, no wakeup can be lost. stop() joins
//    every dispatcher, so drained batches finish before it returns.
//
// serve_batch() remains the synchronous core (benches, tests, and the
// soak's lockstep mode use it directly); sync callers serialize on their
// own context and run concurrently with the dispatchers.
//
// Instrumentation: a trace span per dispatched batch, serve.* counters,
// the dispatcher id on every result/exemplar, and serve.latency.us /
// serve.batch.queries histograms — see docs/serving.md and
// docs/observability.md.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <thread>
#include <vector>

#include "graph/bfs.hpp"
#include "graph/graph.hpp"
#include "obs/metrics.hpp"
#include "obs/request_trace.hpp"
#include "routing/routing.hpp"
#include "routing/tables.hpp"
#include "serve/admission.hpp"
#include "serve/lru_cache.hpp"
#include "serve/snapshot.hpp"

namespace dcs::serve {

enum class QueryKind : std::uint8_t {
  kDistance,  ///< hop distance u → v on the spanner
  kRoute,     ///< explicit next-hop path u → v on the spanner
};

struct Query {
  QueryKind kind = QueryKind::kDistance;
  Vertex u = 0;
  Vertex v = 0;
  /// Per-query latency budget in microseconds; 0 = the engine default
  /// (AdmissionOptions::default_deadline_us). Only the concurrent path
  /// sheds on deadlines — a synchronous serve_batch() serves everything.
  std::uint64_t deadline_us = 0;
};

/// Per-query latency decomposition, microseconds. The phases partition the
/// end-to-end latency: queue_us (submit → dispatcher drain) + dispatch_us
/// (drain → sweep start) + execute_us (coalesce + MS-BFS sweep) +
/// row_fill_us (route next-hop fill). Batch-level phases (execute,
/// row_fill) are attributed whole to every query in the batch — the
/// question they answer is "what was this query waiting on", not "what
/// share of the sweep did it consume" — and are filled on every path;
/// queue_us/dispatch_us need a TraceContext, so they are 0 unless
/// ServeOptions::trace.exemplars is on (and always 0 on the synchronous
/// serve_batch() path, which has no queue).
struct QueryLatencyBreakdown {
  double queue_us = 0.0;
  double dispatch_us = 0.0;
  double execute_us = 0.0;
  double row_fill_us = 0.0;
};

struct QueryResult {
  QueryOutcome outcome = QueryOutcome::kServed;
  /// Hop distance u → v (route queries: the served path's length);
  /// kUnreachable when no path exists or the query was shed.
  Dist distance = kUnreachable;
  /// Route queries only: the path, empty if unreachable or shed.
  Path path;
  /// Snapshot epoch the batch was pinned to. 0 only for queries shed
  /// before reaching a snapshot (admission/deadline/shutdown sheds).
  std::uint64_t epoch = 0;
  /// Submit-to-completion latency (concurrent path) or batch-call latency
  /// (synchronous path), microseconds.
  double latency_us = 0.0;
  /// Request trace id (obs/request_trace); 0 when tracing is off.
  std::uint64_t trace_id = 0;
  /// Dispatcher that executed (or deadline-shed) this query, 1-based;
  /// 0 = synchronous serve_batch() path or shed before reaching a
  /// dispatcher (admission/shutdown).
  std::uint32_t dispatcher = 0;
  /// Distance query answered from the 2Q row cache without a sweep.
  bool cache_hit = false;
  QueryLatencyBreakdown breakdown;
};

struct ServeOptions {
  /// Distance rows kept in each execution context's 2Q cache (one context
  /// per dispatcher, plus one for the synchronous path).
  std::size_t cache_rows = 256;
  /// Queries drained per dispatch; larger windows coalesce better but add
  /// queueing latency under saturation. A larger backlog is drained
  /// earliest-deadline-first, so near-deadline queries are not shed behind
  /// fresh no-deadline arrivals.
  std::size_t batch_window = 4096;
  AdmissionOptions admission;
  /// Tie-break seed for lazily built route tables.
  std::uint64_t seed = 1;
  /// Dispatcher threads draining the one submit queue, each with its own
  /// row-cache context — see the thread-model diagram above.
  std::size_t dispatchers = 1;
  /// Ladder threshold for graceful degradation: a batch pinned to a
  /// snapshot whose ladder state is >= this sheds with kShedDegraded.
  /// The default sheds only at kLost (the certificate itself is gone);
  /// harnesses that demand a certified envelope on every answer tighten
  /// it (the chaos soak uses kRebuilding).
  SupervisorState shed_at = SupervisorState::kLost;
  /// Also shed when the published certificate was not re-measured against
  /// the published topology (SpannerCertificate::fresh == false).
  bool require_fresh_certificate = false;
  /// Request tracing. Off by default: untraced requests skip id allocation
  /// and exemplar offers entirely (the obs layer's disabled-cost
  /// discipline). When on, every request gets a TraceContext at submit()
  /// and completed requests at/above RequestTracer's threshold are kept as
  /// tail exemplars (configure the threshold via
  /// obs::RequestTracer::instance().configure()).
  struct RequestTraceOptions {
    bool exemplars = false;
  };
  RequestTraceOptions trace;
};

/// Monotonic tallies, readable concurrently with serving. Conservation
/// holds once the engine is drained:
/// queries == served + shed_admission + shed_deadline + shed_degraded
///            + shed_shutdown.
struct ServeStats {
  std::uint64_t queries = 0;
  std::uint64_t distance_queries = 0;
  std::uint64_t route_queries = 0;
  std::uint64_t served = 0;
  std::uint64_t batches = 0;
  std::uint64_t coalesced_sources = 0;  ///< distinct BFS endpoints swept
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t route_rows_filled = 0;
  std::uint64_t shed_admission = 0;
  std::uint64_t shed_deadline = 0;
  std::uint64_t shed_degraded = 0;
  std::uint64_t shed_shutdown = 0;
  std::uint64_t unreachable = 0;
  std::uint64_t epochs_adopted = 0;  ///< snapshot swaps observed (≥ 1)
  /// Always 0: every dispatcher drains the one shared queue, so there is
  /// no work to steal. Kept so existing readers of ServeStats still build.
  std::uint64_t steals = 0;
  std::uint64_t stolen_queries = 0;  ///< always 0, see steals
};

/// Indices of the `take` most deadline-pressed entries of `deadlines`, in
/// dispatch order. A deadline of 0 means none and sorts last; equal
/// deadlines dispatch FIFO (by index). Equivalent to a stable_sort of the
/// whole backlog by effective deadline truncated to `take`, but via an
/// O(Q) nth_element partition plus an O(take log take) sort of the window
/// only — this runs under the queue mutex, squarely in the producers'
/// critical section, so the full-backlog O(Q log Q) sort it replaces was
/// a submit-side stall. Exposed for the equivalence test.
std::vector<std::uint32_t> edf_select(std::span<const std::uint64_t> deadlines,
                                      std::size_t take);

class QueryEngine {
 public:
  /// Serves from `store` (borrowed; must outlive the engine). Every batch
  /// checks the store's epoch; changes invalidate the distance-row caches
  /// and lazy route tables exactly once per epoch.
  explicit QueryEngine(SnapshotStore& store, ServeOptions options = {});

  /// Static-substrate convenience: copies `h` into an internal single-
  /// snapshot store (healthy certificate, epoch 1). Benches and tests
  /// that never churn use this.
  explicit QueryEngine(const Graph& h, ServeOptions options = {});

  ~QueryEngine();

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  // --- synchronous batched path ------------------------------------------
  /// Serves every query (no admission control, no deadlines): coalesces by
  /// BFS endpoint, sweeps cache misses through 64-wide MS-BFS batches,
  /// fills route rows lazily, and returns results in input order. Safe to
  /// call from any thread (sync callers serialize on a dedicated context;
  /// dispatchers keep running). Sheds the whole batch with
  /// kShedDegraded when the pinned certificate is below the serving
  /// policy (see ServeOptions::shed_at).
  std::vector<QueryResult> serve_batch(std::span<const Query> queries);

  /// One-query convenience wrapper over serve_batch.
  QueryResult serve_one(const Query& query);

  // --- concurrent path ----------------------------------------------------
  /// Starts the dispatchers (ServeOptions::dispatchers threads).
  /// Idempotent.
  void start();
  /// Drains the pending queue, then stops the dispatchers. Idempotent;
  /// also run by the destructor.
  void stop();

  /// Enqueues a query for batched dispatch. The returned future is
  /// already resolved with kShedAdmission when the pending bound is
  /// full, and with kShedShutdown when the engine is not running (never
  /// started, stopping, or stopped — a producer racing stop() sheds
  /// cleanly instead of crashing). If the query's deadline passes before
  /// its batch is drained it resolves with kShedDeadline.
  std::future<QueryResult> submit(const Query& query);

  ServeStats stats() const;
  const SnapshotStore& snapshots() const { return *store_; }
  /// Epoch of the currently adopted snapshot (a batch may adopt a newer
  /// one the moment it executes).
  std::uint64_t serving_epoch() const {
    return serving_epoch_.load(std::memory_order_relaxed);
  }
  std::size_t num_vertices() const { return n_; }
  /// Total distance rows cached across every execution context. Served by
  /// a lock-free mirror (safe to poll while serving; never a barrier);
  /// exact whenever no batch is mid-execution.
  std::size_t cached_rows() const;
  std::size_t num_dispatchers() const { return contexts_.size(); }

  /// Fault injection for the chaos-soak harness: skip the distance-row
  /// cache drop on epoch adoption, so rows materialized under a pre-
  /// repair epoch keep answering post-repair queries. The soak's
  /// query-certified invariant must catch and ddmin-minimize this.
  void inject_stale_cache_bug() { stale_cache_bug_ = true; }

 private:
  struct Pending {
    Query query;
    std::uint64_t enqueue_us = 0;
    std::uint64_t deadline_us = 0;  // absolute; 0 = none
    obs::TraceContext ctx;          // trace_id 0 = untraced
    double enqueue_obs_us = 0.0;    // obs clock, for the queue_wait phase
    std::promise<QueryResult> promise;
  };

  /// Causal coordinates of one execute() call, for exemplar assembly.
  struct BatchMeta {
    std::uint64_t batch_id = 0;    // 0 when tracing is off
    std::uint64_t epoch = 0;
    double start_obs_us = 0.0;     // obs clock at sweep start
  };

  /// Per-executor serving state: the 2Q distance-row cache plus the
  /// exported-tally watermarks for it. Each dispatcher owns one and the
  /// synchronous path owns one; only the owner touches it (under the
  /// shared substrate lock), except epoch adoption, which clears every
  /// cache under the exclusive lock. Owner-only watermarks are what make
  /// the cache-metric delta export race-free: the old engine re-read
  /// shared counters read-modify-write, which double-counts the moment
  /// two executors export concurrently.
  struct ServeContext {
    TwoQCache<Vertex, std::vector<Dist>> rows;
    std::uint64_t hits_exported = 0;
    std::uint64_t misses_exported = 0;
    std::uint64_t evictions_exported = 0;
    /// rows.size() at the last delta export, for the n_cached_rows_ mirror.
    std::size_t rows_exported = 0;
    explicit ServeContext(std::size_t capacity) : rows(capacity) {}
  };

  /// Dispatcher lifecycle; see "Shutdown" in the file header.
  enum class State : std::uint8_t { kIdle, kRunning, kDraining };

  /// Shared constructor tail: epoch bookkeeping and dispatcher contexts.
  void init_engine();

  /// Drains up to one batch window at a time until stop() has set
  /// kDraining and the queue is empty. `index` is 0-based; results carry
  /// index + 1.
  void dispatcher_loop(std::size_t index);
  /// Deadline-sheds then executes one drained batch on dispatcher
  /// `index`'s context and resolves its futures.
  void process_batch(std::size_t index, std::vector<Pending>& drained);
  /// Moves up to one batch window from queue_ into `out`: all of it when
  /// it fits, otherwise the window's most deadline-pressed entries
  /// (edf_select). Caller holds queue_mutex_.
  void drain_window(std::vector<Pending>& out);

  /// The coalesced serving core: runs under the shared substrate lock with
  /// the caller-owned `ctx` caches; counts everything except query intake,
  /// which submit()/serve_batch() tally. Fills each result's
  /// execute/row_fill breakdown and, when `meta` is non-null, the batch's
  /// causal coordinates.
  std::vector<QueryResult> execute(std::span<const Query> queries,
                                   ServeContext& ctx,
                                   std::uint32_t dispatcher_id,
                                   BatchMeta* meta = nullptr);
  /// Epoch-currency check: two atomic loads on the fast path; on a change,
  /// upgrades to the exclusive substrate lock and adopts (exactly one
  /// adopter per epoch wins; see adopt_locked()). May release and
  /// reacquire `lock`.
  void maybe_adopt(std::shared_lock<std::shared_mutex>& lock);
  /// Pins the newer snapshot (if still newer — the adoption race loser
  /// returns without touching anything) and drops every context's cached
  /// rows + rebinds the route tables, once. Caller holds the exclusive
  /// substrate lock.
  void adopt_locked();
  /// True when the pinned certificate is below the serving policy.
  bool should_shed_degraded() const;
  std::size_t cached_rows_locked() const;

  std::unique_ptr<SnapshotStore> owned_store_;  ///< Graph-ctor compat only
  SnapshotStore* store_;
  ServeOptions options_;
  AdmissionController admission_;
  std::size_t n_;  ///< vertex count (fixed across epochs)

  // The serving substrate, guarded by substrate_mutex_: executors hold it
  // shared (batches on distinct contexts proceed concurrently); epoch
  // adoption holds it exclusive. tables_ additionally serializes its
  // fill/walk phase on route_mutex_ (LazyRoutingTables is not internally
  // synchronized), taken while already holding the shared lock.
  mutable std::shared_mutex substrate_mutex_;
  SnapshotRef serving_;  ///< snapshot the caches are keyed to
  LazyRoutingTables tables_;
  std::mutex route_mutex_;
  std::atomic<bool> stale_cache_bug_{false};

  // One context per dispatcher (fixed at construction) and the
  // synchronous path's. sync_mutex_ serializes concurrent serve_batch()
  // callers.
  std::vector<ServeContext> contexts_;
  ServeContext sync_context_;
  std::mutex sync_mutex_;

  // The submit queue. queue_mutex_ guards queue_, state_ and the cv
  // predicate; lifecycle_mutex_ serializes start()/stop() and guards
  // threads_, which is declared last because the dispatchers use the rest.
  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<Pending> queue_;
  State state_ = State::kIdle;
  std::mutex lifecycle_mutex_;
  std::vector<std::thread> threads_;

  // Stats mirrors (relaxed atomics so stats() never takes a lock). Cache
  // tallies accumulate owner-computed deltas from each context.
  std::atomic<std::uint64_t> n_queries_{0}, n_distance_{0}, n_route_{0},
      n_served_{0}, n_batches_{0}, n_sources_{0}, n_hits_{0}, n_misses_{0},
      n_evictions_{0}, n_rows_filled_{0}, n_shed_admission_{0},
      n_shed_deadline_{0}, n_shed_degraded_{0}, n_shed_shutdown_{0},
      n_unreachable_{0}, n_epochs_adopted_{0}, serving_epoch_{0};
  /// Lock-free cached_rows() mirror: owners fold their context's row-count
  /// delta in at batch end; adoption re-syncs it under the exclusive lock.
  /// Signed because an executor can net-shrink its cache (evictions).
  std::atomic<std::int64_t> n_cached_rows_{0};
};

}  // namespace dcs::serve
