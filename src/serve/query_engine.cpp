#include "serve/query_engine.hpp"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <limits>
#include <optional>
#include <unordered_map>
#include <utility>

#include "graph/traversal.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace dcs::serve {

namespace {

/// serve.latency.us uses the log-spaced latency preset (1–2–5 µs decades)
/// instead of the power-of-two default, which squashed the sub-millisecond
/// tail. Compat note: bucket edges in exported histograms changed when this
/// migrated (docs/observability.md).
std::span<const double> latency_bounds() {
  static const std::vector<double> bounds =
      obs::HistogramMetric::latency_bounds_us();
  return bounds;
}

/// Cached references into the process-wide registry (references stay valid
/// for the process lifetime, so the hot path never re-hashes a name).
struct ServeMetrics {
  obs::Counter& queries =
      obs::MetricsRegistry::instance().counter("serve.queries");
  obs::Counter& distance_queries =
      obs::MetricsRegistry::instance().counter("serve.distance_queries");
  obs::Counter& route_queries =
      obs::MetricsRegistry::instance().counter("serve.route_queries");
  obs::Counter& batches =
      obs::MetricsRegistry::instance().counter("serve.batches");
  obs::Counter& coalesced_sources =
      obs::MetricsRegistry::instance().counter("serve.coalesced_sources");
  obs::Counter& cache_hits =
      obs::MetricsRegistry::instance().counter("serve.cache.hits");
  obs::Counter& cache_misses =
      obs::MetricsRegistry::instance().counter("serve.cache.misses");
  obs::Counter& cache_evictions =
      obs::MetricsRegistry::instance().counter("serve.cache.evictions");
  obs::Gauge& cache_hit_ratio =
      obs::MetricsRegistry::instance().gauge("serve.cache.hit_ratio");
  obs::Counter& route_rows_filled =
      obs::MetricsRegistry::instance().counter("serve.route_rows_filled");
  obs::Counter& shed_admission =
      obs::MetricsRegistry::instance().counter("serve.shed.admission");
  obs::Counter& shed_deadline =
      obs::MetricsRegistry::instance().counter("serve.shed.deadline");
  obs::Counter& shed_degraded =
      obs::MetricsRegistry::instance().counter("serve.shed.degraded");
  obs::Counter& shed_shutdown =
      obs::MetricsRegistry::instance().counter("serve.shed.shutdown");
  obs::Counter& unreachable =
      obs::MetricsRegistry::instance().counter("serve.unreachable");
  obs::Counter& epoch_invalidations =
      obs::MetricsRegistry::instance().counter("serve.epoch.invalidations");
  obs::Counter& epoch_rows_dropped =
      obs::MetricsRegistry::instance().counter("serve.epoch.rows_dropped");
  obs::HistogramMetric& batch_queries =
      obs::MetricsRegistry::instance().histogram("serve.batch.queries");
  obs::HistogramMetric& latency_us =
      obs::MetricsRegistry::instance().histogram("serve.latency.us",
                                                 latency_bounds());
};

ServeMetrics& metrics() {
  static ServeMetrics m;
  return m;
}

std::uint64_t now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

constexpr std::uint64_t kNoDeadline =
    std::numeric_limits<std::uint64_t>::max();

}  // namespace

std::vector<std::uint32_t> edf_select(std::span<const std::uint64_t> deadlines,
                                      std::size_t take) {
  const std::size_t n = deadlines.size();
  take = std::min(take, n);
  // Lexicographic (effective deadline, arrival index) keys: nth_element
  // partitions deterministically and the final sort's tie-break is the
  // arrival index — exactly stable_sort's FIFO-within-deadline order.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> keys(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys[i] = {deadlines[i] == 0 ? kNoDeadline : deadlines[i],
               static_cast<std::uint32_t>(i)};
  }
  if (take < n) {
    std::nth_element(keys.begin(), keys.begin() + static_cast<long>(take),
                     keys.end());
  }
  std::sort(keys.begin(), keys.begin() + static_cast<long>(take));
  std::vector<std::uint32_t> out(take);
  for (std::size_t i = 0; i < take; ++i) out[i] = keys[i].second;
  return out;
}

QueryEngine::QueryEngine(SnapshotStore& store, ServeOptions options)
    : store_(&store),
      options_(options),
      admission_(options.admission),
      n_(store.num_vertices()),
      serving_(store.pin()),
      tables_(serving_->spanner, options.seed),
      sync_context_(std::max<std::size_t>(1, options.cache_rows)) {
  init_engine();
}

QueryEngine::QueryEngine(const Graph& h, ServeOptions options)
    : owned_store_(std::make_unique<SnapshotStore>(h, h)),
      store_(owned_store_.get()),
      options_(options),
      admission_(options.admission),
      n_(h.num_vertices()),
      serving_(store_->pin()),
      tables_(serving_->spanner, options.seed),
      sync_context_(std::max<std::size_t>(1, options.cache_rows)) {
  init_engine();
}

void QueryEngine::init_engine() {
  serving_epoch_.store(serving_->epoch, std::memory_order_relaxed);
  n_epochs_adopted_.store(1, std::memory_order_relaxed);
  const std::size_t count = std::max<std::size_t>(1, options_.dispatchers);
  contexts_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    contexts_.emplace_back(std::max<std::size_t>(1, options_.cache_rows));
  }
}

QueryEngine::~QueryEngine() { stop(); }

QueryResult QueryEngine::serve_one(const Query& query) {
  return serve_batch({&query, 1}).front();
}

std::vector<QueryResult> QueryEngine::serve_batch(
    std::span<const Query> queries) {
  std::size_t distance = 0;
  for (const Query& q : queries) {
    if (q.kind == QueryKind::kDistance) ++distance;
  }
  n_queries_.fetch_add(queries.size(), std::memory_order_relaxed);
  n_distance_.fetch_add(distance, std::memory_order_relaxed);
  n_route_.fetch_add(queries.size() - distance, std::memory_order_relaxed);
  metrics().queries.inc(queries.size());
  metrics().distance_queries.inc(distance);
  metrics().route_queries.inc(queries.size() - distance);
  // Sync callers share one context; dispatchers keep running on theirs
  // concurrently.
  std::lock_guard sync(sync_mutex_);
  if (!options_.trace.exemplars) return execute(queries, sync_context_, 0);

  // Traced synchronous path: the batch-call latency is the whole story (no
  // queue/dispatch phases), so the whole batch shares one total_us. Ids come
  // from one block reservation and exemplars go through one offer_batch —
  // per-query cost stays a couple of stores, not an atomic plus a mutex
  // (the ≤3% tracing-overhead gate in bench_serve holds the line).
  obs::RequestTracer& tracer = obs::RequestTracer::instance();
  BatchMeta meta;
  std::vector<QueryResult> results = execute(queries, sync_context_, 0, &meta);
  const double done_obs = obs::Trace::now_us();
  const double total_us = done_obs - meta.start_obs_us;
  const std::uint64_t first_id = tracer.next_trace_id_block(
      std::max<std::uint64_t>(1, results.size()));
  for (std::size_t i = 0; i < results.size(); ++i)
    results[i].trace_id = first_id + i;
  if (total_us >= tracer.threshold_us()) {
    // Every result shares total_us here, so once the ring is full only the
    // newest `capacity` of this batch can survive it — skip building the
    // rest. A live Trace session is the exception: span chains are emitted
    // per offered exemplar, so it gets the whole batch.
    std::size_t first = 0;
    if (!obs::Trace::active()) {
      const std::size_t cap = tracer.capacity();
      if (results.size() > cap) first = results.size() - cap;
    }
    // Scratch reused across batches: the exemplar block runs on every
    // above-threshold batch, and a fresh allocation per batch shows up in
    // the overhead gate.
    static thread_local std::vector<obs::RequestExemplar> batch;
    batch.assign(results.size() - first, obs::RequestExemplar{});
    for (std::size_t i = first; i < results.size(); ++i) {
      const QueryResult& r = results[i];
      obs::RequestExemplar& ex = batch[i - first];
      ex.trace_id = r.trace_id;
      ex.batch_id = meta.batch_id;
      ex.epoch = r.epoch;
      ex.kind = static_cast<std::uint32_t>(queries[i].kind);
      ex.outcome = static_cast<std::uint32_t>(r.outcome);
      ex.dispatcher = r.dispatcher;
      ex.cache_hit = r.cache_hit;
      ex.start_us = meta.start_obs_us;
      ex.execute_us = r.breakdown.execute_us;
      ex.row_fill_us = r.breakdown.row_fill_us;
      ex.total_us = total_us;
    }
    tracer.offer_batch(batch);
  }
  return results;
}

void QueryEngine::maybe_adopt(std::shared_lock<std::shared_mutex>& lock) {
  // Fast path: two atomic loads per batch, no store mutex, no writer lock.
  // N dispatchers at steady epoch cost nothing here.
  if (store_->current_epoch() ==
      serving_epoch_.load(std::memory_order_acquire)) {
    return;
  }
  lock.unlock();
  {
    std::unique_lock exclusive(substrate_mutex_);
    adopt_locked();
  }
  lock.lock();
}

void QueryEngine::adopt_locked() {
  // pin_if_newer is the once-per-epoch guarantee: of the dispatchers that
  // raced to this exclusive section, the first pins and adopts; the rest
  // see their epoch already current and return without re-pinning,
  // re-dropping, or re-binding (the store counts their skips).
  SnapshotRef latest = store_->pin_if_newer(serving_->epoch);
  if (latest == nullptr) return;
  // The caches were materialized against the previous epoch's topology;
  // none of their contents may answer queries on this one. (The injected
  // stale-cache bug skips exactly this drop — the soak harness's
  // query-certified invariant exists to catch it.)
  const std::size_t dropped = cached_rows_locked();
  if (!stale_cache_bug_.load(std::memory_order_relaxed)) {
    sync_context_.rows.clear();
    for (ServeContext& c : contexts_) c.rows.clear();
  }
  // Re-sync the lock-free row-count mirror and the owner watermarks: every
  // executor is quiescent under this exclusive lock, so the recomputed sum
  // is exact (and nonzero on the injected stale-cache path, which keeps
  // its rows).
  sync_context_.rows_exported = sync_context_.rows.size();
  for (ServeContext& c : contexts_) c.rows_exported = c.rows.size();
  n_cached_rows_.store(static_cast<std::int64_t>(cached_rows_locked()),
                       std::memory_order_relaxed);
  serving_ = std::move(latest);
  tables_.reset(serving_->spanner);
  serving_epoch_.store(serving_->epoch, std::memory_order_release);
  n_epochs_adopted_.fetch_add(1, std::memory_order_relaxed);
  ServeMetrics& m = metrics();
  m.epoch_invalidations.inc();
  m.epoch_rows_dropped.inc(dropped);
  obs::FlightRecorder::instance().record(obs::FlightEventKind::kEpochAdopt,
                                         "query-engine", serving_->epoch,
                                         dropped);
}

bool QueryEngine::should_shed_degraded() const {
  const SpannerCertificate& cert = serving_->certificate;
  if (cert.status == GuaranteeStatus::kLost) return true;
  if (options_.require_fresh_certificate && !cert.fresh) return true;
  return static_cast<int>(cert.ladder) >= static_cast<int>(options_.shed_at);
}

std::vector<QueryResult> QueryEngine::execute(std::span<const Query> queries,
                                              ServeContext& ctx,
                                              std::uint32_t dispatcher_id,
                                              BatchMeta* meta) {
  std::shared_lock lock(substrate_mutex_);
  DCS_TRACE_SPAN("serve_batch");
  Timer batch_timer;
  const double start_obs_us = obs::Trace::now_us();
  ServeMetrics& m = metrics();
  n_batches_.fetch_add(1, std::memory_order_relaxed);
  m.batches.inc();
  m.batch_queries.record(static_cast<double>(queries.size()));

  maybe_adopt(lock);
  const std::uint64_t epoch = serving_->epoch;
  if (meta != nullptr) {
    meta->batch_id = options_.trace.exemplars
                         ? obs::RequestTracer::instance().next_batch_id()
                         : 0;
    meta->epoch = epoch;
    meta->start_obs_us = start_obs_us;
  }
  std::vector<QueryResult> results(queries.size());
  for (QueryResult& r : results) r.dispatcher = dispatcher_id;

  // Graceful degradation: the pinned certificate is below the serving
  // policy, so the whole batch sheds with a structured reason instead of
  // stalling behind the repair plane or serving uncertified answers.
  if (should_shed_degraded()) {
    for (std::size_t i = 0; i < queries.size(); ++i) {
      DCS_REQUIRE(queries[i].u < n_ && queries[i].v < n_,
                  "query vertex out of range");
      results[i].outcome = QueryOutcome::kShedDegraded;
      results[i].epoch = epoch;
    }
    n_shed_degraded_.fetch_add(queries.size(), std::memory_order_relaxed);
    m.shed_degraded.inc(queries.size());
    obs::FlightRecorder::instance().record(obs::FlightEventKind::kShed,
                                           "degraded", queries.size(), epoch);
    const double elapsed_us = batch_timer.seconds() * 1e6;
    for (QueryResult& r : results) r.latency_us = elapsed_us;
    return results;
  }

  const Graph& h = serving_->spanner;
  std::uint64_t unreachable = 0;
  const auto answer_distance = [&](QueryResult& r, Dist d) {
    r.distance = d;
    if (d == kUnreachable) ++unreachable;
  };

  // Phase 1: coalesce. Distance queries are keyed by their BFS source;
  // cached rows answer immediately, misses group per distinct source.
  // Route queries are keyed by destination (a next-hop row is per-dest).
  std::unordered_map<Vertex, std::vector<std::size_t>> miss_by_source;
  std::vector<Vertex> missing_sources;
  std::vector<std::size_t> route_indices;
  std::vector<Vertex> route_dests;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    DCS_REQUIRE(q.u < n_ && q.v < n_, "query vertex out of range");
    if (q.kind == QueryKind::kDistance) {
      if (const std::vector<Dist>* row = ctx.rows.find(q.u)) {
        results[i].cache_hit = true;
        answer_distance(results[i], (*row)[q.v]);
      } else {
        const auto [it, fresh] = miss_by_source.try_emplace(q.u);
        if (fresh) missing_sources.push_back(q.u);
        it->second.push_back(i);
      }
    } else {
      route_indices.push_back(i);
      route_dests.push_back(q.v);
    }
  }

  // Phase 2: one 64-wide MS-BFS sweep per chunk of distinct missing
  // sources. A single-chunk batch (the common closed-loop shape) sweeps
  // inline on this thread rather than waking the whole shared pool for one
  // chunk. Multi-chunk batches fan out on the pool, which runs one
  // top-level batch at a time (a concurrent caller sweeps on its own
  // thread). Materialized rows land in locals first so eviction order
  // cannot snatch a row before its queries are answered.
  if (!missing_sources.empty()) {
    n_sources_.fetch_add(missing_sources.size(), std::memory_order_relaxed);
    m.coalesced_sources.inc(missing_sources.size());
    const std::size_t num_chunks =
        (missing_sources.size() + kMsBfsBatch - 1) / kMsBfsBatch;
    std::vector<std::vector<Dist>> fresh_rows(missing_sources.size());
    const auto sweep_chunks = [&](std::size_t lo, std::size_t hi) {
      auto& scratch = traversal_scratch();
      for (std::size_t c = lo; c < hi; ++c) {
        const std::size_t first = c * kMsBfsBatch;
        const std::size_t count =
            std::min(kMsBfsBatch, missing_sources.size() - first);
        const std::span<const Vertex> sweep(missing_sources.data() + first,
                                            count);
        const MsBfsView view =
            multi_source_bfs(h, sweep, kUnreachable, &scratch);
        for (std::size_t i = 0; i < count; ++i) {
          std::vector<Dist>& row = fresh_rows[first + i];
          row.resize(n_);
          for (Vertex v = 0; v < n_; ++v) row[v] = view.at(i, v);
        }
      }
    };
    if (num_chunks == 1) {
      sweep_chunks(0, 1);
    } else {
      parallel_chunks(0, num_chunks,
                      [&](std::size_t lo, std::size_t hi, std::size_t) {
                        sweep_chunks(lo, hi);
                      });
    }
    for (std::size_t s = 0; s < missing_sources.size(); ++s) {
      const Vertex u = missing_sources[s];
      for (const std::size_t qi : miss_by_source[u]) {
        answer_distance(results[qi], fresh_rows[s][queries[qi].v]);
      }
      ctx.rows.insert(u, std::move(fresh_rows[s]));
    }
  }

  // The sweep (phases 1–2) is done; everything after this stamp is route
  // row fill. Batch phases are attributed whole to each query — see
  // QueryLatencyBreakdown.
  const double sweep_done_us = batch_timer.seconds() * 1e6;

  // Phase 3: routes. Lazily fill the next-hop rows for this batch's
  // distinct destinations, then walk each path. tables_ is shared across
  // contexts (rows are substrate-keyed, not context-keyed) and not
  // internally synchronized, so the fill+walk serializes on route_mutex_.
  if (!route_indices.empty()) {
    std::lock_guard route_lock(route_mutex_);
    const std::size_t before = tables_.rows_filled();
    tables_.fill_rows(route_dests);
    const std::size_t filled = tables_.rows_filled() - before;
    n_rows_filled_.fetch_add(filled, std::memory_order_relaxed);
    m.route_rows_filled.inc(filled);
    for (const std::size_t qi : route_indices) {
      const Query& q = queries[qi];
      QueryResult& r = results[qi];
      r.path = tables_.route(q.u, q.v);
      if (r.path.empty()) {
        ++unreachable;
        r.distance = kUnreachable;
      } else {
        r.distance = static_cast<Dist>(path_length(r.path));
      }
    }
  }

  n_unreachable_.fetch_add(unreachable, std::memory_order_relaxed);
  m.unreachable.inc(unreachable);
  n_served_.fetch_add(queries.size(), std::memory_order_relaxed);

  // Export this context's cache-tally deltas. The watermarks live in the
  // context and only its owner writes them, so concurrent executors each
  // export exactly their own delta — the shared-counter read-modify-write
  // this replaces double-counted under concurrency.
  const std::uint64_t d_hits = ctx.rows.hits() - ctx.hits_exported;
  const std::uint64_t d_misses = ctx.rows.misses() - ctx.misses_exported;
  const std::uint64_t d_evictions =
      ctx.rows.evictions() - ctx.evictions_exported;
  ctx.hits_exported = ctx.rows.hits();
  ctx.misses_exported = ctx.rows.misses();
  ctx.evictions_exported = ctx.rows.evictions();
  const std::size_t rows_now = ctx.rows.size();
  n_cached_rows_.fetch_add(static_cast<std::int64_t>(rows_now) -
                               static_cast<std::int64_t>(ctx.rows_exported),
                           std::memory_order_relaxed);
  ctx.rows_exported = rows_now;
  m.cache_hits.inc(d_hits);
  m.cache_misses.inc(d_misses);
  m.cache_evictions.inc(d_evictions);
  const std::uint64_t hits_total =
      n_hits_.fetch_add(d_hits, std::memory_order_relaxed) + d_hits;
  const std::uint64_t misses_total =
      n_misses_.fetch_add(d_misses, std::memory_order_relaxed) + d_misses;
  n_evictions_.fetch_add(d_evictions, std::memory_order_relaxed);
  const std::uint64_t lookups = hits_total + misses_total;
  if (lookups > 0) {
    m.cache_hit_ratio.set(static_cast<double>(hits_total) /
                          static_cast<double>(lookups));
  }

  const double elapsed_us = batch_timer.seconds() * 1e6;
  const double row_fill_us = elapsed_us - sweep_done_us;
  for (std::size_t i = 0; i < results.size(); ++i) {
    QueryResult& r = results[i];
    r.epoch = epoch;
    r.latency_us = elapsed_us;
    r.breakdown.execute_us = sweep_done_us;
    if (queries[i].kind == QueryKind::kRoute)
      r.breakdown.row_fill_us = row_fill_us;
  }
  return results;
}

void QueryEngine::start() {
  std::lock_guard lifecycle(lifecycle_mutex_);
  {
    std::lock_guard lock(queue_mutex_);
    if (state_ != State::kIdle) return;
    state_ = State::kRunning;
  }
  for (std::size_t i = 0; i < contexts_.size(); ++i) {
    threads_.emplace_back([this, i] { dispatcher_loop(i); });
  }
}

void QueryEngine::stop() {
  std::lock_guard lifecycle(lifecycle_mutex_);
  {
    std::lock_guard lock(queue_mutex_);
    if (state_ != State::kRunning) return;
    state_ = State::kDraining;
  }
  queue_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
  threads_.clear();
  std::lock_guard lock(queue_mutex_);
  state_ = State::kIdle;
}

std::future<QueryResult> QueryEngine::submit(const Query& query) {
  DCS_REQUIRE(query.u < n_ && query.v < n_, "query vertex out of range");
  std::promise<QueryResult> promise;
  std::future<QueryResult> future = promise.get_future();
  const std::uint64_t now = now_us();
  // The TraceContext is allocated here, before admission, so even a shed
  // request has an identity its caller can correlate.
  obs::TraceContext ctx;
  double enqueue_obs_us = 0.0;
  if (options_.trace.exemplars) {
    ctx.trace_id = obs::RequestTracer::instance().next_trace_id();
    enqueue_obs_us = obs::Trace::now_us();
  }
  std::optional<QueryOutcome> shed;  // set when refused at submit
  {
    std::lock_guard lock(queue_mutex_);
    if (state_ != State::kRunning) {
      // Never started, stopping, or stopped: shed with a terminal outcome
      // instead of aborting the producer (see "Shutdown" in the header).
      shed = QueryOutcome::kShedShutdown;
    } else if (!admission_.admit(queue_.size())) {
      shed = QueryOutcome::kShedAdmission;
    } else {
      queue_.push_back(Pending{
          .query = query,
          .enqueue_us = now,
          .deadline_us = admission_.deadline_for(now, query.deadline_us),
          .ctx = ctx,
          .enqueue_obs_us = enqueue_obs_us,
          .promise = std::move(promise)});
    }
  }
  // Intake tallies are atomics/registry counters; keeping them outside the
  // queue mutex keeps producers from serializing on bookkeeping.
  n_queries_.fetch_add(1, std::memory_order_relaxed);
  ServeMetrics& m = metrics();
  m.queries.inc();
  if (query.kind == QueryKind::kDistance) {
    n_distance_.fetch_add(1, std::memory_order_relaxed);
    m.distance_queries.inc();
  } else {
    n_route_.fetch_add(1, std::memory_order_relaxed);
    m.route_queries.inc();
  }
  if (!shed) {
    queue_cv_.notify_one();
    return future;
  }
  const bool shutdown = *shed == QueryOutcome::kShedShutdown;
  (shutdown ? n_shed_shutdown_ : n_shed_admission_)
      .fetch_add(1, std::memory_order_relaxed);
  (shutdown ? m.shed_shutdown : m.shed_admission).inc();
  obs::FlightRecorder::instance().record(obs::FlightEventKind::kShed,
                                         shutdown ? "shutdown" : "admission",
                                         1, ctx.trace_id);
  QueryResult result;
  result.outcome = *shed;
  result.trace_id = ctx.trace_id;
  promise.set_value(std::move(result));
  return future;
}

void QueryEngine::drain_window(std::vector<Pending>& out) {
  const std::size_t window =
      options_.batch_window == 0 ? queue_.size() : options_.batch_window;
  if (queue_.size() <= window) {
    out.insert(out.end(), std::make_move_iterator(queue_.begin()),
               std::make_move_iterator(queue_.end()));
    queue_.clear();
    return;
  }
  // EDF: the backlog exceeds one window, so drain the most deadline-
  // pressed queries first; they are not shed behind fresh arrivals that
  // could afford to wait. edf_select keeps this O(Q) under the queue
  // mutex instead of stable_sorting the whole backlog.
  std::vector<std::uint64_t> deadlines;
  deadlines.reserve(queue_.size());
  for (const Pending& p : queue_) deadlines.push_back(p.deadline_us);
  std::vector<char> taken(queue_.size(), 0);
  out.reserve(out.size() + window);
  for (const std::uint32_t idx : edf_select(deadlines, window)) {
    out.push_back(std::move(queue_[idx]));
    taken[idx] = 1;
  }
  // Compact the survivors in place; their relative (arrival) order is
  // preserved, which is what keeps the FIFO tie-break stable across
  // successive drains.
  std::size_t w = 0;
  for (std::size_t r = 0; r < queue_.size(); ++r) {
    if (taken[r]) continue;
    if (w != r) queue_[w] = std::move(queue_[r]);
    ++w;
  }
  queue_.resize(w);
}

void QueryEngine::dispatcher_loop(std::size_t index) {
  std::vector<Pending> drained;
  for (;;) {
    bool left_work = false;
    {
      std::unique_lock lock(queue_mutex_);
      queue_cv_.wait(lock, [this] {
        return !queue_.empty() || state_ != State::kRunning;
      });
      if (queue_.empty()) return;  // kDraining, and nothing left to drain
      drain_window(drained);
      left_work = !queue_.empty();
    }
    // Hand the rest of the backlog to an idle sibling now rather than
    // after this batch executes.
    if (left_work) queue_cv_.notify_one();
    process_batch(index, drained);
    drained.clear();
  }
}

void QueryEngine::process_batch(std::size_t index,
                                std::vector<Pending>& drained) {
  const std::uint32_t dispatcher_id = static_cast<std::uint32_t>(index) + 1;
  ServeMetrics& m = metrics();

  // Deadline shedding: a query whose budget elapsed while queued gets a
  // terminal outcome now instead of consuming a sweep it cannot use.
  const std::uint64_t drain_time = now_us();
  const double drain_obs_us = obs::Trace::now_us();
  obs::RequestTracer& tracer = obs::RequestTracer::instance();
  std::vector<Query> live;
  std::vector<std::size_t> live_index;
  live.reserve(drained.size());
  std::uint64_t deadline_sheds = 0;
  for (std::size_t i = 0; i < drained.size(); ++i) {
    if (AdmissionController::expired(drain_time, drained[i].deadline_us)) {
      n_shed_deadline_.fetch_add(1, std::memory_order_relaxed);
      m.shed_deadline.inc();
      ++deadline_sheds;
      QueryResult shed;
      shed.outcome = QueryOutcome::kShedDeadline;
      shed.latency_us =
          static_cast<double>(drain_time - drained[i].enqueue_us);
      shed.trace_id = drained[i].ctx.trace_id;
      shed.dispatcher = dispatcher_id;
      if (shed.trace_id != 0) {
        shed.breakdown.queue_us = drain_obs_us - drained[i].enqueue_obs_us;
        obs::RequestExemplar ex;
        ex.trace_id = shed.trace_id;
        ex.kind = static_cast<std::uint32_t>(drained[i].query.kind);
        ex.outcome = static_cast<std::uint32_t>(shed.outcome);
        ex.dispatcher = dispatcher_id;
        ex.start_us = drained[i].enqueue_obs_us;
        ex.queue_us = shed.breakdown.queue_us;
        ex.total_us = shed.breakdown.queue_us;
        tracer.offer(ex);
      }
      drained[i].promise.set_value(std::move(shed));
    } else {
      live.push_back(drained[i].query);
      live_index.push_back(i);
    }
  }
  if (deadline_sheds > 0) {
    obs::FlightRecorder::instance().record(obs::FlightEventKind::kShed,
                                           "deadline", deadline_sheds,
                                           dispatcher_id);
  }
  if (live.empty()) return;

  try {
    BatchMeta meta;
    std::vector<QueryResult> results =
        execute(live, contexts_[index], dispatcher_id, &meta);
    const std::uint64_t done = now_us();
    const double done_obs_us = obs::Trace::now_us();
    const bool slo_on = obs::metrics_enabled();
    for (std::size_t j = 0; j < results.size(); ++j) {
      Pending& pending = drained[live_index[j]];
      results[j].latency_us = static_cast<double>(done - pending.enqueue_us);
      m.latency_us.record(results[j].latency_us);
      if (slo_on)
        obs::slo_tracker("serve.latency").record(results[j].latency_us);
      if (pending.ctx.trace_id != 0) {
        QueryResult& r = results[j];
        r.trace_id = pending.ctx.trace_id;
        r.breakdown.queue_us = drain_obs_us - pending.enqueue_obs_us;
        r.breakdown.dispatch_us = meta.start_obs_us - drain_obs_us;
        obs::RequestExemplar ex;
        ex.trace_id = r.trace_id;
        ex.batch_id = meta.batch_id;
        ex.epoch = r.epoch;
        ex.kind = static_cast<std::uint32_t>(pending.query.kind);
        ex.outcome = static_cast<std::uint32_t>(r.outcome);
        ex.dispatcher = dispatcher_id;
        ex.cache_hit = r.cache_hit;
        ex.start_us = pending.enqueue_obs_us;
        ex.queue_us = r.breakdown.queue_us;
        ex.dispatch_us = r.breakdown.dispatch_us;
        ex.execute_us = r.breakdown.execute_us;
        ex.row_fill_us = r.breakdown.row_fill_us;
        ex.total_us = done_obs_us - pending.enqueue_obs_us;
        tracer.offer(ex);
      }
      pending.promise.set_value(std::move(results[j]));
    }
  } catch (...) {
    // Defensive: queries are validated at submit(), but a failure here
    // must reach the waiters, not kill the dispatcher.
    for (const std::size_t idx : live_index) {
      drained[idx].promise.set_exception(std::current_exception());
    }
  }
}

ServeStats QueryEngine::stats() const {
  ServeStats s;
  s.queries = n_queries_.load(std::memory_order_relaxed);
  s.distance_queries = n_distance_.load(std::memory_order_relaxed);
  s.route_queries = n_route_.load(std::memory_order_relaxed);
  s.served = n_served_.load(std::memory_order_relaxed);
  s.batches = n_batches_.load(std::memory_order_relaxed);
  s.coalesced_sources = n_sources_.load(std::memory_order_relaxed);
  s.cache_hits = n_hits_.load(std::memory_order_relaxed);
  s.cache_misses = n_misses_.load(std::memory_order_relaxed);
  s.cache_evictions = n_evictions_.load(std::memory_order_relaxed);
  s.route_rows_filled = n_rows_filled_.load(std::memory_order_relaxed);
  s.shed_admission = n_shed_admission_.load(std::memory_order_relaxed);
  s.shed_deadline = n_shed_deadline_.load(std::memory_order_relaxed);
  s.shed_degraded = n_shed_degraded_.load(std::memory_order_relaxed);
  s.shed_shutdown = n_shed_shutdown_.load(std::memory_order_relaxed);
  s.unreachable = n_unreachable_.load(std::memory_order_relaxed);
  s.epochs_adopted = n_epochs_adopted_.load(std::memory_order_relaxed);
  return s;
}

std::size_t QueryEngine::cached_rows_locked() const {
  std::size_t total = sync_context_.rows.size();
  for (const ServeContext& c : contexts_) total += c.rows.size();
  return total;
}

std::size_t QueryEngine::cached_rows() const {
  // Lock-free mirror, like the other stats: each executor folds its row-
  // count delta in at batch end (owner-only watermark) and adoption
  // re-syncs it under the exclusive lock. Taking the exclusive substrate
  // lock here instead would turn every introspection poll into a barrier
  // that stalls all dispatchers and sync callers.
  const std::int64_t v = n_cached_rows_.load(std::memory_order_relaxed);
  return v > 0 ? static_cast<std::size_t>(v) : 0;
}

}  // namespace dcs::serve
