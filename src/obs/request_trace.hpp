#pragma once

// Per-request tracing for the serving plane.
//
// A TraceContext is allocated when a query enters QueryEngine::submit() and
// rides the request through admission, EDF dispatch, batch coalescing, the
// MS-BFS sweep, and row fill. On completion the engine offers the tracer a
// RequestExemplar carrying the full latency decomposition plus the causal
// coordinates that explain it: the dispatch batch it was coalesced into, the
// snapshot epoch it was answered on, and whether the cache short-circuited
// the sweep.
//
// The tracer keeps only *tail exemplars* — requests at or above a latency
// threshold — in a bounded ring, so steady-state traffic costs one branch
// per request and a hot mutex is only touched by the slow outliers worth
// explaining. While an obs::Trace session is active, every kept exemplar is
// additionally expanded into its span chain (req / req.queue_wait /
// req.dispatch / req.execute / req.row_fill, each tagged args.trace with the
// request's id) so the existing Chrome/Perfetto stream shows individual slow
// requests alongside the engine's serve_batch phase spans.
//
// Id allocation is two relaxed fetch_adds on process-wide counters; ids are
// unique per process run, never 0.

#include <cstdint>
#include <string>
#include <vector>

namespace dcs::obs {

/// Causal identity of one in-flight request. trace_id 0 means "untraced"
/// (tracing disabled at submit time); parent_id links derived work — e.g. a
/// batch span — back to the request that caused it.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t parent_id = 0;
};

/// One completed traced request, fully decomposed. Durations in
/// microseconds on the shared obs clock (Trace::now_us); total_us is
/// end-to-end (submit → answer ready) and the phases partition it:
/// queue_us (submit → dispatcher drain) + dispatch_us (drain → sweep start)
/// + execute_us (coalesce + MS-BFS sweep) + row_fill_us (route next-hop
/// fill; 0 for distance queries).
struct RequestExemplar {
  std::uint64_t trace_id = 0;
  std::uint64_t batch_id = 0;  ///< dispatch batch (causal parent), 0 = none
  std::uint64_t epoch = 0;     ///< snapshot epoch the answer was pinned to
  std::uint32_t kind = 0;      ///< serve::QueryKind numeric value
  std::uint32_t outcome = 0;   ///< serve::QueryOutcome numeric value
  std::uint32_t dispatcher = 0;  ///< dispatcher that executed the batch
                                 ///< (1-based); 0 = synchronous path or
                                 ///< shed before reaching a dispatcher
  bool cache_hit = false;      ///< answered from the distance-row cache
  double start_us = 0.0;       ///< submit timestamp (obs clock)
  double queue_us = 0.0;
  double dispatch_us = 0.0;
  double execute_us = 0.0;
  double row_fill_us = 0.0;
  double total_us = 0.0;
};

class RequestTracer {
 public:
  static RequestTracer& instance();

  /// Sets the exemplar threshold (keep requests with total_us >= threshold;
  /// 0 keeps everything) and the ring capacity, and clears kept exemplars.
  void configure(double threshold_us, std::size_t capacity = 256);
  double threshold_us() const;
  std::size_t capacity() const;

  /// Fresh non-zero request / batch ids (relaxed atomic increments).
  std::uint64_t next_trace_id();
  std::uint64_t next_batch_id();

  /// Reserves `n` consecutive trace ids with one relaxed fetch_add and
  /// returns the first — how the synchronous batch path stamps a whole
  /// batch without n atomic operations. Never returns 0 (n >= 1).
  std::uint64_t next_trace_id_block(std::uint64_t n);

  /// Offers a completed request. Below-threshold exemplars return after one
  /// comparison; tail exemplars are kept (ring evicts oldest) and, when a
  /// Trace session is active, expanded into their span chain.
  void offer(const RequestExemplar& exemplar);

  /// Offers many completed requests, taking the ring mutex at most once
  /// (and only if at least one exemplar survives the threshold). Same
  /// per-exemplar semantics as offer(), in order.
  void offer_batch(const std::vector<RequestExemplar>& batch);

  /// Kept exemplars, oldest first.
  std::vector<RequestExemplar> exemplars() const;
  std::size_t size() const;

  /// {"threshold_us":..,"exemplars":[{"trace_id":..,...},..]} — embedded
  /// verbatim in BENCH_serve.json and served by the stats endpoint.
  std::string to_json() const;

  void clear();

 private:
  RequestTracer() = default;
};

}  // namespace dcs::obs
