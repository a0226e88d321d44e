// bench_pipeline — the end-to-end lifecycle benchmark of this repository.
//
// One run takes one seeded workload through the whole life of a served
// (α,β)-DC-spanner, timed from outside through the library's public API.
// It keeps two served oracles: a static one that is rebuilt and served, and
// a churned one that takes fault waves, crashes and recovers. The --seconds
// window covers the whole run, from process start to the printed result,
// and the workload shares it between five phases:
//
//   setup     generate G, build H (Algorithm 1), certify α (distance
//             stretch) and β (matching congestion), attach the supervisor,
//             cut the genesis checkpoint, publish the epoch, start the
//             QueryEngine and wait for its first answer. The two oracles'
//             bring-ups count here, then extra bring-ups torn down at once.
//   build     rebuild H from the static G with a fresh sampling seed and
//             recertify it.
//   open      0.5 s of open-loop Poisson traffic on the static oracle,
//             latency counted from each query's due time.
//   inflight  0.25 s of a closed loop keeping 64 queries in flight.
//   churn     a ChurnEngine wave lands on the churned oracle under open-loop
//             traffic; the wave ends when that engine serves the epoch the
//             wave published. After the first wave and every third one
//             after it (one wave past a checkpoint), the oracle is dropped
//             without a flush and recovered from its checkpoint + WAL, until
//             the recovered engine answers a query.
//
// After the bring-ups, a 1 s closed loop fills the static oracle's row
// caches and route rows; it is not measured but counts against the window.
// Then a scheduler runs one unit at a time of the phase furthest behind its
// share, so each phase is spread over the whole run, and stops when no
// unit's longest time so far fits in what is left of the window. A phase
// that has not run yet goes first, so every metric has a sample.
//
// The end-to-end metrics are set-up time (the median bring-up) and the
// spanner's size (|E(H)|/|E(G)|, the mean over every build). The lifecycle's
// other timings (build, certification, 64-in-flight throughput, open-loop
// p50 and p90, wave and recovery time) are medians too, but on a shared
// 4-vCPU machine whose speed drifts by ±25% over minutes they vary by
// 15-35% from run to run, whatever statistic a run takes, so they are
// per-layer metrics of the traced run and only printed by the untraced one.
//
// Load comes from this process only: one thread sends on schedule (it
// sleeps until each due time, never spins) and one collects futures, next
// to the 2 dispatchers of the engine under load; the other oracle's engine
// idles meanwhile.
//
// Correctness (the run reports correct=false and exits 1 on any failure):
// H ⊆ G, α ≤ 3 and β ≤ √Δ·log₂n for every build; every 64th answer equals
// BFS on the spanner of the epoch it was pinned to, and every sampled route
// is a shortest walk on that spanner; every engine conserves queries
// exactly; each recovery replays one WAL wave, the recovered spanner and
// repair debt equal the pre-crash ones, and the recovered certificate is
// not lost.
//
// Usage:
//   bench_pipeline --workload=<name> --seed=<n> [--seconds=<s>] [--traced]
//                  [--smoke] [--work-dir=<dir>]
//
// Untraced runs print the end-to-end metrics; --traced runs the same
// lifecycle with an obs::Trace session, the metrics registry and request
// exemplars on, prints the per-layer metrics and a self-time table, and
// writes <work-dir>/trace.<workload>.json. The last stdout line is one JSON
// object: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <exception>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <semaphore>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "core/regular_spanner.hpp"
#include "core/router.hpp"
#include "core/verifier.hpp"
#include "graph/bfs.hpp"
#include "graph/generators.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/request_trace.hpp"
#include "obs/trace.hpp"
#include "persist/durability.hpp"
#include "resilience/churn_engine.hpp"
#include "resilience/supervisor.hpp"
#include "routing/workloads.hpp"
#include "serve/query_engine.hpp"
#include "serve/snapshot.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using namespace dcs;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using serve::Query;
using serve::QueryEngine;
using serve::QueryKind;
using serve::QueryOutcome;
using serve::QueryResult;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
double seconds_since(Clock::time_point a) {
  return seconds_between(a, Clock::now());
}

double median(std::vector<double> v) { return exact_percentile(v, 0.5); }
double quantile(const std::vector<double>& v, double q) {
  return exact_percentile(v, q);
}
/// The largest value of a sample; NaN (printed as null) when it is empty,
/// as exact_percentile gives.
double highest(const std::vector<double>& v) {
  return v.empty() ? std::nan("") : *std::max_element(v.begin(), v.end());
}

// ---------------------------------------------------------------------------
// Workloads

enum Phase : std::size_t { kSetup, kBuild, kOpen, kInFlight, kChurn, kPhases };
constexpr const char* kPhaseNames[kPhases] = {"setup", "build", "open",
                                              "inflight", "churn"};

struct Workload {
  const char* name;
  std::size_t delta;
  double share[kPhases];  ///< of the time the scheduler hands out
  double rate;            ///< open-loop queries/s on the static oracle
  double route_frac;      ///< share of route queries (the rest: distance)
  bool zipf;              ///< Zipf(1.0) BFS endpoints instead of uniform
  double edge_churn;
  double vertex_churn;
};

// Δ = 320 ≈ 2·n^{2/3} at n = 2048 puts G in the paper's regime, where H
// keeps about an eighth of the edges, so serving runs on a sparse
// substrate. A route row lives until the next epoch and the static oracle
// never changes epoch, so any workload with route queries ends up serving
// them from filled rows; serve-uniform asks distances only, so nothing it
// sends can be answered from the route table, and its uniform endpoints hit
// a 256-row cache about one time in eight. Route-row fills are measured on
// the churned oracle, which drops its rows at every epoch. churn-recover
// adds vertex churn, so its waves carry ~170 events; the other workloads
// churn lightly. It uses Δ = 288, not n^{2/3} = 256: at Δ = 256 the
// sampled G' sits exactly at AdjacencyBitmap's density threshold, so
// whether the build takes the bitmap path (and its time) would depend on
// the seed.
// Every workload gives setup 15% and build at least 25% of the window:
// about 7 bring-ups and 40 builds, the samples the end-to-end metrics need
// (one build's |E(H)|/|E(G)| varies by about 4% with its sampling seed).
constexpr Workload kWorkloads[] = {
    //                         setup build open  inflight churn
    {"build-certify", 320, {0.15, 0.50, 0.10, 0.10, 0.15}, 1000, 0.25, false,
     0.0001, 0.0},
    {"serve-zipf", 320, {0.15, 0.30, 0.25, 0.15, 0.15}, 1500, 0.25, true,
     0.0001, 0.0},
    {"serve-uniform", 320, {0.15, 0.30, 0.25, 0.15, 0.15}, 1000, 0.0, false,
     0.0001, 0.0},
    {"churn-recover", 288, {0.15, 0.25, 0.10, 0.10, 0.40}, 500, 0.25, false,
     0.0003, 0.0005},
};

// The churned oracle checkpoints every third wave and crashes after waves
// 1, 4, 7, ... (one wave past a checkpoint), so every recovery replays
// exactly one WAL wave.
constexpr std::size_t kCheckpointInterval = 3;
constexpr std::size_t kReplayWaves = 1;
constexpr std::size_t kQueriesInFlight = 64;
// Open-loop queries/s on the churned oracle while a wave lands.
constexpr double kChurnRate = 500.0;
constexpr std::size_t kSampleEvery = 64;
constexpr double kAlpha = 3.0;

struct Config {
  Workload w{};
  std::size_t n = 2048;  ///< vertices of every generated G
  std::uint64_t seed = 1;
  double seconds = 30.0;
  bool traced = false;
  fs::path work_dir = ".";
  // Unit lengths of the traffic phases and the untimed warm-up; --smoke
  // shrinks them.
  double warmup_s = 1.0;
  double open_s = 0.5;
  double inflight_s = 0.25;
  // The tracing-overhead probe of a traced run: per engine, one warm-up
  // closed loop, then this many alternating slices.
  double overhead_warmup_s = 0.5;
  std::size_t overhead_slices = 4;
  double overhead_slice_s = 0.25;
  /// Kept free at the end of the window for tear-down and the report.
  double tail_s = 0.3;
};

// ---------------------------------------------------------------------------
// Query generation

/// Seeded query stream. BFS endpoints (distance: u, route: v) are uniform
/// or Zipf(1.0) over a seeded vertex permutation; the other end is uniform.
/// Also measures how much the stream repeats itself: the share of queries
/// whose endpoint is among the previous 256 distinct endpoints (the size of
/// one context's row cache).
class QueryStream {
 public:
  QueryStream(std::size_t n, double route_frac, bool zipf, std::uint64_t seed)
      : n_(n), route_frac_(route_frac), rng_(seed), perm_(n) {
    for (std::size_t i = 0; i < n; ++i) perm_[i] = static_cast<Vertex>(i);
    rng_.shuffle(perm_);
    if (zipf) {
      cdf_.resize(n);
      double total = 0.0;
      for (std::size_t k = 0; k < n; ++k) {
        total += 1.0 / static_cast<double>(k + 1);
        cdf_[k] = total;
      }
      for (double& c : cdf_) c /= total;
    }
  }

  Query next() {
    Query q;
    const bool route = rng_.bernoulli(route_frac_);
    Vertex endpoint;
    if (cdf_.empty()) {
      endpoint = static_cast<Vertex>(rng_.uniform(n_));
    } else {
      const auto it =
          std::upper_bound(cdf_.begin(), cdf_.end(), rng_.uniform_double());
      endpoint = perm_[std::min<std::size_t>(
          static_cast<std::size_t>(it - cdf_.begin()), n_ - 1)];
    }
    const auto other = static_cast<Vertex>(rng_.uniform(n_));
    q.kind = route ? QueryKind::kRoute : QueryKind::kDistance;
    q.u = route ? other : endpoint;
    q.v = route ? endpoint : other;
    note_endpoint(2 * static_cast<std::uint64_t>(endpoint) + (route ? 1 : 0));
    return q;
  }

  /// Exponential inter-arrival gap of a Poisson process at `rate`.
  double gap_s(double rate) {
    return -std::log(1.0 - rng_.uniform_double()) / rate;
  }

  std::uint64_t generated() const { return generated_; }
  std::uint64_t reused() const { return reused_; }

 private:
  static constexpr std::size_t kReuseWindow = 256;

  void note_endpoint(std::uint64_t key) {
    ++generated_;
    const auto it = std::find(recent_.begin(), recent_.end(), key);
    if (it != recent_.end()) {
      ++reused_;
      recent_.erase(it);
    } else if (recent_.size() == kReuseWindow) {
      recent_.pop_back();
    }
    recent_.insert(recent_.begin(), key);
  }

  std::size_t n_;
  double route_frac_;
  Rng rng_;
  std::vector<Vertex> perm_;
  std::vector<double> cdf_;  // empty = uniform endpoints
  std::vector<std::uint64_t> recent_;  // most recent first
  std::uint64_t generated_ = 0;
  std::uint64_t reused_ = 0;
};

// ---------------------------------------------------------------------------
// Load generator

struct Sample {
  Query query;
  QueryResult result;
};

struct TrafficStats {
  double seconds = 0.0;
  std::uint64_t submitted = 0;
  std::uint64_t served = 0;
  std::uint64_t shed = 0;
  std::uint64_t errors = 0;
  std::vector<double> latency_us;  ///< (send − due) + engine latency
  std::vector<double> late_us;     ///< sender lateness (send − due)
  std::vector<double> execute_us;
  std::vector<double> row_fill_us;  ///< route queries only
  std::vector<double> queue_us;     ///< traced engines only
  std::vector<double> dispatch_us;  ///< traced engines only
  std::vector<Sample> samples;      ///< every kSampleEvery-th served answer

  void merge(const TrafficStats& o) {
    seconds += o.seconds;
    submitted += o.submitted;
    served += o.served;
    shed += o.shed;
    errors += o.errors;
    const auto append = [](std::vector<double>& a,
                           const std::vector<double>& b) {
      a.insert(a.end(), b.begin(), b.end());
    };
    append(latency_us, o.latency_us);
    append(late_us, o.late_us);
    append(execute_us, o.execute_us);
    append(row_fill_us, o.row_fill_us);
    append(queue_us, o.queue_us);
    append(dispatch_us, o.dispatch_us);
    samples.insert(samples.end(), o.samples.begin(), o.samples.end());
  }
};

/// Drives one engine from two threads until stop(): the sender submits on
/// a Poisson schedule (open loop, `rate` > 0) or whenever one of
/// `in_flight` slots frees up (closed loop); the collector resolves the
/// futures in submission order and records what they carried.
class Traffic {
 public:
  Traffic(QueryEngine& engine, QueryStream& stream, double rate,
          std::size_t in_flight)
      : engine_(engine),
        stream_(stream),
        rate_(rate),
        slots_(static_cast<std::ptrdiff_t>(in_flight)),
        start_(Clock::now()),
        sender_([this] { send_loop(); }),
        collector_([this] { collect_loop(); }) {}

  ~Traffic() { stop(); }
  Traffic(const Traffic&) = delete;
  Traffic& operator=(const Traffic&) = delete;

  TrafficStats stop() {
    if (sender_.joinable()) {
      stopping_.store(true);
      sender_.join();
      {
        std::lock_guard lock(mutex_);
        sender_done_ = true;
      }
      cv_.notify_one();
      collector_.join();
      stats_.seconds = seconds_since(start_);
    }
    return stats_;
  }

 private:
  struct InFlight {
    Query query;
    Clock::time_point due;
    Clock::time_point sent;
    std::future<QueryResult> future;
  };

  void send_loop() {
    Clock::time_point due = start_;
    while (!stopping_.load()) {
      if (rate_ > 0.0) {
        due += std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(stream_.gap_s(rate_)));
        std::this_thread::sleep_until(due);
        if (stopping_.load()) break;
      } else if (!slots_.try_acquire_for(std::chrono::milliseconds(10))) {
        continue;
      }
      const Query q = stream_.next();
      const Clock::time_point sent = Clock::now();
      if (rate_ <= 0.0) due = sent;
      std::future<QueryResult> future;
      {
        DCS_TRACE_SPAN("serve.submit");
        future = engine_.submit(q);
      }
      {
        std::lock_guard lock(mutex_);
        queue_.push_back({q, due, sent, std::move(future)});
      }
      cv_.notify_one();
    }
  }

  void collect_loop() {
    for (;;) {
      InFlight item;
      {
        std::unique_lock lock(mutex_);
        cv_.wait(lock, [&] { return !queue_.empty() || sender_done_; });
        if (queue_.empty()) return;
        item = std::move(queue_.front());
        queue_.pop_front();
      }
      ++stats_.submitted;
      try {
        QueryResult r = item.future.get();
        if (r.outcome == QueryOutcome::kServed) {
          const double late_us =
              seconds_between(item.due, item.sent) * 1e6;
          stats_.latency_us.push_back(late_us + r.latency_us);
          stats_.late_us.push_back(late_us);
          stats_.execute_us.push_back(r.breakdown.execute_us);
          if (item.query.kind == QueryKind::kRoute)
            stats_.row_fill_us.push_back(r.breakdown.row_fill_us);
          if (r.trace_id != 0) {
            stats_.queue_us.push_back(r.breakdown.queue_us);
            stats_.dispatch_us.push_back(r.breakdown.dispatch_us);
          }
          if (stats_.served++ % kSampleEvery == 0)
            stats_.samples.push_back({item.query, std::move(r)});
        } else {
          ++stats_.shed;
        }
      } catch (const std::exception& e) {
        ++stats_.errors;
        std::fprintf(stderr, "query failed: %s\n", e.what());
      }
      if (rate_ <= 0.0) slots_.release();
    }
  }

  QueryEngine& engine_;
  QueryStream& stream_;
  const double rate_;
  std::counting_semaphore<> slots_;
  std::atomic<bool> stopping_{false};
  std::mutex mutex_;  ///< guards queue_ and sender_done_
  std::condition_variable cv_;
  std::deque<InFlight> queue_;
  bool sender_done_ = false;
  TrafficStats stats_;  ///< collector-owned until stop() joins it
  const Clock::time_point start_;
  std::thread sender_;  // declared last: they start in the constructor
  std::thread collector_;
};

// ---------------------------------------------------------------------------
// The served oracle: network, spanner, maintenance, durability, serving.

struct Oracle {
  /// The network. Every incarnation of the oracle (and the churn engine)
  /// borrows the same one; it outlives a crash like any input would.
  std::shared_ptr<const Graph> g;
  std::unique_ptr<persist::DurabilityManager> durability;
  std::unique_ptr<serve::SnapshotStore> store;
  std::unique_ptr<SpannerSupervisor> supervisor;
  std::unique_ptr<QueryEngine> engine;
  /// Every epoch this store published, pinned, for answer verification.
  std::map<std::uint64_t, serve::SnapshotRef> epochs;
  /// Queries the benchmark submitted to `engine`, for conservation.
  std::uint64_t submitted = 0;

  void remember_epoch() {
    serve::SnapshotRef snap = store->pin();
    epochs[snap->epoch] = std::move(snap);
  }
};

// ---------------------------------------------------------------------------
// Trace analysis

struct SpanTimes {
  std::vector<double> total_ms;
  std::vector<double> self_ms;
};

/// Per span name: every occurrence's duration and self time (duration
/// minus the part covered by its direct children on the same thread).
std::map<std::string, SpanTimes> span_times(std::vector<obs::TraceEvent> ev) {
  std::sort(ev.begin(), ev.end(), [](const auto& a, const auto& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
    return a.dur_us > b.dur_us;
  });
  std::vector<double> child_us(ev.size(), 0.0);
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < ev.size(); ++i) {
    if (i > 0 && ev[i].tid != ev[i - 1].tid) stack.clear();
    while (!stack.empty() && ev[stack.back()].ts_us + ev[stack.back()].dur_us <=
                                 ev[i].ts_us) {
      stack.pop_back();
    }
    if (!stack.empty()) child_us[stack.back()] += ev[i].dur_us;
    stack.push_back(i);
  }
  std::map<std::string, SpanTimes> out;
  for (std::size_t i = 0; i < ev.size(); ++i) {
    SpanTimes& t = out[ev[i].name];
    t.total_ms.push_back(ev[i].dur_us / 1e3);
    t.self_ms.push_back(std::max(0.0, ev[i].dur_us - child_us[i]) / 1e3);
  }
  return out;
}

/// The module a span belongs to: benchmark spans are named
/// <layer>.<call>; library spans by the module that emits them.
std::string layer_of(const std::string& span) {
  static const std::map<std::string, std::string> library = {
      {"regular_spanner", "core"},  {"sample", "core"},
      {"support_reinsert_loop", "core"}, {"assemble", "core"},
      {"serve_batch", "serve"},     {"req", "serve"},
      {"req.queue_wait", "serve"},  {"req.dispatch", "serve"},
      {"req.execute", "serve"},     {"req.row_fill", "serve"},
      {"supervisor_step", "resilience"}, {"spanner_repair", "resilience"},
      {"screen", "resilience"},     {"detour_patch", "resilience"},
      {"matching_patch", "resilience"}, {"rebuild", "resilience"},
  };
  if (const auto it = library.find(span); it != library.end())
    return it->second;
  const auto dot = span.find('.');
  return dot == std::string::npos ? "other" : span.substr(0, dot);
}

// ---------------------------------------------------------------------------
// One run

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::size_t samples = 0;  ///< for the report; 0 = not a sample statistic
};

class Run {
 public:
  Run(Config config, Clock::time_point start)
      : c_(std::move(config)), start_(start) {}

  int execute();

 private:
  std::uint64_t salt(std::uint64_t s) const { return mix64(c_.seed, s); }
  double elapsed() const { return seconds_since(start_); }

  void fail(const std::string& why) {
    failures_.push_back(why);
    std::fprintf(stderr, "FAIL: %s\n", why.c_str());
  }

  SupervisorOptions supervisor_options() const {
    SupervisorOptions o;
    o.health.alpha = kAlpha;
    o.repair.seed = salt(11);
    o.repair.build.seed = salt(11);
    o.checkpoint_interval = kCheckpointInterval;
    return o;
  }

  serve::ServeOptions serve_options(bool traced) const {
    serve::ServeOptions o;
    o.dispatchers = 2;
    o.trace.exemplars = traced;
    return o;
  }

  serve::SpannerCertificate certificate() const {
    serve::SpannerCertificate cert;
    cert.alpha = kAlpha;
    cert.beta = beta_.back();
    return cert;
  }

  std::unique_ptr<Oracle> bring_up(std::size_t instance);
  void certify(const Graph& g, const RegularSpannerResult& built,
               std::uint64_t seed);
  double reserve_s() const;
  void run_phases();
  void run_unit(Phase p);
  TrafficStats run_traffic(QueryEngine& engine, QueryStream& stream,
                           double rate, std::size_t in_flight,
                           double seconds);
  void absorb(Oracle& o, const TrafficStats& s);
  void churn_wave();
  void crash_and_recover();
  void trace_overhead(Oracle& o);
  std::vector<Sample> first_answer(Oracle& o);
  void verify_samples(const Oracle& o, const std::vector<Sample>& samples);
  void check_conservation(const QueryEngine& engine, std::uint64_t submitted);
  void retire(Oracle& o);
  std::vector<Metric> end_to_end() const;
  std::vector<Metric> timings() const;
  std::vector<Metric> per_layer();

  Config c_;
  const Clock::time_point start_;  ///< process start: the window's origin
  fs::path state_dir_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;

  // The lifecycle: `oracle_` keeps a static spanner for build and serve,
  // `churned_` takes the churn waves and the crashes.
  std::unique_ptr<Oracle> oracle_, churned_;
  std::unique_ptr<ChurnEngine> waves_;
  std::unique_ptr<QueryStream> stream_, churn_stream_;
  std::size_t extra_bring_ups_ = 0;
  double spent_s_[kPhases] = {};    ///< time each phase has taken
  double longest_s_[kPhases] = {};  ///< its longest unit so far
  std::size_t units_[kPhases] = {};

  // Measurements.
  std::vector<double> setup_s_, generate_s_, build_s_, certify_s_, stretch_ms_,
      congestion_ms_, edge_frac_, alpha_, beta_;
  TrafficStats open_;  // every open-loop answer, static and churn phases
  // Per 64-in-flight slice: throughput.
  std::vector<double> qps_;
  double inflight_seconds_ = 0.0;
  std::uint64_t inflight_batches_ = 0, inflight_sources_ = 0;
  std::vector<double> wave_ms_, step_ms_, adopt_ms_, events_per_wave_;
  std::size_t max_debt_ = 0;
  std::vector<double> recover_s_, load_ms_, replay_ms_, recheck_ms_,
      wal_bytes_;
  serve::ServeStats served_;  // summed over every retired engine
  double trace_overhead_serve_ = 0.0;
  double trace_overhead_build_ = 0.0;
  std::map<std::string, SpanTimes> spans_;
};

void Run::certify(const Graph& g, const RegularSpannerResult& built,
                  std::uint64_t seed) {
  const Graph& h = built.spanner.h;
  if (!g.contains_subgraph(h)) fail("H is not a subgraph of G");
  const auto t0 = Clock::now();
  DistanceStretchReport stretch;
  {
    DCS_TRACE_SPAN("core.certify.stretch");
    stretch = measure_distance_stretch(g, h);
  }
  const auto t1 = Clock::now();
  CongestionReport congestion;
  {
    DCS_TRACE_SPAN("core.certify.congestion");
    const RoutingProblem matching = random_matching_problem(g, seed);
    const DetourRouter router(h, built.sampled);
    congestion = measure_matching_congestion(g, h, matching, router, seed);
  }
  const auto t2 = Clock::now();
  stretch_ms_.push_back(seconds_between(t0, t1) * 1e3);
  congestion_ms_.push_back(seconds_between(t1, t2) * 1e3);
  certify_s_.push_back(seconds_between(t0, t2));
  alpha_.push_back(stretch.max_stretch);
  const double beta = congestion.congestion_stretch();
  beta_.push_back(beta);
  edge_frac_.push_back(static_cast<double>(h.num_edges()) /
                       static_cast<double>(g.num_edges()));
  if (!stretch.satisfies(kAlpha)) {
    fail("distance stretch " + std::to_string(stretch.max_stretch) +
         " exceeds alpha = 3 (" + std::to_string(stretch.unreachable) +
         " unreachable)");
  }
  const double beta_bound = std::sqrt(static_cast<double>(c_.w.delta)) *
                            std::log2(static_cast<double>(c_.n));
  if (!(beta > 0.0 && beta <= beta_bound)) {
    fail("congestion stretch " + std::to_string(beta) +
         " outside (0, sqrt(delta)*log2(n)]");
  }
}

/// Generates instance `instance`, builds and certifies H, and brings the
/// whole oracle up; one setup_s sample.
std::unique_ptr<Oracle> Run::bring_up(std::size_t instance) {
  DCS_TRACE_SPAN("bench.setup");
  const auto t0 = Clock::now();
  const std::uint64_t seed = salt(1000 + instance);
  auto o = std::make_unique<Oracle>();
  {
    DCS_TRACE_SPAN("graph.generate");
    o->g = std::make_shared<const Graph>(
        random_regular(c_.n, c_.w.delta, seed));
  }
  generate_s_.push_back(seconds_since(t0));
  const auto t1 = Clock::now();
  RegularSpannerResult built;
  {
    DCS_TRACE_SPAN("core.build");
    built = build_regular_spanner(*o->g, {.seed = seed});
  }
  build_s_.push_back(seconds_since(t1));
  ++attempted_;
  certify(*o->g, built, seed);

  const fs::path dir = state_dir_ / ("instance-" + std::to_string(instance));
  o->durability = std::make_unique<persist::DurabilityManager>(dir.string());
  o->supervisor = std::make_unique<SpannerSupervisor>(
      *o->g, built.spanner.h, supervisor_options());
  o->supervisor->attach_durability(o->durability.get());
  {
    DCS_TRACE_SPAN("persist.checkpoint");
    if (!o->supervisor->checkpoint_now())
      fail("genesis checkpoint failed: " + o->durability->last_error());
  }
  o->store = std::make_unique<serve::SnapshotStore>(*o->g, built.spanner.h,
                                                    certificate());
  o->supervisor->attach_snapshots(o->store.get());
  o->engine = std::make_unique<QueryEngine>(*o->store,
                                            serve_options(c_.traced));
  o->engine->start();
  const std::vector<Sample> first = first_answer(*o);
  setup_s_.push_back(seconds_since(t0));
  o->remember_epoch();
  verify_samples(*o, first);
  return o;
}

/// Submits one query and waits for it: the oracle is servable once this
/// returns. Returns the answer for checking once the clock has stopped.
std::vector<Sample> Run::first_answer(Oracle& o) {
  Query q;
  q.u = 0;
  q.v = static_cast<Vertex>(o.g->num_vertices() - 1);
  QueryResult r;
  {
    DCS_TRACE_SPAN("serve.submit");
    r = o.engine->submit(q).get();
  }
  ++o.submitted;
  ++attempted_;
  if (r.outcome != QueryOutcome::kServed) {
    ++failed_;
    fail("first query of a new oracle was shed");
    return {};
  }
  return {{q, std::move(r)}};
}

/// What the scheduler keeps free at the end of the window: the tail, and in
/// a traced run also the tracing-overhead probe (its closed loops and two
/// builds, one of them traced) and the trace's write-out.
double Run::reserve_s() const {
  if (!c_.traced) return c_.tail_s;
  const double probe_s =
      2.0 * (c_.overhead_warmup_s +
             static_cast<double>(c_.overhead_slices) * c_.overhead_slice_s);
  return c_.tail_s + probe_s + 2.0 * longest_s_[kBuild] + 1.0;
}

/// Hands the window out to the phases; see the file comment.
void Run::run_phases() {
  for (;;) {
    const double left = c_.seconds - reserve_s() - elapsed();
    std::size_t pick = kPhases;
    for (std::size_t p = 0; p < kPhases; ++p) {
      if (!(c_.w.share[p] > 0.0)) continue;
      if (spent_s_[p] == 0.0) {
        pick = p;
        break;
      }
      if (longest_s_[p] > left) continue;
      if (pick == kPhases || spent_s_[p] / c_.w.share[p] <
                                 spent_s_[pick] / c_.w.share[pick]) {
        pick = p;
      }
    }
    if (pick == kPhases || !churned_) return;
    const auto t0 = Clock::now();
    run_unit(static_cast<Phase>(pick));
    const double took = seconds_since(t0);
    spent_s_[pick] += took;
    longest_s_[pick] = std::max(longest_s_[pick], took);
    ++units_[pick];
  }
}

void Run::run_unit(Phase p) {
  switch (p) {
    case kSetup: {
      std::unique_ptr<Oracle> extra = bring_up(2 + extra_bring_ups_++);
      const fs::path dir = extra->durability->dir();
      retire(*extra);
      extra.reset();
      fs::remove_all(dir);
      break;
    }
    case kBuild: {
      const Graph& g = *oracle_->g;
      const std::uint64_t seed = salt(2000 + build_s_.size());
      const auto t0 = Clock::now();
      RegularSpannerResult built;
      {
        DCS_TRACE_SPAN("core.build");
        built = build_regular_spanner(g, {.seed = seed});
      }
      build_s_.push_back(seconds_since(t0));
      ++attempted_;
      certify(g, built, seed);
      break;
    }
    case kOpen: {
      const TrafficStats s = run_traffic(*oracle_->engine, *stream_,
                                         c_.w.rate, 0, c_.open_s);
      absorb(*oracle_, s);
      open_.merge(s);
      break;
    }
    case kInFlight: {
      QueryEngine& engine = *oracle_->engine;
      const serve::ServeStats before = engine.stats();
      const TrafficStats s =
          run_traffic(engine, *stream_, 0.0, kQueriesInFlight, c_.inflight_s);
      const serve::ServeStats after = engine.stats();
      absorb(*oracle_, s);
      qps_.push_back(static_cast<double>(s.served) / s.seconds);
      inflight_seconds_ += s.seconds;
      inflight_batches_ += after.batches - before.batches;
      inflight_sources_ += after.coalesced_sources - before.coalesced_sources;
      break;
    }
    case kChurn:
      churn_wave();
      break;
    case kPhases:
      break;
  }
}

TrafficStats Run::run_traffic(QueryEngine& engine, QueryStream& stream,
                              double rate, std::size_t in_flight,
                              double seconds) {
  Traffic traffic(engine, stream, rate, in_flight);
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  return traffic.stop();
}

/// Books one traffic segment against the oracle that served it.
void Run::absorb(Oracle& o, const TrafficStats& s) {
  o.submitted += s.submitted;
  attempted_ += s.submitted;
  failed_ += s.shed + s.errors;
  verify_samples(o, s.samples);
}

/// Lands the next churn wave on the churned oracle under open-loop traffic.
/// After every wave that leaves exactly kReplayWaves waves past the newest
/// checkpoint, the oracle crashes and is recovered.
void Run::churn_wave() {
  Oracle& o = *churned_;
  const std::size_t w = wave_ms_.size();
  const std::span<const FaultEvent> events = waves_->advance();
  Traffic traffic(*o.engine, *churn_stream_, kChurnRate, 0);
  const auto t0 = Clock::now();
  SupervisorReport report;
  {
    DCS_TRACE_SPAN("resilience.step");
    report = o.supervisor->step(events);
  }
  const auto published = Clock::now();
  ++attempted_;
  if (report.epoch != 0) {
    o.remember_epoch();
    if (o.epochs.rbegin()->first != report.epoch)
      fail("store epoch differs from the wave's published epoch");
    while (o.engine->serving_epoch() < report.epoch) {
      if (seconds_since(published) > 30.0) {
        fail("engine never adopted epoch " + std::to_string(report.epoch));
        break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
  wave_ms_.push_back(seconds_since(t0) * 1e3);
  adopt_ms_.push_back(seconds_since(published) * 1e3);
  const TrafficStats s = traffic.stop();
  absorb(o, s);
  open_.merge(s);
  step_ms_.push_back(report.seconds * 1e3);
  events_per_wave_.push_back(static_cast<double>(events.size()));
  max_debt_ = std::max(max_debt_, report.debt);
  if (report.state == SupervisorState::kLost)
    fail("supervisor reached kLost at wave " + std::to_string(w));
  if ((w + 1) % kCheckpointInterval == kReplayWaves) crash_and_recover();
}

/// Drops the churned oracle without a flush and recovers it from its
/// durability directory; recover_s runs until the recovered engine answers
/// a query. Leaves churned_ empty when recovery fails closed.
void Run::crash_and_recover() {
  const Graph pre_spanner = churned_->supervisor->spanner();
  const std::size_t pre_debt = churned_->supervisor->repair_debt();
  const fs::path dir = churned_->durability->dir();
  double wal = 0.0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().filename().string().rfind("wal-", 0) == 0)
      wal += static_cast<double>(entry.file_size());
  }
  wal_bytes_.push_back(wal);
  auto r = std::make_unique<Oracle>();
  r->g = churned_->g;
  retire(*churned_);  // the crash
  churned_.reset();

  ++attempted_;
  const auto t0 = Clock::now();
  SupervisorRecovery report;
  std::vector<Sample> first;
  {
    DCS_TRACE_SPAN("persist.recover");
    r->durability = std::make_unique<persist::DurabilityManager>(dir.string());
    r->supervisor = SpannerSupervisor::recover(*r->g, *r->durability,
                                               supervisor_options(), report);
    if (r->supervisor == nullptr) {
      ++failed_;
      fail("recovery failed closed: " + report.error);
      return;
    }
    r->store = std::make_unique<serve::SnapshotStore>(
        *r->g, r->supervisor->spanner(), certificate());
    r->supervisor->attach_snapshots(r->store.get());
    r->engine = std::make_unique<QueryEngine>(*r->store,
                                              serve_options(c_.traced));
    r->engine->start();
    first = first_answer(*r);
  }
  recover_s_.push_back(seconds_since(t0));
  r->remember_epoch();
  verify_samples(*r, first);
  load_ms_.push_back(report.load_seconds * 1e3);
  replay_ms_.push_back(report.replay_seconds * 1e3);
  recheck_ms_.push_back(report.recheck_seconds * 1e3);
  if (report.wal_waves_replayed != kReplayWaves)
    fail("recovery replayed " + std::to_string(report.wal_waves_replayed) +
         " WAL waves, expected " + std::to_string(kReplayWaves));
  if (!(r->supervisor->spanner() == pre_spanner))
    fail("recovered spanner differs from the pre-crash spanner");
  if (r->supervisor->repair_debt() != pre_debt)
    fail("recovered repair debt differs from the pre-crash debt");
  if (report.certificate == GuaranteeStatus::kLost)
    fail("recovered certificate is lost");
  churned_ = std::move(r);
}

/// Traced runs only, after the per-layer metrics are taken: what
/// observability costs. Serving: two fresh engines over `o`'s store, one
/// with request exemplars, trace and metrics on and one with all three off,
/// warmed up alike, then the same closed loop on each, in alternating
/// slices. Building: one build of H with the trace and metrics on, one with
/// both off.
void Run::trace_overhead(Oracle& o) {
  const auto set_observed = [](bool on) {
    if (on) {
      obs::Trace::start();
    } else {
      obs::Trace::stop();
    }
    obs::set_metrics_enabled(on);
  };
  QueryStream stream(c_.n, c_.w.route_frac, c_.w.zipf, salt(6));
  QueryEngine plain(*o.store, serve_options(false));
  QueryEngine traced(*o.store, serve_options(true));
  std::uint64_t submitted[2] = {0, 0};  // plain, traced
  std::vector<double> qps[2];
  // Slice 0 of each engine warms its row caches and route rows up.
  for (std::size_t k = 0; k <= c_.overhead_slices; ++k) {
    for (const bool on : {false, true}) {
      QueryEngine& engine = on ? traced : plain;
      if (k == 0) engine.start();
      set_observed(on);
      const TrafficStats t = run_traffic(
          engine, stream, 0.0, kQueriesInFlight,
          k == 0 ? c_.overhead_warmup_s : c_.overhead_slice_s);
      submitted[on] += t.submitted;
      attempted_ += t.submitted;
      failed_ += t.shed + t.errors;
      verify_samples(o, t.samples);
      if (k > 0) qps[on].push_back(static_cast<double>(t.served) / t.seconds);
    }
  }
  for (const bool on : {false, true}) {
    QueryEngine& engine = on ? traced : plain;
    engine.stop();
    check_conservation(engine, submitted[on]);
  }
  trace_overhead_serve_ = median(qps[0]) / median(qps[1]) - 1.0;

  double build_s[2] = {0.0, 0.0};
  for (const bool on : {true, false}) {
    set_observed(on);
    const auto t0 = Clock::now();
    build_regular_spanner(*o.g, {.seed = salt(7)});
    build_s[on ? 1 : 0] = seconds_since(t0);
  }
  trace_overhead_build_ = build_s[1] / build_s[0] - 1.0;
}

void Run::verify_samples(const Oracle& o, const std::vector<Sample>& samples) {
  std::map<std::pair<std::uint64_t, Vertex>, std::vector<Dist>> rows;
  for (const Sample& s : samples) {
    const auto it = o.epochs.find(s.result.epoch);
    if (it == o.epochs.end()) {
      fail("answer pinned to unknown epoch " +
           std::to_string(s.result.epoch));
      continue;
    }
    const Graph& h = it->second->spanner;
    auto& row = rows[{s.result.epoch, s.query.u}];
    if (row.empty()) row = bfs_distances(h, s.query.u);
    const Dist want = row[s.query.v];
    if (s.result.distance != want) {
      fail("epoch " + std::to_string(s.result.epoch) + ": d(" +
           std::to_string(s.query.u) + "," + std::to_string(s.query.v) +
           ") served " + std::to_string(s.result.distance) + ", BFS says " +
           std::to_string(want));
      continue;
    }
    if (s.query.kind != QueryKind::kRoute) continue;
    const Path& p = s.result.path;
    bool walkable = want == kUnreachable
                        ? p.empty()
                        : !p.empty() && p.front() == s.query.u &&
                              p.back() == s.query.v && path_length(p) == want;
    for (std::size_t i = 1; walkable && i < p.size(); ++i)
      walkable = h.has_edge(p[i - 1], p[i]);
    if (!walkable) {
      fail("epoch " + std::to_string(s.result.epoch) + ": route " +
           std::to_string(s.query.u) + "->" + std::to_string(s.query.v) +
           " is not a shortest walk on the pinned spanner");
    }
  }
}

void Run::check_conservation(const QueryEngine& engine,
                             std::uint64_t submitted) {
  const serve::ServeStats s = engine.stats();
  const std::uint64_t shed = s.shed_admission + s.shed_deadline +
                             s.shed_degraded + s.shed_shutdown;
  if (s.queries != submitted || s.served + shed != s.queries) {
    fail("conservation: submitted " + std::to_string(submitted) +
         ", engine saw " + std::to_string(s.queries) + ", served " +
         std::to_string(s.served) + " + shed " + std::to_string(shed));
  }
}

/// Stops an oracle's engine, checks and books what it served. The oracle
/// stays usable for everything but serving.
void Run::retire(Oracle& o) {
  o.engine->stop();
  check_conservation(*o.engine, o.submitted);
  const serve::ServeStats s = o.engine->stats();
  served_.cache_hits += s.cache_hits;
  served_.cache_misses += s.cache_misses;
  served_.route_rows_filled += s.route_rows_filled;
  served_.steals += s.steals;
  served_.stolen_queries += s.stolen_queries;
}

int Run::execute() {
  state_dir_ = c_.work_dir / ("state-" + std::string(c_.w.name) + "-" +
                              std::to_string(::getpid()));
  fs::remove_all(state_dir_);
  fs::create_directories(state_dir_);
  if (c_.traced) {
    obs::set_metrics_enabled(true);
    obs::RequestTracer::instance().configure(/*threshold_us=*/5000.0);
    obs::Trace::start();
  }

  const auto t0 = Clock::now();
  oracle_ = bring_up(0);
  std::fprintf(stderr, "%s: n=%zu delta=%zu |E(G)|=%zu |E(H)|/|E(G)|=%.4f\n",
               c_.w.name, c_.n, c_.w.delta, oracle_->g->num_edges(),
               edge_frac_.back());
  churned_ = bring_up(1);
  spent_s_[kSetup] = seconds_since(t0);
  longest_s_[kSetup] = std::max(setup_s_[0], setup_s_[1]);
  ChurnEngineOptions churn;
  churn.seed = salt(4);
  churn.edge_churn_rate = c_.w.edge_churn;
  churn.vertex_churn_rate = c_.w.vertex_churn;
  churn.recovery_rate = 0.3;
  waves_ = std::make_unique<ChurnEngine>(*churned_->g, churn);
  stream_ = std::make_unique<QueryStream>(c_.n, c_.w.route_frac, c_.w.zipf,
                                          salt(3));
  churn_stream_ = std::make_unique<QueryStream>(c_.n, c_.w.route_frac,
                                                c_.w.zipf, salt(5));

  // Warm-up: fills the row caches and route rows; not measured. A closed
  // loop gets there in a second, an open loop at the workload's rate would
  // not.
  absorb(*oracle_, run_traffic(*oracle_->engine, *stream_, 0.0, kQueriesInFlight,
                               c_.warmup_s));
  run_phases();

  std::fprintf(stderr, "\n%-10s %6s %8s %8s\n", "phase", "units", "s",
               "share");
  const double timed = [&] {
    double sum = 0.0;
    for (double s : spent_s_) sum += s;
    return sum;
  }();
  for (std::size_t p = 0; p < kPhases; ++p) {
    std::fprintf(stderr, "%-10s %6zu %8.2f %8.3f\n", kPhaseNames[p], units_[p],
                 spent_s_[p], spent_s_[p] / timed);
  }

  std::vector<Metric> metrics;
  if (c_.traced) {
    spans_ = span_times(obs::Trace::events());
    const fs::path trace_path =
        c_.work_dir / ("trace." + std::string(c_.w.name) + ".json");
    obs::Trace::write_json(trace_path.string());
    std::fprintf(stderr, "wrote %s\n", trace_path.c_str());
  }
  retire(*oracle_);
  if (churned_) retire(*churned_);
  churned_.reset();
  if (c_.traced) {
    // The counters are read before the overhead probe adds its own traffic
    // and builds to them.
    metrics = per_layer();
    trace_overhead(*oracle_);
    metrics.push_back(
        {"obs.trace_overhead.serve", trace_overhead_serve_, "ratio"});
    metrics.push_back(
        {"obs.trace_overhead.build", trace_overhead_build_, "ratio"});
  } else {
    metrics = end_to_end();
  }
  oracle_.reset();
  fs::remove_all(state_dir_);

  const auto report = [](const char* title, const std::vector<Metric>& ms) {
    std::fprintf(stderr, "\n%-40s %16s  %-10s %s\n", title, "value", "unit",
                 "samples");
    for (const Metric& m : ms) {
      std::fprintf(stderr, "%-40s %16.6g  %-10s %zu\n", m.name.c_str(),
                   m.value, m.unit.c_str(), m.samples);
    }
  };
  report("metric", metrics);
  if (!c_.traced) report("timing (not in the result)", timings());
  if (!open_.latency_us.empty()) {
    std::fprintf(stderr, "open-loop latency over %zu answers: p99 %.1f us\n",
                 open_.latency_us.size(), quantile(open_.latency_us, 0.99));
  }
  std::fprintf(stderr, "wall %.2f s of a %.2f s window\n", elapsed(),
               c_.seconds);

  const bool correct = failures_.empty();
  std::string json = "{\"correct\":" + std::string(correct ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(attempted_) +
                     ",\"failed\":" + std::to_string(failed_) +
                     ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ",";
    json += obs::json_quote(metrics[i].name) +
            ":{\"value\":" + obs::json_number(metrics[i].value) +
            ",\"unit\":" + obs::json_quote(metrics[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

std::vector<Metric> Run::end_to_end() const {
  double frac = 0.0;
  for (double f : edge_frac_) frac += f;
  frac /= static_cast<double>(edge_frac_.size());
  return {
      {"setup_s", median(setup_s_), "s", setup_s_.size()},
      {"spanner_edge_frac", frac, "ratio", edge_frac_.size()},
  };
}

/// The lifecycle's timings, each the median of its samples (open-loop
/// latency: a percentile of every open-loop answer, static and churn
/// phases).
std::vector<Metric> Run::timings() const {
  const auto med = [](const char* name, const std::vector<double>& v,
                      const char* unit) {
    return Metric{name, median(v), unit, v.size()};
  };
  const auto& lat = open_.latency_us;
  return {
      med("build_s", build_s_, "s"),
      med("certify_s", certify_s_, "s"),
      med("qps", qps_, "queries/s"),
      {"latency_p50_us", quantile(lat, 0.5), "us", lat.size()},
      {"latency_p90_us", quantile(lat, 0.9), "us", lat.size()},
      med("wave_p50_ms", wave_ms_, "ms"),
      med("recover_s", recover_s_, "s"),
  };
}

// Per-layer metrics of a traced run: first the lifecycle's timings (with
// the trace and metrics on; obs.trace_overhead.* says how much that costs),
// then each layer's own, with the timing or end-to-end metric each should
// move (workload in brackets; "all" = every workload):
//   graph.generate_s                          setup_s (all)
//   graph.traversal.*                         certify_s (build-certify),
//                                             latency_p50_us (serve-uniform)
//   core.build.{sample,support_reinsert,assemble}_ms  self times of the
//                                             library's build spans; build_s
//   core.build.{support_tests,edges_reinserted}  per build; build_s,
//                                             spanner_edge_frac
//   core.certify.{stretch,congestion}_ms      certify_s
//   core.certify.{alpha,beta}                 the certificate (checked)
//   serve.batch.queries.p50, serve.batches_per_s, serve.sources_per_batch
//                                             qps (serve-*)
//   serve.execute_us.*, serve.queue_us.*, serve.dispatch_us.p50
//                                             latency_p50_us, latency_p90_us
//   serve.row_fill_us.*, serve.route_rows_filled  latency_* (churn-recover)
//   serve.cache.hit_ratio with serve.reuse_frac   latency_p50_us (serve-zipf)
//   serve.steals, serve.stolen_queries        latency_p90_us
//   serve.epoch.{adopt_ms,rows_dropped}       wave_p50_ms, latency_p90_us
//                                             (churn-recover)
//   serve.sender_late_us.p99                  validity of the open loop
//   serve.latency_p99_us, serve.fail_frac     reported, not gated
//   resilience.step_ms.p50, .step_self_ms     wave_p50_ms
//   resilience.repair_*                       wave_p50_ms, recover_s
//   resilience.events_per_wave                a property of the workload
//   persist.checkpoint_{ms,bytes}, persist.wal_bytes  wave_p50_ms, setup_s
//   persist.recovery.{load,replay,recheck}_ms recover_s
//   obs.trace_overhead.{serve,build}          cost of observability: traced
//                                             over untraced 64-in-flight
//                                             throughput, and build time
std::vector<Metric> Run::per_layer() {
  auto& reg = obs::MetricsRegistry::instance();
  const auto counter = [&](const char* name) {
    return static_cast<double>(reg.counter(name).value());
  };
  const auto hist_p50 = [&](const char* name) {
    const double v = reg.histogram(name).snapshot().p50;
    return std::isnan(v) ? 0.0 : v;
  };
  const auto span_median = [&](const char* name, bool self) {
    const auto it = spans_.find(name);
    if (it == spans_.end()) return 0.0;
    return median(self ? it->second.self_ms : it->second.total_ms);
  };
  const auto q = [](const std::vector<double>& v, double p) {
    return v.empty() ? 0.0 : quantile(v, p);
  };
  const double builds = std::max(1.0, counter("spanner.regular.builds"));
  const double ms_batches = counter("traversal.ms_batches");
  const double lookups =
      static_cast<double>(served_.cache_hits + served_.cache_misses);
  const double checkpoints = counter("persist.checkpoint.written");

  // Self time per layer over the whole traced run.
  std::map<std::string, double> layer_self_ms;
  std::fprintf(stderr, "\n%-26s %-11s %8s %12s %12s\n", "span", "layer",
               "count", "total ms", "self ms");
  for (const auto& [name, t] : spans_) {
    double total = 0.0, self = 0.0;
    for (double v : t.total_ms) total += v;
    for (double v : t.self_ms) self += v;
    layer_self_ms[layer_of(name)] += self;
    std::fprintf(stderr, "%-26s %-11s %8zu %12.2f %12.2f\n", name.c_str(),
                 layer_of(name).c_str(), t.total_ms.size(), total, self);
  }
  for (const auto& [layer, self] : layer_self_ms)
    std::fprintf(stderr, "layer %-20s self %12.2f ms\n", layer.c_str(), self);

  std::vector<Metric> metrics = timings();
  metrics.insert(metrics.end(), {
      {"graph.generate_s", median(generate_s_), "s"},
      {"graph.traversal.ms_batches", ms_batches, "count"},
      {"graph.traversal.ms_sources_per_batch",
       ms_batches > 0 ? counter("traversal.ms_sources") / ms_batches : 0.0,
       "count"},
      {"graph.traversal.bottom_up_switches",
       counter("traversal.bottom_up_switches"), "count"},
      {"core.build.sample_ms", span_median("sample", true), "ms"},
      {"core.build.support_reinsert_ms",
       span_median("support_reinsert_loop", true), "ms"},
      {"core.build.assemble_ms", span_median("assemble", true), "ms"},
      {"core.build.support_tests",
       counter("spanner.regular.support_tests") / builds, "count"},
      {"core.build.edges_reinserted",
       counter("spanner.regular.edges_reinserted") / builds, "count"},
      {"core.certify.stretch_ms", median(stretch_ms_), "ms"},
      {"core.certify.congestion_ms", median(congestion_ms_), "ms"},
      {"core.certify.alpha", highest(alpha_), "ratio"},
      {"core.certify.beta", highest(beta_), "ratio"},
      {"serve.batch.queries.p50", hist_p50("serve.batch.queries"), "count"},
      {"serve.batches_per_s",
       static_cast<double>(inflight_batches_) / inflight_seconds_, "1/s"},
      {"serve.sources_per_batch",
       inflight_batches_ > 0 ? static_cast<double>(inflight_sources_) /
                                   static_cast<double>(inflight_batches_)
                             : 0.0,
       "count"},
      {"serve.execute_us.p50", q(open_.execute_us, 0.5), "us"},
      {"serve.execute_us.p90", q(open_.execute_us, 0.9), "us"},
      {"serve.row_fill_us.p50", q(open_.row_fill_us, 0.5), "us"},
      {"serve.row_fill_us.p90", q(open_.row_fill_us, 0.9), "us"},
      {"serve.route_rows_filled",
       static_cast<double>(served_.route_rows_filled), "count"},
      {"serve.cache.hit_ratio",
       lookups > 0 ? static_cast<double>(served_.cache_hits) / lookups
                   : 0.0,
       "ratio"},
      {"serve.reuse_frac",
       [&] {
         const double generated = static_cast<double>(
             stream_->generated() + churn_stream_->generated());
         return generated > 0
                    ? static_cast<double>(stream_->reused() +
                                          churn_stream_->reused()) /
                          generated
                    : 0.0;
       }(),
       "ratio"},
      {"serve.queue_us.p50", q(open_.queue_us, 0.5), "us"},
      {"serve.queue_us.p90", q(open_.queue_us, 0.9), "us"},
      {"serve.dispatch_us.p50", q(open_.dispatch_us, 0.5), "us"},
      {"serve.steals", static_cast<double>(served_.steals), "count"},
      {"serve.stolen_queries",
       static_cast<double>(served_.stolen_queries), "count"},
      {"serve.epoch.adopt_ms", median(adopt_ms_), "ms"},
      {"serve.epoch.rows_dropped", counter("serve.epoch.rows_dropped"),
       "count"},
      {"serve.sender_late_us.p99", q(open_.late_us, 0.99), "us"},
      {"serve.latency_p99_us", q(open_.latency_us, 0.99), "us"},
      {"serve.fail_frac",
       open_.submitted > 0 ? static_cast<double>(open_.shed + open_.errors) /
                                 static_cast<double>(open_.submitted)
                           : 0.0,
       "ratio"},
      {"resilience.step_ms.p50", median(step_ms_), "ms"},
      {"resilience.step_self_ms", span_median("supervisor_step", true), "ms"},
      {"resilience.repair_ms", span_median("spanner_repair", false), "ms"},
      {"resilience.repair.candidate_edges", hist_p50("repair.candidate_edges"),
       "count"},
      {"resilience.repair.broken_edges", hist_p50("repair.broken_edges"),
       "count"},
      {"resilience.repair_debt.max", static_cast<double>(max_debt_), "count"},
      {"resilience.events_per_wave", median(events_per_wave_), "count"},
      {"persist.checkpoint_ms", hist_p50("persist.checkpoint.ms"), "ms"},
      {"persist.checkpoint_bytes",
       checkpoints > 0 ? counter("persist.checkpoint.bytes") / checkpoints
                       : 0.0,
       "bytes"},
      {"persist.wal_bytes", median(wal_bytes_), "bytes"},
      {"persist.recovery.load_ms", median(load_ms_), "ms"},
      {"persist.recovery.replay_ms", median(replay_ms_), "ms"},
      {"persist.recovery.recheck_ms", median(recheck_ms_), "ms"},
  });
  return metrics;
}

// ---------------------------------------------------------------------------

bool parse_args(int argc, char** argv, Config& c) {
  std::string workload;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* key) -> const char* {
      const std::size_t len = std::strlen(key);
      return arg.compare(0, len, key) == 0 ? arg.c_str() + len : nullptr;
    };
    const char* v = nullptr;
    char* end = nullptr;
    if ((v = value("--workload="))) {
      workload = v;
    } else if ((v = value("--seed="))) {
      c.seed = std::strtoull(v, &end, 10);
      if (*v == '\0' || *end != '\0') return false;
    } else if ((v = value("--seconds="))) {
      c.seconds = std::strtod(v, &end);
      if (*v == '\0' || *end != '\0' || !(c.seconds > 0.0)) return false;
    } else if ((v = value("--work-dir="))) {
      c.work_dir = v;
    } else if (arg == "--traced") {
      c.traced = true;
    } else if (arg == "--smoke") {
      smoke = true;
    } else {
      return false;
    }
  }
  for (const Workload& w : kWorkloads) {
    if (workload == w.name) {
      c.w = w;
      if (smoke) {
        // n = 256 at Δ ≈ 2·n^{2/3}: every phase and check in about a second.
        c.n = 256;
        c.w.delta = 80;
        c.w.edge_churn = 0.002;
        c.seconds = std::min(c.seconds, 1.0);
        c.warmup_s = 0.1;
        c.open_s = 0.05;
        c.inflight_s = 0.05;
        c.overhead_warmup_s = 0.05;
        c.overhead_slices = 1;
        c.overhead_slice_s = 0.05;
        c.tail_s = 0.0;
      }
      return true;
    }
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point start = Clock::now();
  Config config;
  if (!parse_args(argc, argv, config)) {
    std::fprintf(stderr,
                 "usage: bench_pipeline --workload=<name> --seed=<n> "
                 "[--seconds=<s>] [--traced] [--smoke] [--work-dir=<dir>]\n"
                 "workloads:");
    for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    return 2;
  }
  try {
    Run run(config, start);
    return run.execute();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_pipeline: %s\n", e.what());
    return 2;
  }
}
