#include "util/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#include <unistd.h>
#endif

namespace dcs {

namespace detail {
bool& in_parallel_region() {
  thread_local bool flag = false;
  return flag;
}
}  // namespace detail

namespace {

// RAII marker for the parallel-region flag.
class RegionGuard {
 public:
  RegionGuard() : previous_(detail::in_parallel_region()) {
    detail::in_parallel_region() = true;
  }
  ~RegionGuard() { detail::in_parallel_region() = previous_; }
  RegionGuard(const RegionGuard&) = delete;
  RegionGuard& operator=(const RegionGuard&) = delete;

 private:
  bool previous_;
};

bool pin_threads_requested() {
  const char* v = std::getenv("DCS_PIN_THREADS");
  return v != nullptr && v[0] != '\0' && std::strcmp(v, "0") != 0;
}

// Pin the calling thread to one CPU, round-robin over the online set.
// Best-effort: a failed setaffinity (cgroup restrictions, shrunk cpuset)
// silently leaves the thread unpinned.
void maybe_pin_current_thread(std::size_t slot) {
#ifdef __linux__
  if (!pin_threads_requested()) return;
  const long ncpu = sysconf(_SC_NPROCESSORS_ONLN);
  if (ncpu <= 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<int>(slot % static_cast<std::size_t>(ncpu)), &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#else
  (void)slot;
#endif
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  std::size_t n = threads;
  if (n == 0) {
    n = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  // The calling thread participates in every parallel_ranges call, so we
  // spawn n-1 workers.
  jobs_.resize(n > 0 ? n - 1 : 0);
  workers_.reserve(jobs_.size());
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_start_.notify_all();
  for (auto& t : workers_) t.join();
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;
  return pool;
}

void ThreadPool::warm(const std::function<void(std::size_t)>& fn) {
  // Static partitioning of [0, size()) hands each worker exactly one
  // index, so fn runs once per thread — on that thread.
  parallel_ranges(0, size(),
                  [&fn](std::size_t lo, std::size_t hi, std::size_t) {
                    for (std::size_t i = lo; i < hi; ++i) fn(i);
                  });
}

void ThreadPool::worker_loop(std::size_t index) {
  // Slot 0 is the caller; workers occupy slots 1..n-1.
  maybe_pin_current_thread(index + 1);
  std::uint64_t seen_generation = 0;
  for (;;) {
    Job job;
    {
      std::unique_lock lock(mutex_);
      cv_start_.wait(lock, [&] {
        return stopping_ || generation_ != seen_generation;
      });
      if (stopping_) return;
      seen_generation = generation_;
      job = jobs_[index];
    }
    std::exception_ptr error;
    if (job.fn != nullptr && job.begin < job.end) {
      try {
        RegionGuard guard;
        (*job.fn)(job.begin, job.end, index + 1);
      } catch (...) {
        error = std::current_exception();
      }
    }
    {
      std::lock_guard lock(mutex_);
      if (error && !first_error_) first_error_ = error;
      if (--pending_ == 0) cv_done_.notify_one();
    }
  }
}

void ThreadPool::parallel_ranges(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
  if (end <= begin) return;
  const auto run_serial = [&] {
    RegionGuard guard;
    fn(begin, end, 0);
  };
  // A nested call from inside a parallel region (a pool worker, or the
  // caller's chunk of an enclosing parallel_ranges) must not post jobs to
  // the already-busy pool: the outer batch's pending_ latch can never
  // reach zero while this thread blocks on the inner one. Degrade to
  // serial, exactly like parallel_for does. A pool with no workers
  // (size() == 1) takes the same path.
  if (workers_.empty() || detail::in_parallel_region()) return run_serial();
  // jobs_/pending_/generation_ describe one batch at a time. A top-level
  // call that finds another in flight runs serially on its own thread
  // rather than waiting: callers such as the query engine hold their own
  // locks here, and waiting on submit_mutex_ under them inverts the order
  // in which a caller chunk, running under submit_mutex_, takes them.
  std::unique_lock submit_lock(submit_mutex_, std::try_to_lock);
  if (!submit_lock.owns_lock()) return run_serial();
  const std::size_t total = end - begin;
  const std::size_t workers = size();
  const std::size_t chunk = (total + workers - 1) / workers;

  // Slot 0 (the caller's chunk) is handled inline below; workers get 1..n-1.
  std::size_t caller_begin = begin;
  std::size_t caller_end = std::min(end, begin + chunk);
  {
    std::lock_guard lock(mutex_);
    pending_ = workers_.size();
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      const std::size_t lo = std::min(end, begin + (i + 1) * chunk);
      const std::size_t hi = std::min(end, lo + chunk);
      jobs_[i] = Job{lo, hi, &fn};
    }
    ++generation_;
  }
  cv_start_.notify_all();

  std::exception_ptr caller_error;
  try {
    RegionGuard guard;
    fn(caller_begin, caller_end, 0);
  } catch (...) {
    caller_error = std::current_exception();
  }

  std::exception_ptr error;
  {
    std::unique_lock lock(mutex_);
    cv_done_.wait(lock, [&] { return pending_ == 0; });
    error = first_error_ ? first_error_ : caller_error;
    first_error_ = nullptr;
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace dcs
