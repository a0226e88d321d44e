#include "util/thread_pool.hpp"

#include <algorithm>

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

void ThreadPool::worker_loop(std::size_t index) {
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
