#include "common/parallel.hpp"

#include <charconv>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <system_error>

#include "common/error.hpp"
#include "common/obs/metrics.hpp"
#include "common/obs/profile.hpp"

namespace dh {

namespace {

// Pool telemetry. Metric objects are immortal registry entries; the
// references are resolved once. Recording is observation-only: it cannot
// perturb index assignment or results.
struct PoolMetrics {
  obs::Counter& jobs = obs::registry().counter("pool.jobs");
  obs::Counter& tasks = obs::registry().counter("pool.tasks");
  obs::Counter& tasks_worker = obs::registry().counter("pool.tasks.worker");
  obs::Histogram& job_ms = obs::registry().histogram("pool.job_ms", "ms");
  obs::Histogram& drain_wait_ms =
      obs::registry().histogram("pool.drain_wait_ms", "ms");
};

/// Upper bound on a pool's total thread count.
constexpr std::size_t kMaxThreads = 256;

PoolMetrics& pool_metrics() {
  static PoolMetrics* m = new PoolMetrics();
  return *m;
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = default_thread_count();
  DH_REQUIRE(threads <= kMaxThreads, "thread count out of range");
  workers_.reserve(threads - 1);
  for (std::size_t i = 0; i + 1 < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::size_t ThreadPool::default_thread_count() {
  if (const char* env = std::getenv("DH_THREADS");
      env != nullptr && env[0] != '\0') {
    // Plain decimal digits only: from_chars takes no sign or whitespace
    // and reports overflow instead of wrapping.
    const char* end = env + std::strlen(env);
    std::size_t v = 0;
    const auto [ptr, ec] = std::from_chars(env, end, v);
    if (ec != std::errc{} || ptr != end || v < 1 || v > kMaxThreads) {
      throw Error(std::string("DH_THREADS='") + env +
                  "' must be a whole number of threads from 1 to " +
                  std::to_string(kMaxThreads));
    }
    return v;
  }
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<std::size_t>(hc);
}

std::size_t ThreadPool::run_indices(Job& job) {
  std::size_t executed = 0;
  for (;;) {
    const std::size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= job.n) break;
    ++executed;
    try {
      (*job.fn)(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(job.error_mu);
      if (!job.error) job.error = std::current_exception();
      // Cancel remaining work: drain the claim counter. (Completion is
      // tracked by in-flight workers, not executed indices, so this
      // cannot strand the caller.)
      job.next.store(job.n, std::memory_order_relaxed);
    }
  }
  return executed;
}

void ThreadPool::worker_loop() {
  for (;;) {
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stop_ || job_ != nullptr; });
      if (stop_) return;
      job = job_;
      ++active_workers_;
    }
    const std::size_t executed = run_indices(*job);
    if (executed > 0) pool_metrics().tasks_worker.add(executed);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_workers_;
    }
    done_cv_.notify_all();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  PoolMetrics& m = pool_metrics();
  if (workers_.empty() || n == 1) {
    DH_PROF_SCOPE("pool.inline_job");
    for (std::size_t i = 0; i < n; ++i) fn(i);
    m.tasks.add(n);
    return;
  }
  m.jobs.add();
  m.tasks.add(n);
  const auto job_t0 = std::chrono::steady_clock::now();
  Job job;
  job.fn = &fn;
  job.n = n;
  {
    std::lock_guard<std::mutex> lock(mu_);
    DH_REQUIRE(job_ == nullptr,
               "ThreadPool does not support nested/concurrent parallel_for "
               "on the same pool");
    job_ = &job;
  }
  work_cv_.notify_all();
  run_indices(job);  // the caller participates
  const auto drain_t0 = std::chrono::steady_clock::now();
  {
    // The caller's run_indices only returns once the claim counter is
    // drained, so no *new* work remains; wait until every worker that
    // entered the job has left it, so none still holds a reference to
    // the stack-allocated job (or is mid-task).
    std::unique_lock<std::mutex> lock(mu_);
    job_ = nullptr;  // stop waking workers for this job
    done_cv_.wait(lock, [&] { return active_workers_ == 0; });
  }
  const auto job_t1 = std::chrono::steady_clock::now();
  m.drain_wait_ms.observe(
      std::chrono::duration<double, std::milli>(job_t1 - drain_t0).count());
  m.job_ms.observe(
      std::chrono::duration<double, std::milli>(job_t1 - job_t0).count());
  if (job.error) std::rethrow_exception(job.error);
}

namespace {

std::unique_ptr<ThreadPool>& global_pool_slot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}

std::mutex& global_pool_mu() {
  static std::mutex mu;
  return mu;
}

}  // namespace

ThreadPool& global_pool() {
  std::lock_guard<std::mutex> lock(global_pool_mu());
  auto& slot = global_pool_slot();
  if (!slot) slot = std::make_unique<ThreadPool>();
  return *slot;
}

void set_global_thread_count(std::size_t threads) {
  std::lock_guard<std::mutex> lock(global_pool_mu());
  global_pool_slot() = std::make_unique<ThreadPool>(threads);
}

std::size_t global_thread_count() { return global_pool().thread_count(); }

void parallel_for(std::size_t n,
                  const std::function<void(std::size_t)>& fn) {
  global_pool().parallel_for(n, fn);
}

}  // namespace dh
