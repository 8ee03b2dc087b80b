// Deterministic parallel-execution layer.
//
// A small fixed-size thread pool (no work stealing, one job at a time)
// exposing `parallel_for(n, fn)` and `parallel_map(n, fn)`. Tasks are
// indexed 0..n-1 and claimed dynamically via an atomic counter, but each
// index is executed exactly once and results are stored by index, so the
// *result* of a parallel_map is bit-identical regardless of the thread
// count or scheduling order. Stochastic tasks must derive their random
// stream from the task index (see Rng::stream in common/rng.hpp), never
// from a shared Rng drawn inside the task body — that is the repo-wide
// seed-forking discipline that keeps population statistics reproducible.
//
// The global pool is sized from the DH_THREADS environment variable when
// set (a plain decimal from 1 to 256; anything else throws dh::Error),
// else from std::thread::hardware_concurrency.
// `set_global_thread_count` rebuilds the global pool — call it only from
// a single thread with no parallel work in flight (tests/benchmarks).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace dh {

class ThreadPool {
 public:
  /// `threads` is the total worker count including the calling thread;
  /// 0 means `default_thread_count()`. A pool of 1 runs everything inline.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total threads that participate in a job (workers + caller).
  [[nodiscard]] std::size_t thread_count() const {
    return workers_.size() + 1;
  }

  /// Invoke fn(i) for every i in [0, n), distributing indices across the
  /// pool. Blocks until all indices complete. The first exception thrown
  /// by any task is rethrown on the caller after the job drains.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& fn);

  /// Map i -> fn(i) into a vector ordered by index. The result type must
  /// be default-constructible (slots are pre-allocated, filled in place).
  template <typename Fn>
  [[nodiscard]] auto parallel_map(std::size_t n, Fn&& fn)
      -> std::vector<std::decay_t<decltype(fn(std::size_t{0}))>> {
    using R = std::decay_t<decltype(fn(std::size_t{0}))>;
    static_assert(!std::is_same_v<R, bool>,
                  "parallel_map<bool> would race on vector<bool> bits; "
                  "map to char/int instead");
    std::vector<R> out(n);
    parallel_for(n, [&](std::size_t i) { out[i] = fn(i); });
    return out;
  }

  /// DH_THREADS when set and non-empty, else hardware_concurrency
  /// (min 1). Throws dh::Error naming DH_THREADS when it is
  /// set to anything but a plain decimal from 1 to 256.
  [[nodiscard]] static std::size_t default_thread_count();

 private:
  struct Job {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t n = 0;
    std::atomic<std::size_t> next{0};  // next unclaimed index
    std::exception_ptr error;
    std::mutex error_mu;
  };

  void worker_loop();
  /// Claims and runs indices until the job drains; returns how many this
  /// thread executed (feeds the pool.tasks.* telemetry split).
  static std::size_t run_indices(Job& job);

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_;   // workers wait for a job
  std::condition_variable done_cv_;   // caller waits for drain
  Job* job_ = nullptr;                // current job (guarded by mu_)
  std::size_t active_workers_ = 0;    // workers inside the current job
  bool stop_ = false;
};

/// Process-wide pool used by the library's parallel call sites.
[[nodiscard]] ThreadPool& global_pool();

/// Rebuild the global pool with `threads` total threads (0 = default).
/// Not safe while parallel work is in flight.
void set_global_thread_count(std::size_t threads);

/// Thread count of the global pool (creating it on first use).
[[nodiscard]] std::size_t global_thread_count();

/// parallel_for over the global pool.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

/// parallel_map over the global pool.
template <typename Fn>
[[nodiscard]] auto parallel_map(std::size_t n, Fn&& fn) {
  return global_pool().parallel_map(n, std::forward<Fn>(fn));
}

}  // namespace dh
