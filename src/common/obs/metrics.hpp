// Process-wide metrics registry: counters and histograms that the
// healing stack updates from hot paths (PDN solves, thread-pool jobs,
// scheduler quanta, compact-model evaluations, sensor readings).
//
// Design constraints, in order:
//   1. Observation only — recording a metric must never change simulation
//      results.
//   2. Thread-safe and TSan-clean without locks on the record path:
//      a counter is one atomic (exact under concurrency), histograms use
//      fixed log-spaced buckets with atomic integer counts, so sums are
//      order-independent — the same snapshot comes out at any DH_THREADS
//      value.
//   3. Low cost: a counter add is one relaxed atomic op; perf_kernels'
//      BM_CounterAdd and BM_HistogramObserve time each record call.
//
// Call sites cache the metric reference in a function-local static so the
// registry's name lookup (mutex-guarded) happens once per process:
//
//   static obs::Counter& c = obs::registry().counter("pdn.solve.calls");
//   c.add();
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace dh::obs {

/// Monotonic event count: one relaxed atomic, so concurrent add() calls
/// from the pool are exact (no lost updates). Call sites add at most once
/// per quantum, pool job or worker, so the line is never hot enough to
/// need sharding.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    v_.fetch_add(n, std::memory_order_relaxed);
  }

  /// Exact once concurrent writers have finished.
  [[nodiscard]] std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

  /// Test/bench helper; not safe against concurrent add().
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Distribution of positive values on fixed log-spaced buckets
/// (kSubBuckets per octave, covering 2^-40 .. 2^40 with underflow and
/// overflow bins). All state is atomic integers plus CAS-maintained
/// min/max, so snapshots are order-independent: observing the same
/// multiset of values yields bit-identical summaries at any thread count.
/// Percentiles interpolate within the matched bucket (relative error
/// bounded by the bucket width, ~9%). Mean is derived from bucket
/// midpoints — deterministic, same error bound.
class Histogram {
 public:
  static constexpr int kSubBuckets = 8;
  static constexpr int kMinExp = -40;  // smallest bucketed value: 2^-41
  static constexpr int kMaxExp = 40;   // largest bucketed value: 2^40
  static constexpr std::size_t kBuckets =
      static_cast<std::size_t>(kMaxExp - kMinExp) * kSubBuckets + 2;

  void observe(double v) noexcept;

  struct Snapshot {
    std::uint64_t count = 0;
    double min = 0.0;
    double max = 0.0;
    double mean = 0.0;  // from bucket midpoints (deterministic)
    double p50 = 0.0;
    double p95 = 0.0;
  };
  [[nodiscard]] Snapshot snapshot() const noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  /// Quantile q in [0, 1] from the bucket counts.
  [[nodiscard]] double percentile(double q) const noexcept;

  /// Raw bucket counts (for order-independence tests and reports).
  [[nodiscard]] std::vector<std::uint64_t> bucket_counts() const;

  void reset() noexcept;  // test/bench helper; not concurrency-safe

 private:
  [[nodiscard]] static std::size_t bucket_index(double v) noexcept;
  [[nodiscard]] static double bucket_lower(std::size_t idx) noexcept;
  [[nodiscard]] static double bucket_upper(std::size_t idx) noexcept;

  std::array<std::atomic<std::uint64_t>, kBuckets> bins_{};
  std::atomic<std::uint64_t> count_{0};
  // +/-inf sentinels; meaningful only while count_ > 0.
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

/// Name -> metric map. Metric objects are allocated once and never move,
/// so references handed out stay valid for the process lifetime; lookups
/// take a mutex but hot paths cache the returned reference.
class Registry {
 public:
  /// Look up or create. `unit` documents the call site only; the registry
  /// does not store it. Registering the same name as a different metric
  /// kind throws dh::Error.
  [[nodiscard]] Counter& counter(std::string_view name,
                                 std::string_view unit = "");
  [[nodiscard]] Histogram& histogram(std::string_view name,
                                     std::string_view unit = "");

  /// Find without creating; nullptr when absent or of another kind.
  [[nodiscard]] const Counter* find_counter(std::string_view name) const;
  [[nodiscard]] const Histogram* find_histogram(std::string_view name) const;

  /// Zero every metric (entries stay registered). Test/bench helper.
  void reset_all();

 private:
  struct Entry;
  [[nodiscard]] Entry& get_or_create(std::string_view name, bool histogram);
  [[nodiscard]] const Entry* find(std::string_view name) const;

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Entry>> entries_;  // unsorted; small
};

/// The process-wide registry all library instrumentation records into.
/// Never destroyed (immortal), so worker threads and static-destruction
/// paths can always record safely.
[[nodiscard]] Registry& registry();

}  // namespace dh::obs
