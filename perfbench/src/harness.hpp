// Shared machinery of the benchmark harness: clocks and process probes,
// per-item latency logs, %.17g digests, in-memory spans, a tiny JSON
// writer, and the workload interface the three workloads implement.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// steady_clock (CLOCK_MONOTONIC) in nanoseconds — the same clock as
/// Python's time.monotonic_ns, so the launcher can stamp process start.
[[nodiscard]] std::int64_t now_ns();
/// Process user+system CPU time.
[[nodiscard]] double cpu_seconds();
/// Peak resident set size of this process.
[[nodiscard]] double peak_rss_mb();
/// CPUs this process may run on (the affinity mask, i.e. `nproc`).
[[nodiscard]] std::size_t nproc();
/// Pool threads of the sram_retention and em_population workloads:
/// min(nproc, 2). A run that needs every vCPU of a shared host at once is
/// the most exposed to its neighbours: at 4 threads, sram's CPU time per
/// item fell from ~290 to ~70 us as the host's steal time rose, and em's
/// 10-seed spread of item_us_p50 reached 0.26 of its median. Two threads
/// still run every parallel_for as a pool job, a worker beside the caller.
[[nodiscard]] std::size_t pool_threads();
/// Fixed CPU work on `threads` threads; returns CPU time / wall time, the
/// number of cores the machine actually delivered.
[[nodiscard]] double effective_parallelism(std::size_t threads);

struct Options {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool tiny = false;           // smoke-size repetitions
  std::string work_dir = ".";  // work files: checkpoints, span dumps
  std::int64_t t0_ns = 0;      // now_ns() when the process was launched
};

/// Seed of repetition `rep` of a run rooted at `seed`.
[[nodiscard]] std::uint64_t rep_seed(std::uint64_t seed, std::uint64_t rep);

/// Values rendered with %.17g, space separated: equal strings mean
/// bit-equal values.
class Digest {
 public:
  Digest& add(double v);
  [[nodiscard]] const std::string& str() const { return s_; }

 private:
  std::string s_;
};

/// Outcome of every item of a timed section.
struct ItemLog {
  std::vector<float> latency_us;  // items that completed
  std::uint64_t threw = 0;        // items that raised an exception
  std::uint64_t violated = 0;     // completed items with unphysical outputs
  [[nodiscard]] std::uint64_t items() const {
    return latency_us.size() + threw;
  }
  void record(std::int64_t t0, std::int64_t t1, bool physical);
};

/// Quantile q in [0, 1] (nearest rank); 0 for an empty sample. Reorders
/// `v` in place (no copy, so a latency log costs its own pages only).
[[nodiscard]] double percentile(std::vector<float>& v, double q);

/// One traced interval. Aggregated spans sum `count` calls: their
/// t1 - t0 is the summed duration, placed at the start of the first call.
struct Span {
  std::uint16_t name = 0;   // index into SpanLog's name table
  std::int16_t parent = -1; // index of the parent within the item; -1 root
  std::uint32_t count = 1;
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
};

/// Spans of the current item, kept in memory. end_item() folds them into
/// per-name totals (self time = duration minus the time child spans
/// cover) and keeps the first `keep_items` items verbatim for the dump.
class SpanLog {
 public:
  SpanLog(std::vector<std::string> names, std::size_t keep_items);

  int open(std::uint16_t name, int parent = -1);
  void close(int index);
  int add(const Span& s);
  void end_item();

  [[nodiscard]] std::uint64_t items() const { return items_; }
  [[nodiscard]] double self_us_per_item(std::uint16_t name) const;
  [[nodiscard]] double total_ns(std::uint16_t name) const;
  [[nodiscard]] std::uint64_t calls(std::uint16_t name) const;

  /// CSV: item,span,name,parent,count,start_ns,end_ns.
  void write_csv(const std::string& path) const;

 private:
  std::vector<std::string> names_;
  std::size_t keep_items_;
  std::vector<Span> current_;
  std::vector<std::pair<std::uint64_t, Span>> kept_;
  std::vector<double> self_ns_, total_ns_;
  std::vector<std::uint64_t> calls_;
  std::uint64_t items_ = 0;
};

/// Flat, insertion-ordered JSON object (numbers, strings, nested objects).
class Json {
 public:
  Json& num(const std::string& key, double v);
  Json& str(const std::string& key, const std::string& v);
  Json& obj(const std::string& key, const Json& v);
  [[nodiscard]] std::string dump() const { return "{" + body_ + "}"; }

 private:
  void key(const std::string& k);
  std::string body_;
};

/// A pair of digests that must agree for the run to count as correct.
struct Check {
  std::string name;
  std::string expected;
  std::string actual;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Construction, pool creation and warm-up: everything before the first
  /// timed item.
  virtual void set_up(const Options& o) = 0;

  /// One repetition of the workload's study seeded with `seed`, each item
  /// timed into `log`. With `spans` the traced variant runs, recording
  /// spans around the calls into each layer. Returns the repetition's
  /// digest, or "" when `stop` ended it early.
  virtual std::string run_rep(std::uint64_t seed, ItemLog& log,
                              const std::function<bool()>& stop,
                              SpanLog* spans) = 0;

  /// Items a repetition runs at once: 1 when its items follow one
  /// another, the thread count when a parallel_map runs them side by side.
  [[nodiscard]] virtual std::size_t concurrent_items() const { return 1; }

  /// Output checks beyond same-seed determinism.
  [[nodiscard]] virtual std::vector<Check> checks(const Options& o) = 0;

  /// The traced run: every per-layer metric this workload exercises.
  /// Called right after one untraced repetition at the seed ran with the
  /// metrics registry zeroed, so registry reads give that repetition's
  /// exact counts.
  [[nodiscard]] virtual Json trace(const Options& o) = 0;
};

[[nodiscard]] std::unique_ptr<Workload> make_fig12_lifetime();
[[nodiscard]] std::unique_ptr<Workload> make_sram_retention();
[[nodiscard]] std::unique_ptr<Workload> make_em_population();

/// Untraced and traced repetitions alternated (same seeds on both sides)
/// until `seconds` pass, at least one of each.
struct Interleaved {
  double trace_overhead_frac = 0.0;  // traced / untraced wall per item - 1
  double untraced_cpu_per_wall = 0.0;
  bool digests_match = true;  // traced rep k == untraced rep k, every k
  std::uint64_t reps = 0;
};
[[nodiscard]] Interleaved run_interleaved(Workload& w, const Options& o,
                                          SpanLog& spans);

/// Serial baseline of a pool workload: the same repetitions at 1 thread
/// and at `threads`, three pairs. Adds pool.speedup_wall (median wall at 1
/// / median wall at `threads`) and pool.cpu_per_wall (at `threads`).
/// Throws when a repetition's digest depends on the thread count.
void serial_baseline(Workload& w, const Options& o, std::size_t threads,
                     Json& m);

/// The pool.* registry metrics of the last repetition (see trace()).
void pool_counts(Json& m);

/// Registry counter value, 0 when absent.
[[nodiscard]] double counter_value(const char* name);
/// Registry histogram quantile, 0 when the histogram is absent or empty.
[[nodiscard]] double histogram_quantile(const char* name, double q);

}  // namespace perfbench
