#include "harness.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <thread>

#include "common/obs/metrics.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across
  // exec, so it would report the launching interpreter's footprint.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::size_t pool_threads() { return std::min<std::size_t>(nproc(), 2); }

namespace {
volatile std::uint64_t g_probe_sink = 0;  // keeps the probe's work observable
}  // namespace

double effective_parallelism(std::size_t threads) {
  // Fixed dependent integer mixing per thread (~40 ms on one core).
  constexpr std::uint64_t kIters = 20'000'000;
  std::vector<std::uint64_t> sink(threads, 0);
  const double cpu0 = cpu_seconds();
  const std::int64_t t0 = now_ns();
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&sink, t] {
      std::uint64_t x = t + 1;
      for (std::uint64_t i = 0; i < kIters; ++i) x = dh::detail::mix64(x);
      sink[t] = x;
    });
  }
  for (auto& th : pool) th.join();
  const double wall = 1e-9 * static_cast<double>(now_ns() - t0);
  for (const auto s : sink) g_probe_sink = g_probe_sink ^ s;
  return (cpu_seconds() - cpu0) / wall;
}

std::uint64_t rep_seed(std::uint64_t seed, std::uint64_t rep) {
  return dh::Rng::stream_seed(seed, rep);
}

Digest& Digest::add(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  if (!s_.empty()) s_ += ' ';
  s_ += buf;
  return *this;
}

void ItemLog::record(std::int64_t t0, std::int64_t t1, bool physical) {
  latency_us.push_back(static_cast<float>(1e-3 * static_cast<double>(t1 - t0)));
  if (!physical) ++violated;
}

double percentile(std::vector<float>& v, double q) {
  if (v.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const std::size_t k = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

SpanLog::SpanLog(std::vector<std::string> names, std::size_t keep_items)
    : names_(std::move(names)),
      keep_items_(keep_items),
      self_ns_(names_.size(), 0.0),
      total_ns_(names_.size(), 0.0),
      calls_(names_.size(), 0) {}

int SpanLog::open(std::uint16_t name, int parent) {
  Span s;
  s.name = name;
  s.parent = static_cast<std::int16_t>(parent);
  s.t0 = now_ns();
  return add(s);
}

void SpanLog::close(int index) {
  current_[static_cast<std::size_t>(index)].t1 = now_ns();
}

int SpanLog::add(const Span& s) {
  current_.push_back(s);
  return static_cast<int>(current_.size() - 1);
}

void SpanLog::end_item() {
  std::vector<double> child_ns(current_.size(), 0.0);
  for (const Span& s : current_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.t1 - s.t0);
    }
  }
  for (std::size_t i = 0; i < current_.size(); ++i) {
    const Span& s = current_[i];
    const double dur = static_cast<double>(s.t1 - s.t0);
    self_ns_[s.name] += dur - child_ns[i];
    total_ns_[s.name] += dur;
    calls_[s.name] += s.count;
    if (items_ < keep_items_) kept_.emplace_back(items_, s);
  }
  current_.clear();
  ++items_;
}

double SpanLog::self_us_per_item(std::uint16_t name) const {
  return items_ == 0 ? 0.0
                     : 1e-3 * self_ns_[name] / static_cast<double>(items_);
}

double SpanLog::total_ns(std::uint16_t name) const { return total_ns_[name]; }

std::uint64_t SpanLog::calls(std::uint16_t name) const {
  return calls_[name];
}

void SpanLog::write_csv(const std::string& path) const {
  std::ofstream os(path, std::ios::trunc);
  if (!os) throw std::runtime_error("cannot write span dump " + path);
  os << "item,span,name,parent,count,start_ns,end_ns\n";
  std::uint64_t item = std::numeric_limits<std::uint64_t>::max();
  std::size_t index = 0;
  for (const auto& [it, s] : kept_) {
    index = it == item ? index + 1 : 0;
    item = it;
    os << it << ',' << index << ',' << names_[s.name] << ',' << s.parent
       << ',' << s.count << ',' << s.t0 << ',' << s.t1 << '\n';
  }
}

void Json::key(const std::string& k) {
  if (!body_.empty()) body_ += ',';
  body_ += '"' + k + "\":";
}

Json& Json::num(const std::string& k, double v) {
  key(k);
  if (!std::isfinite(v)) {
    body_ += "null";
  } else {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    body_ += buf;
  }
  return *this;
}

Json& Json::str(const std::string& k, const std::string& v) {
  key(k);
  body_ += '"';
  for (const char c : v) {
    if (c == '"' || c == '\\') body_ += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      body_ += ' ';
    } else {
      body_ += c;
    }
  }
  body_ += '"';
  return *this;
}

Json& Json::obj(const std::string& k, const Json& v) {
  key(k);
  body_ += v.dump();
  return *this;
}

Interleaved run_interleaved(Workload& w, const Options& o, SpanLog& spans) {
  const auto never = [] { return false; };
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(o.seconds * 1e9);
  Interleaved r;
  double wall_u = 0.0, wall_t = 0.0, cpu_u = 0.0;
  std::uint64_t items_u = 0, items_t = 0;
  do {
    const std::uint64_t seed = rep_seed(o.seed, r.reps);
    ItemLog untraced, traced;
    const double c0 = cpu_seconds();
    const std::int64_t t0 = now_ns();
    const std::string du = w.run_rep(seed, untraced, never, nullptr);
    const std::int64_t t1 = now_ns();
    const double c1 = cpu_seconds();
    const std::string dt = w.run_rep(seed, traced, never, &spans);
    const std::int64_t t2 = now_ns();
    wall_u += 1e-9 * static_cast<double>(t1 - t0);
    wall_t += 1e-9 * static_cast<double>(t2 - t1);
    cpu_u += c1 - c0;
    items_u += untraced.items();
    items_t += traced.items();
    if (du != dt) r.digests_match = false;
    ++r.reps;
  } while (now_ns() < deadline);
  r.trace_overhead_frac = (wall_t / static_cast<double>(items_t)) /
                              (wall_u / static_cast<double>(items_u)) -
                          1.0;
  r.untraced_cpu_per_wall = cpu_u / wall_u;
  return r;
}

namespace {

struct RepCost {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::string digest;
};

RepCost run_one_rep(Workload& w, std::uint64_t seed) {
  ItemLog log;
  RepCost c;
  const double c0 = cpu_seconds();
  const std::int64_t t0 = now_ns();
  c.digest = w.run_rep(seed, log, [] { return false; }, nullptr);
  c.wall_s = 1e-9 * static_cast<double>(now_ns() - t0);
  c.cpu_s = cpu_seconds() - c0;
  return c;
}

}  // namespace

void serial_baseline(Workload& w, const Options& o, std::size_t threads,
                     Json& m) {
  std::vector<float> serial_s, pooled_s, cpu_per_wall;
  for (std::uint64_t i = 0; i < 3; ++i) {
    const std::uint64_t seed = rep_seed(o.seed, i);
    dh::set_global_thread_count(1);
    const RepCost one = run_one_rep(w, seed);
    dh::set_global_thread_count(threads);
    const RepCost all = run_one_rep(w, seed);
    if (one.digest != all.digest) {
      throw std::runtime_error("digest differs between 1 and nproc threads");
    }
    serial_s.push_back(static_cast<float>(one.wall_s));
    pooled_s.push_back(static_cast<float>(all.wall_s));
    cpu_per_wall.push_back(static_cast<float>(all.cpu_s / all.wall_s));
  }
  m.num("pool.speedup_wall",
        percentile(serial_s, 0.5) / percentile(pooled_s, 0.5));
  m.num("pool.cpu_per_wall", percentile(cpu_per_wall, 0.5));
}

void pool_counts(Json& m) {
  const double tasks = counter_value("pool.tasks");
  m.num("pool.jobs", counter_value("pool.jobs"));
  m.num("pool.tasks_worker_frac",
        tasks > 0.0 ? counter_value("pool.tasks.worker") / tasks : 0.0);
  m.num("pool.job_ms_p50", histogram_quantile("pool.job_ms", 0.50));
  m.num("pool.drain_wait_ms_p50",
        histogram_quantile("pool.drain_wait_ms", 0.50));
  m.num("pool.drain_wait_ms_p95",
        histogram_quantile("pool.drain_wait_ms", 0.95));
}

double counter_value(const char* name) {
  const auto* c = dh::obs::registry().find_counter(name);
  return c == nullptr ? 0.0 : static_cast<double>(c->value());
}

double histogram_quantile(const char* name, double q) {
  const auto* h = dh::obs::registry().find_histogram(name);
  return h == nullptr ? 0.0 : h->percentile(q);
}

}  // namespace perfbench
