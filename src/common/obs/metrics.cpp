#include "common/obs/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace dh::obs {

std::size_t Histogram::bucket_index(double v) noexcept {
  if (!(v > 0.0) || !std::isfinite(v)) return 0;  // underflow/zero/NaN bin
  int exp = 0;
  const double mant = std::frexp(v, &exp);  // v = mant * 2^exp, mant in [0.5, 1)
  if (exp <= kMinExp) return 0;
  if (exp > kMaxExp) return kBuckets - 1;  // overflow bin
  const auto sub = static_cast<std::size_t>((mant - 0.5) * 2.0 *
                                            static_cast<double>(kSubBuckets));
  return 1 +
         static_cast<std::size_t>(exp - 1 - kMinExp) * kSubBuckets +
         std::min<std::size_t>(sub, kSubBuckets - 1);
}

double Histogram::bucket_lower(std::size_t idx) noexcept {
  if (idx == 0) return 0.0;
  if (idx >= kBuckets - 1) return std::ldexp(1.0, kMaxExp);
  const std::size_t rel = idx - 1;
  const int exp = kMinExp + static_cast<int>(rel / kSubBuckets);
  const auto sub = static_cast<double>(rel % kSubBuckets);
  return std::ldexp(0.5 + 0.5 * sub / kSubBuckets, exp + 1);
}

double Histogram::bucket_upper(std::size_t idx) noexcept {
  if (idx >= kBuckets - 1) return std::ldexp(1.0, kMaxExp);
  return bucket_lower(idx + 1);
}

void Histogram::observe(double v) noexcept {
  bins_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  // CAS min/max against +/-inf sentinels: min and max are commutative and
  // idempotent, so the result is order-independent under any interleaving.
  double cur = min_.load(std::memory_order_relaxed);
  while (v < cur &&
         !min_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (v > cur &&
         !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

double Histogram::percentile(double q) const noexcept {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the q-quantile among n ordered samples (nearest-rank with
  // within-bucket linear interpolation).
  const double target = q * static_cast<double>(n - 1) + 1.0;
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const std::uint64_t c = bins_[i].load(std::memory_order_relaxed);
    if (c == 0) continue;
    if (static_cast<double>(cum + c) >= target) {
      const double frac =
          (target - static_cast<double>(cum)) / static_cast<double>(c);
      const double lo = bucket_lower(i);
      const double hi = bucket_upper(i);
      // Clamp into the observed range so tiny counts don't report beyond
      // the true extremes.
      const double v = lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
      return std::clamp(v, min_.load(std::memory_order_relaxed),
                        max_.load(std::memory_order_relaxed));
    }
    cum += c;
  }
  return max_.load(std::memory_order_relaxed);
}

Histogram::Snapshot Histogram::snapshot() const noexcept {
  Snapshot s;
  s.count = count();
  if (s.count == 0) return s;
  s.min = min_.load(std::memory_order_relaxed);
  s.max = max_.load(std::memory_order_relaxed);
  double weighted = 0.0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const std::uint64_t c = bins_[i].load(std::memory_order_relaxed);
    if (c == 0) continue;
    const double mid = 0.5 * (bucket_lower(i) + bucket_upper(i));
    weighted += mid * static_cast<double>(c);
  }
  s.mean = weighted / static_cast<double>(s.count);
  s.p50 = percentile(0.50);
  s.p95 = percentile(0.95);
  return s;
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(kBuckets);
  for (std::size_t i = 0; i < kBuckets; ++i) {
    out[i] = bins_[i].load(std::memory_order_relaxed);
  }
  return out;
}

void Histogram::reset() noexcept {
  for (auto& b : bins_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

struct Registry::Entry {
  std::string name;
  // Exactly one is engaged; the engaged one is the metric's kind.
  std::unique_ptr<Counter> counter;
  std::unique_ptr<Histogram> histogram;
};

Registry::Entry& Registry::get_or_create(std::string_view name,
                                         bool histogram) {
  DH_REQUIRE(!name.empty(), "metric name must not be empty");
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& e : entries_) {
    if (e->name == name) {
      DH_REQUIRE((e->histogram != nullptr) == histogram,
                 "metric '" + e->name +
                     "' already registered as a different kind");
      return *e;
    }
  }
  auto e = std::make_unique<Entry>();
  e->name = std::string(name);
  if (histogram) {
    e->histogram = std::make_unique<Histogram>();
  } else {
    e->counter = std::make_unique<Counter>();
  }
  entries_.push_back(std::move(e));
  return *entries_.back();
}

Counter& Registry::counter(std::string_view name, std::string_view) {
  return *get_or_create(name, false).counter;
}

Histogram& Registry::histogram(std::string_view name, std::string_view) {
  return *get_or_create(name, true).histogram;
}

const Registry::Entry* Registry::find(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& e : entries_) {
    if (e->name == name) return e.get();
  }
  return nullptr;
}

const Counter* Registry::find_counter(std::string_view name) const {
  const Entry* e = find(name);
  return e != nullptr ? e->counter.get() : nullptr;
}

const Histogram* Registry::find_histogram(std::string_view name) const {
  const Entry* e = find(name);
  return e != nullptr ? e->histogram.get() : nullptr;
}

void Registry::reset_all() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& e : entries_) {
    if (e->counter) e->counter->reset();
    if (e->histogram) e->histogram->reset();
  }
}

Registry& registry() {
  // Deliberately leaked: instrumentation may fire from worker threads or
  // static-destruction paths, so the registry must outlive everything.
  static Registry* r = new Registry();
  return *r;
}

}  // namespace dh::obs
