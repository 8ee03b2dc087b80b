#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace dh::stats {

double mean(std::span<const double> xs) {
  DH_REQUIRE(!xs.empty(), "mean of empty sample");
  double acc = 0.0;
  for (const double x : xs) acc += x;
  return acc / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
  DH_REQUIRE(xs.size() >= 2, "sample variance needs >= 2 points");
  const double m = mean(xs);
  double acc = 0.0;
  for (const double x : xs) acc += (x - m) * (x - m);
  return acc / static_cast<double>(xs.size() - 1);
}

double stddev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

double median(std::span<const double> xs) { return percentile(xs, 0.5); }

double percentile(std::span<const double> xs, double p) {
  std::vector<double> sorted(xs.begin(), xs.end());
  std::ranges::sort(sorted);
  return percentile_sorted(sorted, p);
}

double percentile_sorted(std::span<const double> sorted, double p) {
  DH_REQUIRE(!sorted.empty(), "percentile of empty sample");
  DH_REQUIRE(p >= 0.0 && p <= 1.0, "percentile p must be in [0,1]");
  if (sorted.size() == 1) return sorted.front();
  const double pos = p * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double w = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - w) + sorted[hi] * w;
}

double LognormalFit::t50() const { return std::exp(mu); }

LognormalFit fit_lognormal(std::span<const double> samples) {
  DH_REQUIRE(samples.size() >= 2, "lognormal fit needs >= 2 samples");
  std::vector<double> logs;
  logs.reserve(samples.size());
  for (const double s : samples) {
    DH_REQUIRE(s > 0.0, "lognormal samples must be positive");
    logs.push_back(std::log(s));
  }
  LognormalFit fit;
  fit.mu = mean(logs);
  fit.sigma = stddev(logs);
  return fit;
}

}  // namespace dh::stats
