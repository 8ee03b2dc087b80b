// Descriptive statistics + lognormal lifetime fitting (EM TTF populations
// are classically lognormal).
#pragma once

#include <span>
#include <vector>

namespace dh::stats {

[[nodiscard]] double mean(std::span<const double> xs);
[[nodiscard]] double variance(std::span<const double> xs);  // sample (n-1)
[[nodiscard]] double stddev(std::span<const double> xs);
[[nodiscard]] double median(std::span<const double> xs);

/// p in [0,1]; linear interpolation between order statistics.
[[nodiscard]] double percentile(std::span<const double> xs, double p);
/// `percentile` of a sample already sorted ascending, without the copy
/// and sort.
[[nodiscard]] double percentile_sorted(std::span<const double> sorted,
                                       double p);

struct LognormalFit {
  double mu = 0.0;     // mean of ln(x)
  double sigma = 0.0;  // stddev of ln(x)
  /// Median lifetime exp(mu).
  [[nodiscard]] double t50() const;
};

/// Fits a lognormal by the method of moments on ln(x). All samples must be
/// positive.
[[nodiscard]] LognormalFit fit_lognormal(std::span<const double> samples);

}  // namespace dh::stats
