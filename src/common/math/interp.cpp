#include "common/math/interp.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace dh::math {

double interp_linear(std::span<const double> xs, std::span<const double> ys,
                     double x) {
  DH_REQUIRE(xs.size() == ys.size() && xs.size() >= 2,
             "interpolation table needs >= 2 matched points");
  // A NaN fails both clamps below, and upper_bound then returns end().
  DH_REQUIRE(std::isfinite(x), "interpolation point must be finite");
  if (x <= xs.front()) return ys.front();
  if (x >= xs.back()) return ys.back();
  const auto it = std::upper_bound(xs.begin(), xs.end(), x);
  const std::size_t hi = static_cast<std::size_t>(it - xs.begin());
  const std::size_t lo = hi - 1;
  const double w = (x - xs[lo]) / (xs[hi] - xs[lo]);
  return ys[lo] * (1.0 - w) + ys[hi] * w;
}

std::vector<double> linspace(double lo, double hi, std::size_t n) {
  DH_REQUIRE(n >= 2, "linspace needs >= 2 points");
  std::vector<double> xs(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] = lo + (hi - lo) * static_cast<double>(i) / static_cast<double>(n - 1);
  }
  return xs;
}

std::vector<double> stretched_grid(double x0, double x1, double dx0,
                                   double ratio) {
  DH_REQUIRE(x1 > x0, "grid interval must be non-empty");
  DH_REQUIRE(dx0 > 0.0 && ratio >= 1.0, "grid stretching parameters invalid");
  std::vector<double> xs{x0};
  double dx = dx0;
  double x = x0;
  while (x + dx < x1) {
    x += dx;
    xs.push_back(x);
    dx *= ratio;
  }
  if (x1 - xs.back() < 0.25 * (xs.back() - xs[xs.size() - 2]) &&
      xs.size() > 2) {
    xs.back() = x1;  // merge a sliver cell into its neighbour
  } else {
    xs.push_back(x1);
  }
  return xs;
}

}  // namespace dh::math
