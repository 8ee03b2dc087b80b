#include "common/math/roots.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"

namespace dh::math {
namespace {

TEST(Brent, FindsPolynomialRoot) {
  const double r =
      brent_root([](double x) { return x * x * x - 2.0; }, 0.0, 2.0);
  EXPECT_NEAR(r, std::cbrt(2.0), 1e-9);
}

TEST(Brent, FindsTranscendentalRoot) {
  const double r =
      brent_root([](double x) { return std::cos(x) - x; }, 0.0, 1.0);
  EXPECT_NEAR(std::cos(r), r, 1e-9);
}

TEST(Brent, ExactEndpoint) {
  EXPECT_DOUBLE_EQ(brent_root([](double x) { return x; }, 0.0, 1.0), 0.0);
}

TEST(Brent, RequiresSignChange) {
  EXPECT_THROW(
      (void)brent_root([](double x) { return x * x + 1.0; }, -1.0, 1.0),
      Error);
}

TEST(Bisect, MatchesBrent) {
  auto f = [](double x) { return std::exp(x) - 3.0; };
  const double rb = brent_root(f, 0.0, 2.0);
  const double rs = bisect_root(f, 0.0, 2.0, 1e-12, 300);
  EXPECT_NEAR(rb, rs, 1e-9);
  EXPECT_NEAR(rb, std::log(3.0), 1e-9);
}

TEST(Golden, MinimizesParabola) {
  const double x =
      golden_minimize([](double v) { return (v - 1.5) * (v - 1.5); }, -10.0,
                      10.0);
  EXPECT_NEAR(x, 1.5, 1e-6);
}

TEST(Golden, MinimizesAsymmetricFunction) {
  // min of x^2 + e^-x near 0.3517.
  const double x = golden_minimize(
      [](double v) { return v * v + std::exp(-v); }, -2.0, 2.0);
  EXPECT_NEAR(2.0 * x, std::exp(-x), 1e-5);
}

TEST(Golden, RejectsEmptyInterval) {
  EXPECT_THROW((void)golden_minimize([](double x) { return x; }, 1.0, 1.0),
               Error);
}

}  // namespace
}  // namespace dh::math
