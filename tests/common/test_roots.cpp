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

}  // namespace
}  // namespace dh::math
