#include "common/math/linalg.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "support/test_support.hpp"

namespace dh::math {
namespace {

TEST(Matrix, BasicAccess) {
  Matrix m(2, 3, 1.0);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  m(1, 2) = 5.0;
  EXPECT_DOUBLE_EQ(m(1, 2), 5.0);
}

TEST(Matrix, MultiplyVector) {
  Matrix m(2, 2);
  m(0, 0) = 1.0;
  m(0, 1) = 2.0;
  m(1, 0) = 3.0;
  m(1, 1) = 4.0;
  const std::vector<double> x{1.0, 1.0};
  const auto y = test::multiply(m, x);
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
}

TEST(Lu, SolvesKnownSystem) {
  Matrix a(2, 2);
  a(0, 0) = 2.0;
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = 3.0;
  const std::vector<double> b{5.0, 10.0};
  const auto x = solve_dense(a, b);
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Lu, PivotingHandlesZeroDiagonal) {
  Matrix a(2, 2);
  a(0, 0) = 0.0;
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = 0.0;
  const auto x = solve_dense(a, std::vector<double>{2.0, 3.0});
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Lu, SingularThrows) {
  Matrix a(2, 2);
  a(0, 0) = 1.0;
  a(0, 1) = 2.0;
  a(1, 0) = 2.0;
  a(1, 1) = 4.0;
  EXPECT_THROW(solve_dense(a, std::vector<double>{1.0, 2.0}), Error);
}

/// Property: random diagonally dominant systems solve to tiny residual.
class LuRandom : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LuRandom, ResidualIsSmall) {
  const std::size_t n = GetParam();
  Rng rng{n * 977};
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    double offsum = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      a(i, j) = test::uniform(rng, -1.0, 1.0);
      offsum += std::abs(a(i, j));
    }
    a(i, i) = offsum + 1.0;
  }
  std::vector<double> b(n);
  for (auto& v : b) v = test::uniform(rng, -5.0, 5.0);
  const auto x = solve_dense(a, b);
  const auto ax = test::multiply(a, x);
  double resid = 0.0;
  for (std::size_t i = 0; i < n; ++i) resid = std::max(resid, std::abs(ax[i] - b[i]));
  EXPECT_LT(resid, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuRandom,
                         ::testing::Values(1, 2, 5, 16, 40, 90));

TEST(Tridiagonal, MatchesDenseSolve) {
  const std::size_t n = 12;
  std::vector<double> lower(n - 1), diag(n), upper(n - 1), rhs(n);
  Rng rng{5};
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    diag[i] = test::uniform(rng, 2.0, 4.0);
    rhs[i] = test::uniform(rng, -1.0, 1.0);
    a(i, i) = diag[i];
    if (i + 1 < n) {
      lower[i] = test::uniform(rng, -1.0, 1.0);
      upper[i] = test::uniform(rng, -1.0, 1.0);
      a(i + 1, i) = lower[i];
      a(i, i + 1) = upper[i];
    }
  }
  std::vector<double> x_tri(n);
  TridiagonalWorkspace ws;
  solve_tridiagonal(lower, diag, upper, rhs, x_tri, ws);
  const auto x_dense = solve_dense(a, rhs);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(x_tri[i], x_dense[i], 1e-10);
  }
}

TEST(Tridiagonal, SingleElement) {
  std::vector<double> x(1);
  TridiagonalWorkspace ws;
  solve_tridiagonal({}, std::vector<double>{4.0}, {},
                    std::vector<double>{8.0}, x, ws);
  EXPECT_DOUBLE_EQ(x[0], 2.0);
}

TEST(Tridiagonal, SizeMismatchThrows) {
  std::vector<double> x(1);
  TridiagonalWorkspace ws;
  EXPECT_THROW(solve_tridiagonal(std::vector<double>{1.0},
                                 std::vector<double>{1.0},
                                 std::vector<double>{},
                                 std::vector<double>{1.0}, x, ws),
               Error);
}

TEST(Norms, KnownValues) {
  const std::vector<double> v{3.0, -4.0};
  EXPECT_DOUBLE_EQ(norm2(v), 5.0);
}

TEST(PdnGuards, SingularSystemRaisesDescriptiveError) {
  // A conductance matrix with no path to any pad is exactly singular;
  // the LU pivot check must say so instead of dividing by zero.
  math::Matrix g(3, 3, 0.0);
  g(0, 0) = 1.0;
  g(0, 1) = -1.0;
  g(1, 0) = -1.0;
  g(1, 1) = 1.0;
  g(2, 2) = 1.0;
  const std::vector<double> rhs{0.0, 1.0, 0.0};
  try {
    (void)math::solve_dense(g, rhs);
    FAIL() << "expected dh::Error for singular matrix";
  } catch (const Error& e) {
    EXPECT_NE(std::string{e.what()}.find("singular"), std::string::npos);
    EXPECT_NE(std::string{e.what()}.find("pivot"), std::string::npos);
  }
}

}  // namespace
}  // namespace dh::math
