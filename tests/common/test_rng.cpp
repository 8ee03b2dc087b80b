#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <vector>

#include "common/error.hpp"

namespace dh {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a{123}, b{123};
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a{1}, b{2};
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformRange) {
  Rng r{7};
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform(2.0, 5.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIntInclusive) {
  Rng r{7};
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int v = r.uniform_int(1, 6);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 6);
    saw_lo |= v == 1;
    saw_hi |= v == 6;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMoments) {
  Rng r{11};
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal(3.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 3.0, 0.06);
  EXPECT_NEAR(var, 4.0, 0.2);
}

TEST(Rng, NormalMatchesScaledStdDistributionAndAcceptsZeroSigma) {
  // Same draws as std::normal_distribution{mean, sigma} for sigma > 0,
  // so seeded results do not move.
  Rng r{19};
  std::mt19937_64 engine{19};
  for (int i = 0; i < 10000; ++i) {
    const double sigma = 0.1 + 0.001 * i;
    ASSERT_EQ(r.normal(-1.0, sigma),
              (std::normal_distribution<double>{-1.0, sigma}(engine)));
  }
  // sigma = 0 (outside std::normal_distribution's domain) is exactly the
  // mean and still advances the stream as one draw.
  Rng zero{5}, one{5};
  EXPECT_EQ(zero.normal(2.5, 0.0), 2.5);
  (void)one.normal(0.0, 1.0);
  EXPECT_EQ(zero.uniform(), one.uniform());
  EXPECT_THROW((void)zero.normal(0.0, -1.0), Error);
}

TEST(Rng, LognormalIsPositive) {
  Rng r{13};
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GT(r.lognormal(0.0, 0.5), 0.0);
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng r{17};
  int hits = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    if (r.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

namespace {

// Pearson correlation of two equal-length uniform sequences.
double correlation(const std::vector<double>& xs,
                   const std::vector<double>& ys) {
  const std::size_t n = xs.size();
  double mx = 0.0, my = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    mx += xs[i];
    my += ys[i];
  }
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sxy += (xs[i] - mx) * (ys[i] - my);
    sxx += (xs[i] - mx) * (xs[i] - mx);
    syy += (ys[i] - my) * (ys[i] - my);
  }
  return sxy / std::sqrt(sxx * syy);
}

std::vector<double> draw(Rng r, std::size_t n) {
  std::vector<double> xs(n);
  for (auto& x : xs) x = r.uniform();
  return xs;
}

}  // namespace

TEST(Rng, StreamSiblingsAreStatisticallyIndependent) {
  constexpr std::size_t kDraws = 4000;
  for (std::size_t a = 0; a < 6; ++a) {
    for (std::size_t b = a + 1; b < 6; ++b) {
      const auto xs = draw(Rng::stream(42, a), kDraws);
      const auto ys = draw(Rng::stream(42, b), kDraws);
      EXPECT_LT(std::abs(correlation(xs, ys)), 0.08)
          << "streams " << a << " and " << b << " correlate";
    }
  }
}

TEST(Rng, StreamIsOrderIndependent) {
  // stream(root, i) must not depend on which streams were derived before
  // it — that is what makes parallel population sweeps deterministic.
  Rng direct = Rng::stream(7, 5);
  (void)Rng::stream(7, 0);
  (void)Rng::stream(7, 3);
  Rng again = Rng::stream(7, 5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(direct.uniform(), again.uniform());
  }
  EXPECT_EQ(Rng::stream_seed(7, 5), Rng::stream_seed(7, 5));
  EXPECT_NE(Rng::stream_seed(7, 5), Rng::stream_seed(7, 6));
  EXPECT_NE(Rng::stream_seed(7, 5), Rng::stream_seed(8, 5));
}

TEST(Rng, StreamMomentsAreUniform) {
  // Aggregate of many short sibling streams still looks uniform(0,1) —
  // catches degenerate seed mixing that parks children in a subspace.
  double sum = 0.0, sq = 0.0;
  const int streams = 200, per = 50;
  for (int s = 0; s < streams; ++s) {
    Rng r = Rng::stream(1234, static_cast<std::uint64_t>(s));
    for (int i = 0; i < per; ++i) {
      const double u = r.uniform();
      sum += u;
      sq += u * u;
    }
  }
  const int n = streams * per;
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.5, 0.01);
  EXPECT_NEAR(var, 1.0 / 12.0, 0.005);
}

}  // namespace
}  // namespace dh
