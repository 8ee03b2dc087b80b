#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "common/error.hpp"
#include "support/test_support.hpp"

namespace dh {
namespace {

// std::mt19937_64 is the oracle: Mt19937_64 must produce its sequence
// exactly, through the lazy first block (16 words), the twist's wrap at
// word 156, the block boundary at 312 and the next block at 624.
TEST(RngEngine, MatchesStdEngineForEverySeedAcrossBlocks) {
  const std::uint64_t seeds[] = {0u, 1u, 5489u, 12345u, ~std::uint64_t{0},
                                 0x9E3779B97F4A7C15ull};
  for (const std::uint64_t seed : seeds) {
    Mt19937_64 ours{seed};
    std::mt19937_64 oracle{seed};
    for (int i = 0; i < 1000; ++i) {
      ASSERT_EQ(ours(), oracle()) << "seed " << seed << ", draw " << i;
    }
  }
}

TEST(RngEngine, FreshEnginesMatchAtEveryLengthAroundTheBoundaries) {
  for (const int n : {1, 15, 16, 17, 155, 156, 157, 311, 312, 313, 623, 624,
                      625}) {
    Mt19937_64 ours{777};
    std::mt19937_64 oracle{777};
    std::uint64_t a = 0, b = 0;
    for (int i = 0; i < n; ++i) {
      a = ours();
      b = oracle();
    }
    EXPECT_EQ(a, b) << "draw " << n;
    EXPECT_EQ(ours(), oracle()) << "draw " << n + 1;
  }
}

TEST(RngEngine, TenThousandthOutputOfTheDefaultSeedIsTheStandardValue) {
  // [rand.predef]: the 10000th consecutive invocation of a
  // default-constructed mt19937_64 produces 9981545732273789042.
  Mt19937_64 e;
  for (int i = 0; i < 9999; ++i) (void)e();
  EXPECT_EQ(e(), 9981545732273789042ull);
}

TEST(RngEngine, CopiesContinueIdentically) {
  // Copies before the first draw (perfbench's `Rng r2 = r1`), inside and
  // at the end of the lazy first chunk, mid-block and at a block boundary.
  for (const int at : {0, 5, 16, 200, 312}) {
    Mt19937_64 a{42};
    std::mt19937_64 oracle{42};
    for (int i = 0; i < at; ++i) {
      (void)a();
      (void)oracle();
    }
    Mt19937_64 b = a;
    Mt19937_64 c{1};
    c = a;
    for (int i = 0; i < 700; ++i) {
      const std::uint64_t want = oracle();
      ASSERT_EQ(a(), want) << "copied at " << at << ", draw " << i;
      ASSERT_EQ(b(), want) << "copied at " << at << ", draw " << i;
      ASSERT_EQ(c(), want) << "copied at " << at << ", draw " << i;
    }
  }
}

TEST(Rng, EveryDistributionMatchesTheStdDistributionOverTheStdEngine) {
  // Interleaved so the draws cross the lazy first chunk and two blocks.
  Rng r{2024};
  std::mt19937_64 e{2024};
  for (int i = 0; i < 400; ++i) {
    ASSERT_EQ(test::uniform(r),
              (std::uniform_real_distribution<double>{0.0, 1.0}(e)));
    ASSERT_EQ(test::uniform(r, -2.0, 3.0),
              (std::uniform_real_distribution<double>{-2.0, 3.0}(e)));
    ASSERT_EQ(test::uniform_int(r, -5, 1000),
              (std::uniform_int_distribution<int>{-5, 1000}(e)));
    ASSERT_EQ(r.normal(1.0, 0.5),
              (std::normal_distribution<double>{1.0, 0.5}(e)));
    ASSERT_EQ(r.lognormal(0.3, 0.2),
              (std::lognormal_distribution<double>{0.3, 0.2}(e)));
    ASSERT_EQ(r.bernoulli(0.3), (std::bernoulli_distribution{0.3}(e)));
  }
  // Rng::stream is an engine seeded with stream_seed.
  Rng s = Rng::stream(9, 4);
  std::mt19937_64 se{Rng::stream_seed(9, 4)};
  for (int i = 0; i < 40; ++i) {
    ASSERT_EQ(s.lognormal(0.0, 0.1),
              (std::lognormal_distribution<double>{0.0, 0.1}(se)));
  }
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a{123}, b{123};
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(test::uniform(a), test::uniform(b));
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a{1}, b{2};
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (test::uniform(a) == test::uniform(b)) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformRange) {
  Rng r{7};
  for (int i = 0; i < 1000; ++i) {
    const double u = test::uniform(r, 2.0, 5.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIntInclusive) {
  Rng r{7};
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int v = test::uniform_int(r, 1, 6);
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
  EXPECT_EQ(test::uniform(zero), test::uniform(one));
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
  for (auto& x : xs) x = test::uniform(r);
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
    EXPECT_DOUBLE_EQ(test::uniform(direct), test::uniform(again));
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
      const double u = test::uniform(r);
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
