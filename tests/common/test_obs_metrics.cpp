#include "common/obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"

namespace dh {
namespace {

// Every test records into uniquely-named registry entries (the registry is
// process-global).

TEST(ObsCounter, ConcurrentIncrementsAreExact) {
  obs::Counter& c =
      obs::registry().counter("test.obs.counter.concurrent");
  c.reset();
  ThreadPool pool{8};
  constexpr std::size_t kN = 100000;
  pool.parallel_for(kN, [&](std::size_t) { c.add(); });
  EXPECT_EQ(c.value(), kN);
}

TEST(ObsCounter, ConcurrentWeightedAddsSumExactly) {
  obs::Counter& c = obs::registry().counter("test.obs.counter.weighted");
  c.reset();
  ThreadPool pool{8};
  constexpr std::size_t kN = 50000;
  std::uint64_t expected = 0;
  for (std::size_t i = 0; i < kN; ++i) expected += i % 7 + 1;
  pool.parallel_for(kN, [&](std::size_t i) { c.add(i % 7 + 1); });
  EXPECT_EQ(c.value(), expected);
}

// The value multiset fed to the order-independence tests: spreads over
// ~20 octaves with fractional mantissas so many distinct buckets fill.
double sample_value(std::size_t i) {
  const double mantissa = 1.0 + static_cast<double>(i % 7) / 8.0;
  const int exponent = static_cast<int>(i % 20) - 10;
  return std::ldexp(mantissa, exponent);
}

TEST(ObsHistogram, SnapshotIsIdenticalAtAnyThreadCount) {
  constexpr std::size_t kN = 20000;
  obs::Histogram reference;
  for (std::size_t i = 0; i < kN; ++i) reference.observe(sample_value(i));

  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    obs::Histogram h;
    ThreadPool pool{threads};
    pool.parallel_for(kN, [&](std::size_t i) { h.observe(sample_value(i)); });
    EXPECT_EQ(h.bucket_counts(), reference.bucket_counts())
        << "bucket counts diverge at " << threads << " threads";
    const auto a = reference.snapshot();
    const auto b = h.snapshot();
    EXPECT_EQ(a.count, b.count);
    // Bit-identical, not approximately equal: every summary statistic is
    // derived from integer bucket counts and CAS min/max.
    EXPECT_EQ(a.min, b.min);
    EXPECT_EQ(a.max, b.max);
    EXPECT_EQ(a.mean, b.mean);
    EXPECT_EQ(a.p50, b.p50);
    EXPECT_EQ(a.p95, b.p95);
  }
}

TEST(ObsHistogram, ObservationOrderDoesNotMatter) {
  constexpr std::size_t kN = 5000;
  obs::Histogram forward;
  obs::Histogram backward;
  for (std::size_t i = 0; i < kN; ++i) forward.observe(sample_value(i));
  for (std::size_t i = kN; i-- > 0;) backward.observe(sample_value(i));
  EXPECT_EQ(forward.bucket_counts(), backward.bucket_counts());
  const auto a = forward.snapshot();
  const auto b = backward.snapshot();
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.p50, b.p50);
  EXPECT_EQ(a.p95, b.p95);
}

TEST(ObsHistogram, PercentilesLandWithinBucketResolution) {
  obs::Histogram h;
  for (int i = 1; i <= 1000; ++i) h.observe(static_cast<double>(i));
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 1000u);
  EXPECT_EQ(s.min, 1.0);
  EXPECT_EQ(s.max, 1000.0);
  // Log-bucketed: relative error bounded by one sub-bucket (~9%).
  EXPECT_NEAR(s.p50, 500.0, 0.09 * 500.0);
  EXPECT_NEAR(s.p95, 950.0, 0.09 * 950.0);
  EXPECT_NEAR(s.mean, 500.5, 0.09 * 500.5);
}

TEST(ObsHistogram, ExtremeValuesLandInOverflowBins) {
  obs::Histogram h;
  h.observe(1e-300);  // below 2^-41: underflow bin
  h.observe(1e300);   // above 2^40: overflow bin
  EXPECT_EQ(h.count(), 2u);
  const auto s = h.snapshot();
  EXPECT_EQ(s.min, 1e-300);
  EXPECT_EQ(s.max, 1e300);
}

TEST(ObsRegistry, SameNameSameKindReturnsSameMetric) {
  obs::Counter& a = obs::registry().counter("test.obs.registry.same");
  obs::Counter& b = obs::registry().counter("test.obs.registry.same");
  EXPECT_EQ(&a, &b);
}

TEST(ObsRegistry, KindMismatchThrows) {
  (void)obs::registry().counter("test.obs.registry.kind");
  EXPECT_THROW((void)obs::registry().histogram("test.obs.registry.kind"),
               Error);
  (void)obs::registry().histogram("test.obs.registry.kind.hist");
  EXPECT_THROW((void)obs::registry().counter("test.obs.registry.kind.hist"),
               Error);
}

TEST(ObsRegistry, FindWithoutCreating) {
  (void)obs::registry().histogram("test.obs.registry.find", "ms");
  EXPECT_NE(obs::registry().find_histogram("test.obs.registry.find"),
            nullptr);
  EXPECT_EQ(obs::registry().find_counter("test.obs.registry.find"),
            nullptr);
  EXPECT_EQ(obs::registry().find_histogram("test.obs.registry.missing"),
            nullptr);
  EXPECT_EQ(obs::registry().find_counter("test.obs.registry.missing"),
            nullptr);
  // Had a lookup created a counter, this would be a kind mismatch.
  EXPECT_NO_THROW(
      (void)obs::registry().histogram("test.obs.registry.missing"));
}

}  // namespace
}  // namespace dh
