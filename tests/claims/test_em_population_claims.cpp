// Claim band for bench/em_population_ttf (EXPERIMENTS.md): a 60:15
// forward/reverse recovery duty moves the whole TTF distribution of a
// process-spread wire population out by ~3.9x, the early percentiles
// that set design budgets included. The study is the bench's, run through
// the library: 400 wire pairs, one Rng::stream per wire, the same two
// lognormal process draws and the same step loop.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "em/compact_em.hpp"
#include "em/em_sensor.hpp"

namespace dh::em {
namespace {

/// t0.1 %, t1 % and t50 of one population, in hours.
struct Percentiles {
  double t01 = 0.0, t1 = 0.0, t50 = 0.0;
};

struct Study {
  Percentiles constant, recovery;
};

double sample_ttf(bool recovery, Rng& r) {
  const EmMaterialParams nominal = paper_calibrated_em_material();
  EmMaterialParams m = nominal;
  m.d0_m2_per_s *= r.lognormal(0.0, 0.25);
  m.critical_stress =
      Pascals{nominal.critical_stress.value() * r.lognormal(0.0, 0.10)};
  CompactEm em{CompactEmParams{.wire = paper_wire(), .material = m}};
  const Celsius t = paper_em_conditions::chamber();
  const Seconds fwd = minutes(60.0);
  const Seconds rev = minutes(15.0);
  const double horizon = hours(400.0).value();
  double elapsed = 0.0;
  while (!em.broken() && elapsed < horizon) {
    em.step(paper_em_conditions::stress_density(), t, fwd);
    elapsed += fwd.value();
    if (recovery && !em.broken()) {
      em.step(paper_em_conditions::reverse_density(), t, rev);
      elapsed += rev.value();
    }
  }
  return em.broken() ? elapsed : horizon;
}

Percentiles percentiles(const std::vector<double>& ttf_s) {
  return {stats::percentile(ttf_s, 0.001) / 3600.0,
          stats::percentile(ttf_s, 0.01) / 3600.0,
          stats::median(ttf_s) / 3600.0};
}

Study run_study(std::uint64_t seed) {
  constexpr std::size_t kWires = 400;
  std::vector<double> constant, recovery;
  for (std::size_t i = 0; i < kWires; ++i) {
    Rng r1 = Rng::stream(seed, i);
    Rng r2 = r1;  // identical process draw for the pair
    constant.push_back(sample_ttf(false, r1));
    recovery.push_back(sample_ttf(true, r2));
  }
  return {percentiles(constant), percentiles(recovery)};
}

TEST(EmPopulationClaims, RecoveryDutyMovesWholeTtfDistribution) {
  // The bench's seed, as its golden table prints it: t0.1 % 15.8 -> 59.7
  // h, t1 % 19.0 -> 71.0 h, t50 32.0 -> 124.8 h (3.9x).
  const Study golden = run_study(2026);
  EXPECT_EQ(Table::num(golden.constant.t01, 1), "15.8");
  EXPECT_EQ(Table::num(golden.recovery.t01, 1), "59.7");
  EXPECT_EQ(Table::num(golden.constant.t1, 1), "19.0");
  EXPECT_EQ(Table::num(golden.recovery.t1, 1), "71.0");
  EXPECT_EQ(Table::num(golden.constant.t50, 1), "32.0");
  EXPECT_EQ(Table::num(golden.recovery.t50, 1), "124.8");

  // Other seeds: t50 moves by 3.86-3.94x, t0.1 % by 3.57-3.84x and t1 %
  // by 3.66-3.88x (seeds 1-8 and 42).
  for (const std::uint64_t seed : {1, 2, 3, 4, 5, 6, 7, 8, 42}) {
    const Study s = run_study(seed);
    const double r01 = s.recovery.t01 / s.constant.t01;
    const double r1 = s.recovery.t1 / s.constant.t1;
    const double r50 = s.recovery.t50 / s.constant.t50;
    std::printf("seed %2llu: t0.1%% x%.3f  t1%% x%.3f  t50 x%.3f\n",
                static_cast<unsigned long long>(seed), r01, r1, r50);
    EXPECT_GT(r01, 3.0) << "seed " << seed;
    EXPECT_GT(r1, 3.0) << "seed " << seed;
    EXPECT_GT(r50, 3.75) << "seed " << seed;
    EXPECT_LT(r50, 4.05) << "seed " << seed;
  }
}

}  // namespace
}  // namespace dh::em
