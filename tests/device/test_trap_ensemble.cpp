#include "device/trap_ensemble.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "device/calibration.hpp"

namespace dh::device {
namespace {

TrapEnsemble make_ensemble() {
  return TrapEnsemble{paper_calibrated_bti_params().ensemble};
}

TEST(TrapEnsemble, FreshStateIsEmpty) {
  const TrapEnsemble e = make_ensemble();
  EXPECT_DOUBLE_EQ(e.occupied_fraction(), 0.0);
  EXPECT_DOUBLE_EQ(e.delta_vth().value(), 0.0);
}

TEST(TrapEnsemble, StressFillsTraps) {
  TrapEnsemble e = make_ensemble();
  e.apply(paper_conditions::accelerated_stress(), hours(1.0));
  EXPECT_GT(e.occupied_fraction(), 0.3);
  EXPECT_GT(e.delta_vth().value(), 0.0);
}

TEST(TrapEnsemble, OccupancyBounded) {
  TrapEnsemble e = make_ensemble();
  e.apply(paper_conditions::accelerated_stress(), hours(100.0));
  EXPECT_GT(e.occupied_fraction(), 0.0);
  EXPECT_LE(e.occupied_fraction(), 1.0);
  EXPECT_LE(e.delta_vth().value(), e.params().dvth_max.value());
}

TEST(TrapEnsemble, StressIsMonotoneInTime) {
  TrapEnsemble e = make_ensemble();
  double prev = 0.0;
  for (int h = 0; h < 10; ++h) {
    e.apply(paper_conditions::accelerated_stress(), hours(1.0));
    const double now = e.occupied_fraction();
    EXPECT_GE(now, prev);
    prev = now;
  }
}

TEST(TrapEnsemble, RecoveryIsMonotoneInTime) {
  TrapEnsemble e = make_ensemble();
  e.apply(paper_conditions::accelerated_stress(), hours(24.0));
  double prev = e.occupied_fraction();
  for (int h = 0; h < 6; ++h) {
    e.apply(paper_conditions::recovery_no4(), hours(1.0));
    const double now = e.occupied_fraction();
    EXPECT_LE(now, prev);
    prev = now;
  }
}

TEST(TrapEnsemble, SplitStepsMatchOneBigStep) {
  // Per-bin updates are analytic, so 24 x 1h must equal 1 x 24h exactly.
  TrapEnsemble big = make_ensemble();
  big.apply(paper_conditions::accelerated_stress(), hours(24.0));
  TrapEnsemble split = make_ensemble();
  for (int h = 0; h < 24; ++h) {
    split.apply(paper_conditions::accelerated_stress(), hours(1.0));
  }
  EXPECT_NEAR(big.occupied_fraction(), split.occupied_fraction(), 1e-12);
}

TEST(TrapEnsemble, ResetRestoresFreshState) {
  TrapEnsemble e = make_ensemble();
  e.apply(paper_conditions::accelerated_stress(), hours(5.0));
  e.reset();
  EXPECT_DOUBLE_EQ(e.occupied_fraction(), 0.0);
}

TEST(TrapEnsemble, ZeroDtIsNoOp) {
  TrapEnsemble e = make_ensemble();
  e.apply(paper_conditions::accelerated_stress(), hours(2.0));
  const double before = e.occupied_fraction();
  e.apply(paper_conditions::recovery_no4(), Seconds{0.0});
  EXPECT_DOUBLE_EQ(e.occupied_fraction(), before);
}

TEST(TrapEnsemble, NegativeDtThrows) {
  TrapEnsemble e = make_ensemble();
  EXPECT_THROW(e.apply(paper_conditions::recovery_no1(), Seconds{-1.0}),
               Error);
}

TEST(TrapEnsemble, NoCaptureWithoutStress) {
  TrapEnsemble e = make_ensemble();
  e.apply(paper_conditions::recovery_no1(), hours(100.0));
  EXPECT_DOUBLE_EQ(e.occupied_fraction(), 0.0);
}

/// Property sweep: hotter recovery always recovers at least as much.
class RecoveryTemperature : public ::testing::TestWithParam<double> {};

TEST_P(RecoveryTemperature, HotterRecoversMore) {
  const double t_c = GetParam();
  TrapEnsemble cold = make_ensemble();
  TrapEnsemble hot = make_ensemble();
  cold.apply(paper_conditions::accelerated_stress(), hours(24.0));
  hot.apply(paper_conditions::accelerated_stress(), hours(24.0));
  cold.apply({Volts{-0.3}, Celsius{t_c}}, hours(6.0));
  hot.apply({Volts{-0.3}, Celsius{t_c + 30.0}}, hours(6.0));
  EXPECT_LE(hot.occupied_fraction(), cold.occupied_fraction());
}

INSTANTIATE_TEST_SUITE_P(Temperatures, RecoveryTemperature,
                         ::testing::Values(20.0, 50.0, 80.0, 110.0));

/// Property sweep: more negative recovery bias always recovers more.
class RecoveryBias : public ::testing::TestWithParam<double> {};

TEST_P(RecoveryBias, MoreNegativeBiasRecoversMore) {
  const double bias = GetParam();
  TrapEnsemble weak = make_ensemble();
  TrapEnsemble strong = make_ensemble();
  weak.apply(paper_conditions::accelerated_stress(), hours(24.0));
  strong.apply(paper_conditions::accelerated_stress(), hours(24.0));
  weak.apply({Volts{bias}, Celsius{110.0}}, hours(6.0));
  strong.apply({Volts{bias - 0.15}, Celsius{110.0}}, hours(6.0));
  EXPECT_LE(strong.occupied_fraction(), weak.occupied_fraction());
}

INSTANTIATE_TEST_SUITE_P(Biases, RecoveryBias,
                         ::testing::Values(0.0, -0.1, -0.2, -0.3));

TEST(TrapEnsemble, DensityValidation) {
  TrapEnsembleParams p = paper_calibrated_bti_params().ensemble;
  p.density.breakpoints = {1.0, 0.5};  // not sorted
  EXPECT_THROW(TrapEnsemble{p}, Error);
  p = paper_calibrated_bti_params().ensemble;
  p.density.segment_weights.pop_back();
  EXPECT_THROW(TrapEnsemble{p}, Error);
}

}  // namespace
}  // namespace dh::device
