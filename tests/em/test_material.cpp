#include "em/material.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "em/compact_em.hpp"
#include "em/wire.hpp"
#include "support/test_support.hpp"

namespace dh::em {
namespace {

TEST(Material, DiffusivityIsArrhenius) {
  const EmMaterialParams m = paper_calibrated_em_material();
  const double d_hot = m.diffusivity(to_kelvin(Celsius{230.0}));
  const double d_cold = m.diffusivity(to_kelvin(Celsius{105.0}));
  EXPECT_GT(d_hot, d_cold * 100.0);  // 0.9 eV over that span is huge
}

TEST(Material, KappaPositiveAndTemperatureAccelerated) {
  const EmMaterialParams m = paper_calibrated_em_material();
  const double k1 = m.kappa(to_kelvin(Celsius{100.0}));
  const double k2 = m.kappa(to_kelvin(Celsius{230.0}));
  EXPECT_GT(k1, 0.0);
  EXPECT_GT(k2, k1);
}

TEST(Material, DrivingForceLinearInCurrentDensity) {
  const EmMaterialParams m = paper_calibrated_em_material();
  const double rho = 3e-8;
  const double g1 = m.driving_force(rho, mega_amps_per_cm2(1.0));
  const double g4 = m.driving_force(rho, mega_amps_per_cm2(4.0));
  EXPECT_NEAR(g4, 4.0 * g1, 1e-9 * g4);
  // Sign follows the current.
  EXPECT_LT(m.driving_force(rho, mega_amps_per_cm2(-1.0)), 0.0);
}

TEST(Material, DriftVelocityPaperScale) {
  // At 230 C and 7.96 MA/cm^2 the drift velocity should be a few nm/h —
  // that is what makes Fig. 5's ~0.4 Ohm/h with the liner model.
  const EmMaterialParams m = paper_calibrated_em_material();
  const WireGeometry w = paper_wire();
  const Kelvin t = to_kelvin(Celsius{230.0});
  const double v =
      test::drift_velocity(m, t, w.resistivity_at(t), mega_amps_per_cm2(7.96));
  EXPECT_GT(v * 3600e9, 1.0);   // > 1 nm/h
  EXPECT_LT(v * 3600e9, 30.0);  // < 30 nm/h
}

TEST(Material, NucleationTimeMatchesPaperTimescale) {
  const EmMaterialParams m = paper_calibrated_em_material();
  const WireGeometry w = paper_wire();
  const Seconds t_nuc = CompactEm::analytic_nucleation_time(
      m, w, mega_amps_per_cm2(7.96), Celsius{230.0});
  // Fig. 5's void nucleation phase is on the ~6 h scale.
  EXPECT_GT(in_minutes(t_nuc), 200.0);
  EXPECT_LT(in_minutes(t_nuc), 500.0);
}

TEST(Material, NucleationTimeScalesInverseSquareOfCurrent) {
  const EmMaterialParams m = paper_calibrated_em_material();
  const WireGeometry w = paper_wire();
  const double t1 = CompactEm::analytic_nucleation_time(
                        m, w, mega_amps_per_cm2(4.0), Celsius{230.0})
                        .value();
  const double t2 = CompactEm::analytic_nucleation_time(
                        m, w, mega_amps_per_cm2(8.0), Celsius{230.0})
                        .value();
  EXPECT_NEAR(t1 / t2, 4.0, 0.01);
}

TEST(Material, BlechThresholdPhysicalRange) {
  const EmMaterialParams m = paper_calibrated_em_material();
  const double thr = m.blech_threshold(3e-8);
  // Literature: critical jL product of order 1e6 A/m (1000-10000 A/cm).
  EXPECT_GT(thr, 1e5);
  EXPECT_LT(thr, 1e7);
  EXPECT_THROW((void)m.blech_threshold(0.0), Error);
}

TEST(Material, FixRateArrhenius) {
  const EmMaterialParams m = paper_calibrated_em_material();
  EXPECT_GT(m.fix_rate(to_kelvin(Celsius{230.0})),
            m.fix_rate(to_kelvin(Celsius{100.0})));
}

TEST(Material, ZeroCurrentMeansNoDrive) {
  const EmMaterialParams m = paper_calibrated_em_material();
  EXPECT_DOUBLE_EQ(m.driving_force(3e-8, AmpsPerM2{0.0}), 0.0);
  EXPECT_DOUBLE_EQ(
      test::drift_velocity(m, to_kelvin(Celsius{230.0}), 3e-8, AmpsPerM2{0.0}),
      0.0);
}

}  // namespace
}  // namespace dh::em
