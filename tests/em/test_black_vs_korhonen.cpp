// Cross-model validation: Black's empirical law (n = 2 current exponent,
// Arrhenius temperature acceleration) must *emerge* from the Korhonen
// physics — nucleation-limited TTF scales as 1/j^2 and with the diffusion
// activation energy. This pins the Korhonen solver and the compact EM model
// to Black's law, and to each other, across the operating space.
#include <gtest/gtest.h>

#include <cmath>

#include "common/arrhenius.hpp"
#include "em/compact_em.hpp"
#include "em/em_sensor.hpp"
#include "em/korhonen.hpp"

namespace dh::em {
namespace {

/// Black's median law, calibrated to a median `ttf_ref_s` at (j_ref, t_ref):
///   t50(j, T) = ttf_ref * (j / j_ref)^-n * exp(Ea/k * (1/T - 1/T_ref)),
/// with n = 2 (nucleation limited) and Ea = 0.9 eV (the diffusion
/// activation energy).
double black_median_s(double ttf_ref_s, double j_ref_ma, double t_ref_c,
                      double j_ma, double t_c) {
  const double jr = mega_amps_per_cm2(j_ma).value() /
                    mega_amps_per_cm2(j_ref_ma).value();
  return ttf_ref_s * std::pow(jr, -2.0) /
         arrhenius_acceleration(ElectronVolts{0.90},
                                to_kelvin(Celsius{t_c}),
                                to_kelvin(Celsius{t_ref_c}));
}

/// PDE nucleation time at (j, T), found by bisection-free stepping.
double pde_nucleation_s(double j_ma, double t_c) {
  KorhonenSolver s{paper_wire(), paper_calibrated_em_material()};
  const AmpsPerM2 j = mega_amps_per_cm2(j_ma);
  const Celsius t{t_c};
  const double guess =
      CompactEm::analytic_nucleation_time(s.material(), s.wire(), j, t)
          .value();
  const Seconds step{std::max(60.0, guess / 200.0)};
  while (!s.ever_nucleated() && s.elapsed().value() < 5.0 * guess) {
    s.step(j, t, step);
  }
  return s.ever_nucleated() ? s.elapsed().value() : -1.0;
}

struct SweepPoint {
  double j_ma;
  double t_c;
};

class KorhonenSweep : public ::testing::TestWithParam<SweepPoint> {};

TEST_P(KorhonenSweep, NucleationMatchesAnalyticAcrossConditions) {
  const auto [j_ma, t_c] = GetParam();
  const double analytic =
      CompactEm::analytic_nucleation_time(paper_calibrated_em_material(),
                                          paper_wire(),
                                          mega_amps_per_cm2(j_ma),
                                          Celsius{t_c})
          .value();
  const double pde = pde_nucleation_s(j_ma, t_c);
  ASSERT_GT(pde, 0.0);
  EXPECT_NEAR(pde, analytic, 0.2 * analytic)
      << "j=" << j_ma << " MA/cm^2, T=" << t_c << " C";
}

INSTANTIATE_TEST_SUITE_P(Conditions, KorhonenSweep,
                         ::testing::Values(SweepPoint{7.96, 230.0},
                                           SweepPoint{12.0, 230.0},
                                           SweepPoint{5.0, 230.0},
                                           SweepPoint{7.96, 250.0},
                                           SweepPoint{7.96, 210.0}));

TEST(BlackVsKorhonen, CurrentExponentTwoEmergesFromPde) {
  const double t1 = pde_nucleation_s(5.0, 230.0);
  const double t2 = pde_nucleation_s(10.0, 230.0);
  ASSERT_GT(t1, 0.0);
  ASSERT_GT(t2, 0.0);
  // Black with n = 2: doubling j quarters the lifetime.
  EXPECT_NEAR(t1 / t2, 4.0, 0.5);
}

TEST(BlackVsKorhonen, TemperatureAccelerationMatchesDiffusionEa) {
  const double t_cool = pde_nucleation_s(7.96, 210.0);
  const double t_hot = pde_nucleation_s(7.96, 240.0);
  ASSERT_GT(t_cool, 0.0);
  ASSERT_GT(t_hot, 0.0);
  // Nucleation time ~ 1/kappa ~ T/Da: the dominant factor is the
  // diffusion Arrhenius (0.9 eV); compare against Black's law with the
  // same Ea.
  const double predicted = black_median_s(t_cool, 7.96, 210.0, 7.96, 240.0);
  EXPECT_NEAR(t_hot, predicted, 0.25 * predicted);
}

TEST(BlackVsKorhonen, BlackCalibratedFromPdeExtrapolatesToUseConditions) {
  // Practical workflow: calibrate Black at accelerated conditions from
  // the physics solver, then extrapolate to operating conditions. The
  // compact analytic time must agree with the extrapolation.
  const double t_ref = pde_nucleation_s(7.96, 230.0);
  const double use = black_median_s(t_ref, 7.96, 230.0, 2.0, 105.0);
  const double analytic =
      CompactEm::analytic_nucleation_time(paper_calibrated_em_material(),
                                          paper_wire(),
                                          mega_amps_per_cm2(2.0),
                                          Celsius{105.0})
          .value();
  // Within 2x over a >1000x extrapolation (the residual is the T/kT
  // prefactor Black's pure-exponential form drops).
  EXPECT_GT(use, 0.5 * analytic);
  EXPECT_LT(use, 2.0 * analytic);
}

}  // namespace
}  // namespace dh::em
