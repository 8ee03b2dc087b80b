// End-to-end integration: plan a recovery schedule from the device model,
// execute it quantum by quantum, and verify the device actually stays
// healthy — the full deep-healing loop.
#include <gtest/gtest.h>

#include <cmath>

#include "circuit/assist.hpp"
#include "core/rejuvenation_planner.hpp"
#include "device/bti_model.hpp"
#include "device/calibration.hpp"
#include "em/compact_em.hpp"
#include "em/em_sensor.hpp"

namespace dh::core {
namespace {

TEST(Integration, PlannedScheduleKeepsDeviceFresh) {
  using namespace device;
  // 1. Plan: find the minimal recovery share for an accelerated-aging
  //    device.
  BtiPlanningInput in;
  in.stress = paper_conditions::accelerated_stress();
  in.recovery = paper_conditions::recovery_no4();
  in.period = hours(3.0);
  in.lifetime = days(10.0);
  in.residual_budget = Volts{0.004};
  const BtiSchedule plan = plan_bti_recovery(in);
  ASSERT_GT(plan.recovery_fraction, 0.0);

  // 2. Execute quantum by quantum: recover in the trailing
  //    `recovery_fraction` of every period, operate otherwise.
  auto device_model = BtiModel::paper_calibrated();
  const Seconds quantum = hours(1.0);
  const double period = plan.period.value();
  double operating_s = 0.0;
  double total_s = 0.0;
  for (double t = 0.0; t < in.lifetime.value(); t += quantum.value()) {
    const bool recover =
        std::fmod(t, period) / period >= 1.0 - plan.recovery_fraction;
    device_model.apply(recover ? in.recovery : in.stress, quantum);
    if (!recover) operating_s += quantum.value();
    total_s += quantum.value();
  }

  // 3. The scheduled device ends within ~the planned budget, and far
  //    below the unmitigated level.
  EXPECT_LT(device_model.delta_vth().value(),
            3.0 * in.residual_budget.value());
  EXPECT_LT(device_model.delta_vth().value(),
            0.3 * plan.unmitigated_permanent.value());
  // And the block was operational most of the time.
  EXPECT_GT(operating_s / total_s, 0.99 - plan.recovery_fraction);
}

TEST(Integration, AssistCircuitDeliversTheBiasThePlanAssumes) {
  // The planner assumes a -0.3 V recovery bias; the assist circuitry must
  // deliver at least that magnitude at its load pins.
  circuit::AssistCircuit assist{circuit::AssistCircuitParams{}};
  const Volts bias = assist.bti_recovery_bias();
  EXPECT_LE(bias.value(), -0.3);
}

TEST(Integration, EmPlanHoldsLineBelowCriticalInSimulation) {
  // Plan an EM duty cycle analytically, then check it against the compact
  // simulator: the line must not nucleate within the planning horizon.
  EmPlanningInput in;
  in.wire = em::paper_wire();
  in.material = em::paper_calibrated_em_material();
  in.operating_density = mega_amps_per_cm2(7.96);
  in.temperature = Celsius{230.0};
  in.lifetime = hours(40.0);
  in.stress_budget = 0.6;
  const EmSchedule plan = plan_em_recovery(in);
  ASSERT_GT(plan.reverse_interval.value(), 0.0);

  em::CompactEm line{em::CompactEmParams{.wire = in.wire,
                                         .material = in.material}};
  double t = 0.0;
  while (t < in.lifetime.value()) {
    line.step(in.operating_density, in.temperature,
              plan.forward_interval);
    t += plan.forward_interval.value();
    line.step(AmpsPerM2{-in.operating_density.value()}, in.temperature,
              plan.reverse_interval);
    t += plan.reverse_interval.value();
  }
  EXPECT_FALSE(line.void_open());
  EXPECT_LT(std::abs(line.end_stress().value()),
            in.material.critical_stress.value());
}

TEST(Integration, WithoutThePlanTheLineNucleates) {
  // Control experiment for the previous test.
  em::CompactEm line{em::CompactEmParams{
      .wire = em::paper_wire(),
      .material = em::paper_calibrated_em_material()}};
  line.step(mega_amps_per_cm2(7.96), Celsius{230.0}, hours(40.0));
  EXPECT_TRUE(line.void_open() || line.broken());
}

}  // namespace
}  // namespace dh::core
