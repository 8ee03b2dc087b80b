// End-to-end integration: the assist circuitry delivers the recovery bias
// the paper's schedules assume, and an EM recovery plan made analytically
// keeps a simulated line below void nucleation — the deep-healing loop.
#include <gtest/gtest.h>

#include <cmath>

#include "circuit/assist.hpp"
#include "core/rejuvenation_planner.hpp"
#include "em/compact_em.hpp"
#include "em/em_sensor.hpp"

namespace dh::core {
namespace {

TEST(Integration, AssistCircuitDeliversTheBiasThePlanAssumes) {
  // Table I's active-recovery conditions apply -0.3 V; the assist
  // circuitry must deliver at least that magnitude at its load pins.
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
