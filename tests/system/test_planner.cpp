#include "core/rejuvenation_planner.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "em/em_sensor.hpp"
#include "em/wire.hpp"

namespace dh::core {
namespace {

EmPlanningInput hot_wire_input() {
  EmPlanningInput in;
  in.wire = em::paper_wire();
  in.material = em::paper_calibrated_em_material();
  in.operating_density = mega_amps_per_cm2(7.96);
  in.temperature = Celsius{230.0};
  in.lifetime = days(10.0);
  in.stress_budget = 0.7;
  return in;
}

TEST(EmPlanner, HotWireNeedsRecoveryIntervals) {
  const EmSchedule s = plan_em_recovery(hot_wire_input());
  EXPECT_GT(s.reverse_interval.value(), 0.0);
  EXPECT_GT(s.forward_interval.value(), 0.0);
  EXPECT_GT(s.nucleation_margin_factor, 1.0);
}

TEST(EmPlanner, ImmortalWireNeedsNothing) {
  EmPlanningInput in = hot_wire_input();
  in.operating_density = mega_amps_per_cm2(0.001);
  const EmSchedule s = plan_em_recovery(in);
  EXPECT_DOUBLE_EQ(s.reverse_interval.value(), 0.0);
  EXPECT_GT(s.nucleation_margin_factor, 1.0);
}

TEST(EmPlanner, ZeroCurrentNeedsNothing) {
  EmPlanningInput in = hot_wire_input();
  in.operating_density = AmpsPerM2{0.0};
  EXPECT_DOUBLE_EQ(plan_em_recovery(in).reverse_interval.value(), 0.0);
}

TEST(EmPlanner, LongerLifetimeNeedsMoreReverseShare) {
  EmPlanningInput short_life = hot_wire_input();
  short_life.lifetime = days(2.0);
  EmPlanningInput long_life = hot_wire_input();
  long_life.lifetime = days(40.0);
  const EmSchedule s_short = plan_em_recovery(short_life);
  const EmSchedule s_long = plan_em_recovery(long_life);
  const auto share = [](const EmSchedule& s) {
    const double total =
        s.forward_interval.value() + s.reverse_interval.value();
    return total > 0.0 ? s.reverse_interval.value() / total : 0.0;
  };
  EXPECT_GE(share(s_long), share(s_short));
}

TEST(EmPlanner, ValidatesBudget) {
  EmPlanningInput in = hot_wire_input();
  in.stress_budget = 1.5;
  EXPECT_THROW((void)plan_em_recovery(in), dh::Error);
}

}  // namespace
}  // namespace dh::core
