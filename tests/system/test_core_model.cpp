#include "sched/core_model.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/ckpt/serialize.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "support/test_support.hpp"

namespace dh::sched {
namespace {

Core make_core() { return Core{CoreParams{}}; }

TEST(CoreModel, FreshCoreAtFullSpeed) {
  const Core c = make_core();
  EXPECT_DOUBLE_EQ(c.degradation(), 0.0);
  EXPECT_DOUBLE_EQ(c.delta_vth().value(), 0.0);
}

TEST(CoreModel, RunningAgesTheCore) {
  Core c = make_core();
  for (int d = 0; d < 90; ++d) {
    c.step(CoreAction::kRun, 0.9, Celsius{85.0}, days(1.0));
  }
  EXPECT_GT(c.delta_vth().value(), 0.0);
  EXPECT_GT(c.degradation(), 0.0);
}

TEST(CoreModel, IdleAgesSlowerThanRunning) {
  Core busy = make_core();
  Core idle = make_core();
  for (int d = 0; d < 60; ++d) {
    busy.step(CoreAction::kRun, 1.0, Celsius{85.0}, days(1.0));
    idle.step(CoreAction::kIdle, 0.0, Celsius{85.0}, days(1.0));
  }
  EXPECT_GT(busy.delta_vth().value(), 5.0 * idle.delta_vth().value());
}

TEST(CoreModel, ActiveRecoveryHeals) {
  Core c = make_core();
  for (int d = 0; d < 60; ++d) {
    c.step(CoreAction::kRun, 1.0, Celsius{85.0}, days(1.0));
  }
  const double aged = c.delta_vth().value();
  for (int d = 0; d < 10; ++d) {
    c.step(CoreAction::kBtiActiveRecovery, 0.0, Celsius{85.0}, days(1.0));
  }
  EXPECT_LT(c.delta_vth().value(), aged);
}

TEST(CoreModel, UtilizationScalesAging) {
  Core heavy = make_core();
  Core light = make_core();
  for (int d = 0; d < 60; ++d) {
    heavy.step(CoreAction::kRun, 1.0, Celsius{85.0}, days(1.0));
    light.step(CoreAction::kRun, 0.2, Celsius{85.0}, days(1.0));
  }
  EXPECT_GT(heavy.delta_vth().value(), light.delta_vth().value());
}

TEST(CoreModel, HotterAgesFaster) {
  Core hot = make_core();
  Core cool = make_core();
  for (int d = 0; d < 60; ++d) {
    hot.step(CoreAction::kRun, 1.0, Celsius{105.0}, days(1.0));
    cool.step(CoreAction::kRun, 1.0, Celsius{55.0}, days(1.0));
  }
  EXPECT_GT(hot.delta_vth().value(), cool.delta_vth().value());
}

TEST(CoreModel, PowerModelShape) {
  const Core c = make_core();
  const double p_full =
      c.power(CoreAction::kRun, 1.0, Celsius{85.0}).value();
  const double p_half =
      c.power(CoreAction::kRun, 0.5, Celsius{85.0}).value();
  const double p_idle =
      c.power(CoreAction::kIdle, 0.0, Celsius{85.0}).value();
  const double p_rec =
      c.power(CoreAction::kBtiActiveRecovery, 0.0, Celsius{85.0}).value();
  EXPECT_GT(p_full, p_half);
  EXPECT_GT(p_half, p_idle);
  EXPECT_LT(p_idle, 0.2 * p_full);
  EXPECT_LT(p_rec, 0.2 * p_full);
}

TEST(CoreModel, LeakageGrowsWithTemperature) {
  const Core c = make_core();
  EXPECT_GT(c.power(CoreAction::kRun, 0.0, Celsius{105.0}).value(),
            c.power(CoreAction::kRun, 0.0, Celsius{45.0}).value());
}

TEST(CoreModel, SupplyCurrentMatchesPower) {
  const Core c = make_core();
  const double p = c.power(CoreAction::kRun, 0.8, Celsius{85.0}).value();
  const double i =
      c.supply_current(CoreAction::kRun, 0.8, Celsius{85.0}).value();
  EXPECT_NEAR(i, p / c.params().vdd.value(), 1e-12);
}

TEST(CoreModel, InvalidUtilizationRejected) {
  Core c = make_core();
  EXPECT_THROW(c.step(CoreAction::kRun, 1.5, Celsius{85.0}, hours(1.0)),
               dh::Error);
}

/// One core's quantum written out with CompactBti::apply, independent of
/// Core::step and Core::step_all: stress for the utilized fraction of a
/// run, then passive recovery; the whole quantum for idle or recovery.
void oracle_step(device::CompactBti& bti, const CoreParams& p,
                 CoreAction action, double u, Celsius t, Seconds dt) {
  switch (action) {
    case CoreAction::kRun:
      if (dt.value() * u > 0.0) {
        bti.apply({p.vdd, t}, Seconds{dt.value() * u});
      }
      if (dt.value() * (1.0 - u) > 0.0) {
        bti.apply({Volts{0.0}, t}, Seconds{dt.value() * (1.0 - u)});
      }
      break;
    case CoreAction::kIdle:
      bti.apply({Volts{0.0}, t}, dt);
      break;
    case CoreAction::kBtiActiveRecovery:
      bti.apply({p.active_recovery_bias, t}, dt);
      break;
  }
}

TEST(CoreModel, StepAllMatchesPerCoreStepBitForBit) {
  // 37 cores: more than one lockstep block, with a partial last one.
  // Every action, utilizations at 0, 1 and in between, per-core
  // temperatures and a hot-core parameter set next to the default.
  CoreParams hot;
  hot.vdd = Volts{1.0};
  hot.bti.gen_rate_ref_v_per_s = 9e-7;
  // Stress and recovery kinetics referenced to different temperatures,
  // so a running core's two phases need two Arrhenius factors, and a
  // non-default recovery bias.
  CoreParams skewed;
  skewed.bti.stress_ref.temperature = Celsius{125.0};
  skewed.active_recovery_bias = Volts{-0.45};
  Rng rng{1207};
  std::vector<Core> batched;
  for (std::size_t i = 0; i < 37; ++i) {
    batched.emplace_back(i % 3 == 0   ? hot
                         : i % 3 == 1 ? skewed
                                      : CoreParams{});
  }
  std::vector<Core> reference = batched;
  std::vector<device::CompactBti> oracle;
  for (const Core& c : batched) oracle.emplace_back(c.params().bti);
  const CoreAction all_actions[] = {CoreAction::kRun, CoreAction::kIdle,
                                    CoreAction::kBtiActiveRecovery};
  for (int round = 0; round < 40; ++round) {
    std::vector<CoreAction> actions;
    std::vector<double> util;
    std::vector<Celsius> temps;
    for (std::size_t i = 0; i < batched.size(); ++i) {
      actions.push_back(all_actions[test::uniform_int(rng, 0, 2)]);
      const int u = test::uniform_int(rng, 0, 3);
      util.push_back(u == 0   ? 0.0
                     : u == 1 ? 1.0
                              : test::uniform(rng, 0.0, 1.0));
      temps.push_back(Celsius{test::uniform(rng, 40.0, 110.0)});
    }
    const Seconds dt = round % 4 == 0 ? Seconds{test::uniform(rng, 1.0, 3e4)}
                                      : hours(6.0);
    Core::step_all(batched, actions, util, temps, dt);
    for (std::size_t i = 0; i < batched.size(); ++i) {
      reference[i].step(actions[i], util[i], temps[i], dt);
      oracle_step(oracle[i], batched[i].params(), actions[i], util[i],
                  temps[i], dt);
      const device::BtiBreakdown got = batched[i].bti_breakdown();
      for (const device::BtiBreakdown& want :
           {reference[i].bti_breakdown(), oracle[i].breakdown()}) {
        ASSERT_EQ(got.recoverable.value(), want.recoverable.value())
            << "round " << round << " core " << i;
        ASSERT_EQ(got.unlocked.value(), want.unlocked.value())
            << "round " << round << " core " << i;
        ASSERT_EQ(got.locked.value(), want.locked.value())
            << "round " << round << " core " << i;
      }
    }
  }
  EXPECT_GT(batched[0].bti_breakdown().locked.value(), 0.0);
}

TEST(CoreModel, PowerTracksTemperatureAndAging) {
  // power and supply_current memoize the leakage factor. After each event
  // below they must equal a fresh core's, restored from the same snapshot.
  const CoreAction actions[] = {CoreAction::kRun, CoreAction::kIdle,
                                CoreAction::kBtiActiveRecovery};
  const auto snapshot = [](const Core& c) {
    ckpt::Serializer s;
    c.save_state(s);
    return s.take();
  };
  const auto expect_fresh_power = [&](const Core& c, Celsius t,
                                      const char* event) {
    Core fresh = make_core();
    ckpt::Deserializer d{snapshot(c)};
    fresh.load_state(d);
    for (const CoreAction a : actions) {
      EXPECT_EQ(c.power(a, 0.7, t).value(), fresh.power(a, 0.7, t).value())
          << event;
      EXPECT_EQ(c.supply_current(a, 0.7, t).value(),
                fresh.supply_current(a, 0.7, t).value())
          << event;
    }
  };
  Core c = make_core();
  const Celsius warm{70.0};
  const double fresh_power = c.power(CoreAction::kRun, 0.7, warm).value();
  // Aging at the same temperature: the memo's temperature still matches.
  c.step(CoreAction::kRun, 0.9, warm, days(30.0));
  ASSERT_GT(c.delta_vth().value(), 0.0);
  EXPECT_LT(c.power(CoreAction::kRun, 0.7, warm).value(), fresh_power);
  expect_fresh_power(c, warm, "step at the same temperature");
  // A new temperature at the same ΔVth.
  const Celsius hot{95.0};
  expect_fresh_power(c, hot, "temperature change");
  // Another core's state, read at the temperature last asked for.
  Core other = make_core();
  other.step(CoreAction::kRun, 0.4, Celsius{110.0}, days(90.0));
  ckpt::Deserializer d{snapshot(other)};
  c.load_state(d);
  ASSERT_NE(c.delta_vth().value(), 0.0);
  expect_fresh_power(c, hot, "load_state from another core");
  EXPECT_EQ(c.power(CoreAction::kRun, 0.7, hot).value(),
            other.power(CoreAction::kRun, 0.7, hot).value());
}

TEST(CoreModel, StepAllRejectsBadUtilizationBeforeMovingAnyCore) {
  std::vector<Core> cores(3, make_core());
  const std::vector<CoreAction> actions(3, CoreAction::kRun);
  const std::vector<Celsius> temps(3, Celsius{85.0});
  EXPECT_THROW(Core::step_all(cores, actions, std::vector<double>{0.5, 0.5, 1.5},
                              temps, hours(1.0)),
               dh::Error);
  EXPECT_THROW(Core::step_all(cores, actions, std::vector<double>{-0.1, 0.5, 0.5},
                              temps, hours(1.0)),
               dh::Error);
  for (const Core& c : cores) EXPECT_EQ(c.delta_vth().value(), 0.0);
  // Spans of different lengths are refused too.
  EXPECT_THROW(Core::step_all(cores, actions, std::vector<double>{0.5},
                              temps, hours(1.0)),
               dh::Error);
}

TEST(CoreModel, ActionNames) {
  EXPECT_STREQ(to_string(CoreAction::kRun), "run");
  EXPECT_STREQ(to_string(CoreAction::kIdle), "idle");
  EXPECT_STREQ(to_string(CoreAction::kBtiActiveRecovery), "bti-recovery");
}

}  // namespace
}  // namespace dh::sched
