#include <gtest/gtest.h>

#include "common/error.hpp"
#include "em/em_sensor.hpp"
#include "sensors/em_canary.hpp"
#include "sensors/health_monitor.hpp"
#include "sensors/ro_pair_sensor.hpp"

namespace dh::sensors {
namespace {

// ---- RO-pair BTI sensor ---------------------------------------------------

RoPairSensor make_ro_pair(std::uint64_t seed = 3) {
  return RoPairSensor{RoPairSensorParams{}, Rng{seed}};
}

TEST(RoPairSensor, FreshReadsNearZero) {
  RoPairSensor s = make_ro_pair();
  EXPECT_LT(s.measure().value(), 0.003);
}

TEST(RoPairSensor, TracksTrueShift) {
  RoPairSensor s = make_ro_pair();
  for (int d = 0; d < 60; ++d) {
    s.step(0.9, Volts{1.1}, Celsius{95.0}, hours(24.0));
  }
  const double truth = s.true_dvth().value();
  ASSERT_GT(truth, 0.005);
  EXPECT_NEAR(s.measure().value(), truth, 0.3 * truth);
}

TEST(RoPairSensor, ReferenceStaysFresh) {
  RoPairSensor s = make_ro_pair();
  for (int d = 0; d < 60; ++d) {
    s.step(1.0, Volts{1.1}, Celsius{95.0}, hours(24.0));
  }
  // True differential ~ stressed shift: the healed reference contributes
  // almost nothing.
  EXPECT_GT(s.true_dvth().value(), 0.0);
}

TEST(RoPairSensor, MoreDutyMoreReading) {
  RoPairSensor light = make_ro_pair(5);
  RoPairSensor heavy = make_ro_pair(5);
  for (int d = 0; d < 60; ++d) {
    light.step(0.2, Volts{1.1}, Celsius{95.0}, hours(24.0));
    heavy.step(1.0, Volts{1.1}, Celsius{95.0}, hours(24.0));
  }
  EXPECT_GT(heavy.measure().value(), light.measure().value());
}

TEST(RoPairSensor, RejectsBadDuty) {
  RoPairSensor s = make_ro_pair();
  EXPECT_THROW(s.step(1.5, Volts{1.1}, Celsius{95.0}, hours(1.0)), Error);
}

// ---- EM canary bank -------------------------------------------------------

EmCanaryBank make_canaries() {
  EmCanaryParams p;
  p.mission_wire = em::paper_wire();
  p.material = em::paper_calibrated_em_material();
  return EmCanaryBank{p};
}

TEST(EmCanary, FreshBankIsQuiet) {
  EmCanaryBank bank = make_canaries();
  EXPECT_EQ(bank.tripped(), 0u);
  EXPECT_LT(bank.estimated_life_consumed(), 0.2);
}

TEST(EmCanary, NarrowestTripsFirst) {
  EmCanaryBank bank = make_canaries();
  const auto j = em::paper_em_conditions::stress_density();
  const auto t = em::paper_em_conditions::chamber();
  // The narrowest canary (0.5x width -> 2x density) nucleates ~4x sooner
  // than the mission wire (~350 min): step until exactly one trips.
  while (bank.tripped() == 0) {
    bank.step(j, t, minutes(10.0));
  }
  EXPECT_EQ(bank.tripped(), 1u);
  EXPECT_TRUE(bank.canary(0).void_open());
  EXPECT_FALSE(bank.canary(2).void_open());
}

TEST(EmCanary, TripsInWidthOrder) {
  EmCanaryBank bank = make_canaries();
  const auto j = em::paper_em_conditions::stress_density();
  const auto t = em::paper_em_conditions::chamber();
  std::size_t prev = 0;
  for (int m = 0; m < 360 * 2; m += 10) {
    bank.step(j, t, minutes(10.0));
    const std::size_t now = bank.tripped();
    EXPECT_GE(now, prev);
    prev = now;
  }
  EXPECT_GE(prev, 2u);  // at least the two narrowest by 2x mission life
}

TEST(EmCanary, LifeEstimateGrowsMonotonically) {
  EmCanaryBank bank = make_canaries();
  const auto j = em::paper_em_conditions::stress_density();
  const auto t = em::paper_em_conditions::chamber();
  double prev = bank.estimated_life_consumed();
  for (int m = 0; m < 400; m += 40) {
    bank.step(j, t, minutes(40.0));
    const double now = bank.estimated_life_consumed();
    EXPECT_GE(now, prev - 1e-12);
    prev = now;
  }
  EXPECT_GT(prev, 0.2);
}

TEST(EmCanary, Validation) {
  EmCanaryParams p;
  p.mission_wire = em::paper_wire();
  p.material = em::paper_calibrated_em_material();
  p.width_scales = {};
  EXPECT_THROW(EmCanaryBank{p}, Error);
  p.width_scales = {0.8, 0.5};  // not ascending
  EXPECT_THROW(EmCanaryBank{p}, Error);
  p.width_scales = {1.5};
  EXPECT_THROW(EmCanaryBank{p}, Error);
}

// ---- Health monitor -------------------------------------------------------

TEST(HealthMonitor, SmoothsNoise) {
  HealthMonitor m{HealthMonitorParams{.ewma_alpha = 0.2}};
  Rng rng{7};
  double last = 0.0;
  for (int i = 0; i < 200; ++i) {
    last = m.update(0.005 + rng.normal(0.0, 0.002));
  }
  EXPECT_NEAR(last, 0.005, 0.0015);
}

TEST(HealthMonitor, AlarmHysteresis) {
  HealthMonitor m{
      HealthMonitorParams{.ewma_alpha = 1.0, .trip = 0.01, .clear = 0.004}};
  EXPECT_FALSE(m.alarm());
  (void)m.update(0.012);
  EXPECT_TRUE(m.alarm());
  (void)m.update(0.007);  // between clear and trip: alarm holds
  EXPECT_TRUE(m.alarm());
  (void)m.update(0.002);
  EXPECT_FALSE(m.alarm());
}

TEST(HealthMonitor, FirstReadingSeedsEstimate) {
  HealthMonitor m{HealthMonitorParams{.ewma_alpha = 0.1}};
  EXPECT_DOUBLE_EQ(m.update(0.02), 0.02);
}

TEST(HealthMonitor, ResetClears) {
  HealthMonitor m{HealthMonitorParams{}};
  (void)m.update(0.05);
  m.reset();
  EXPECT_FALSE(m.alarm());
  EXPECT_DOUBLE_EQ(m.estimate(), 0.0);
  // The next reading is the first again: the estimate starts at it.
  EXPECT_DOUBLE_EQ(m.update(0.02), 0.02);
}

TEST(HealthMonitor, Validation) {
  HealthMonitorParams p;
  p.ewma_alpha = 0.0;
  EXPECT_THROW(HealthMonitor{p}, Error);
  p = HealthMonitorParams{};
  p.clear = p.trip;
  EXPECT_THROW(HealthMonitor{p}, Error);
}

// ---- Closed loop ----------------------------------------------------------

TEST(SensorLoop, CanaryAlarmLeadsMissionNucleation) {
  // The whole point: the canary alarm fires while the mission wire still
  // has untouched life, leaving time to schedule EM recovery.
  EmCanaryBank bank = make_canaries();
  em::CompactEm mission{em::CompactEmParams{
      .wire = em::paper_wire(),
      .material = em::paper_calibrated_em_material()}};
  const auto j = em::paper_em_conditions::stress_density();
  const auto t = em::paper_em_conditions::chamber();
  double alarm_time = -1.0;
  double elapsed = 0.0;
  while (!mission.void_open() && elapsed < hours(12.0).value()) {
    bank.step(j, t, minutes(10.0));
    mission.step(j, t, minutes(10.0));
    elapsed += minutes(10.0).value();
    if (alarm_time < 0.0 && bank.tripped() > 0) alarm_time = elapsed;
  }
  ASSERT_GT(alarm_time, 0.0);
  ASSERT_TRUE(mission.void_open());
  // Early warning: the alarm arrives at well under half the mission life.
  EXPECT_LT(alarm_time, 0.5 * elapsed);
}

}  // namespace
}  // namespace dh::sensors
