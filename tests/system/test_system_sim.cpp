#include "sched/system_sim.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/obs/metrics.hpp"

namespace dh::sched {
namespace {

SystemParams small_system() {
  SystemParams p;
  p.rows = 2;
  p.cols = 2;
  p.quantum = hours(6.0);
  p.workload.kind = WorkloadKind::kPeriodic;
  p.workload.utilization = 0.9;
  p.workload.duty = 0.7;
  p.workload.period = hours(24.0);
  return p;
}

TEST(SystemSim, SimulatedTimeHasNoFloatingPointDrift) {
  // now() is derived from the integer step count, not accumulated by
  // repeated `now += dt` — a multi-year run must land exactly on
  // steps * quantum (repeated addition drifts by hundreds of ulps).
  SystemParams p = small_system();
  p.quantum = Seconds{0.1};  // 0.1 is not exactly representable
  SystemSimulator sim{p, make_no_recovery_policy()};
  const int steps = 1000;
  for (int i = 0; i < steps; ++i) sim.step();
  EXPECT_DOUBLE_EQ(sim.now().value(),
                   static_cast<double>(steps) * p.quantum.value());
}

TEST(SystemSim, RunExecutesExactStepCount) {
  // 30 days at 6 h quanta is exactly 120 steps; fp noise in the
  // accumulated clock must not add or drop a step.
  SystemSimulator sim{small_system(), make_no_recovery_policy()};
  sim.run(days(30.0));
  EXPECT_DOUBLE_EQ(sim.now().value() / 3600.0, 30.0 * 24.0);
  // run() targets are absolute, so continuing composes exactly.
  sim.run(days(45.0));
  EXPECT_DOUBLE_EQ(sim.now().value() / 3600.0, 45.0 * 24.0);
  // A lifetime that is not a multiple of the quantum rounds up (the
  // simulator finishes the quantum in flight).
  sim.run(days(45.0) + hours(1.0));
  EXPECT_DOUBLE_EQ(sim.now().value() / 3600.0, 45.0 * 24.0 + 6.0);
}

TEST(SystemSim, RunsAndRecordsTraces) {
  SystemSimulator sim{small_system(), make_no_recovery_policy()};
  sim.run(days(30.0));
  EXPECT_GE(sim.now().value() / 3600.0, 30.0 * 24.0);
  EXPECT_GT(sim.degradation_trace().size(), 100u);
  EXPECT_GT(sim.temperature_trace().size(), 100u);
  EXPECT_GT(sim.ir_drop_trace().size(), 100u);
}

TEST(SystemSim, DegradationAccumulatesWithoutRecovery) {
  SystemSimulator sim{small_system(), make_no_recovery_policy()};
  sim.run(days(90.0));
  const auto s = sim.summary();
  EXPECT_GT(s.guardband_fraction, 0.0);
  EXPECT_GT(s.final_degradation, 0.0);
}

TEST(SystemSim, ActiveRecoveryShrinksGuardband) {
  // The headline system-level claim (Fig. 12b): scheduled active recovery
  // needs a smaller margin than worst-case no-recovery design.
  SystemSimulator baseline{small_system(), make_no_recovery_policy()};
  SystemSimulator healed{small_system(), make_periodic_active_policy()};
  baseline.run(days(180.0));
  healed.run(days(180.0));
  EXPECT_LT(healed.summary().final_degradation,
            baseline.summary().final_degradation);
}

TEST(SystemSim, AvailabilityWithinBounds) {
  SystemSimulator sim{small_system(), make_periodic_active_policy()};
  sim.run(days(30.0));
  const auto s = sim.summary();
  EXPECT_GE(s.availability, 0.0);
  EXPECT_LE(s.availability, 1.0 + 1e-9);
  EXPECT_GE(s.mean_throughput, 0.0);
}

TEST(SystemSim, NoRecoveryHasFullAvailability) {
  SystemSimulator sim{small_system(), make_no_recovery_policy()};
  sim.run(days(20.0));
  // Every demanded cycle is served (at degraded speed, but served).
  EXPECT_GT(sim.summary().availability, 0.95);
}

TEST(SystemSim, DeterministicForSameSeed) {
  SystemSimulator a{small_system(), make_periodic_active_policy()};
  SystemSimulator b{small_system(), make_periodic_active_policy()};
  a.run(days(20.0));
  b.run(days(20.0));
  EXPECT_DOUBLE_EQ(a.summary().final_degradation,
                   b.summary().final_degradation);
  EXPECT_DOUBLE_EQ(a.summary().energy_joules, b.summary().energy_joules);
}

TEST(SystemSim, SeedChangesStochasticDetails) {
  SystemParams p = small_system();
  p.workload.kind = WorkloadKind::kBursty;
  SystemParams p2 = p;
  p2.seed = 777;
  SystemSimulator a{p, make_passive_idle_policy()};
  SystemSimulator b{p2, make_passive_idle_policy()};
  a.run(days(20.0));
  b.run(days(20.0));
  EXPECT_NE(a.summary().energy_joules, b.summary().energy_joules);
}

TEST(SystemSim, TemperatureAboveAmbient) {
  SystemSimulator sim{small_system(), make_no_recovery_policy()};
  sim.run(days(10.0));
  EXPECT_GT(sim.summary().mean_temperature_c,
            small_system().thermal.ambient.value());
}

TEST(SystemSim, EnergyAccumulates) {
  SystemSimulator sim{small_system(), make_no_recovery_policy()};
  sim.run(days(10.0));
  const double e10 = sim.summary().energy_joules;
  sim.run(days(20.0));
  EXPECT_GT(sim.summary().energy_joules, e10);
}

TEST(SystemSim, CoreAccessors) {
  SystemSimulator sim{small_system(), make_no_recovery_policy()};
  EXPECT_NO_THROW((void)sim.core(3));
  EXPECT_THROW((void)sim.core(4), dh::Error);
}

TEST(SystemSim, RequiresPolicy) {
  EXPECT_THROW(SystemSimulator(small_system(), nullptr), dh::Error);
}

TEST(SystemSim, RejectsNonPositiveOrNonFiniteQuantum) {
  // A negative quantum made run() target ~2^64 steps; a zero one cast
  // infinity to a step count.
  for (const double q : {0.0, -3600.0,
                         std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN()}) {
    SystemParams p = small_system();
    p.quantum = Seconds{q};
    try {
      SystemSimulator sim{p, make_no_recovery_policy()};
      ADD_FAILURE() << "quantum " << q << " s was accepted";
    } catch (const dh::Error& e) {
      EXPECT_NE(std::string(e.what()).find("quantum"), std::string::npos)
          << e.what();
    }
  }
}

TEST(SystemSim, RejectsNonFiniteOrHugeLifetimeBeforeAnyStep) {
  // inf and 1e30 s (4.6e25 six-hour quanta) would overflow the size_t
  // step count; each must throw before the first step.
  for (const double life : {std::numeric_limits<double>::infinity(), 1e30,
                            std::numeric_limits<double>::quiet_NaN(), 0.0,
                            -3600.0}) {
    SystemSimulator sim{small_system(), make_no_recovery_policy()};
    try {
      sim.run(Seconds{life});
      ADD_FAILURE() << "lifetime " << life << " s was accepted";
    } catch (const dh::Error& e) {
      EXPECT_NE(std::string(e.what()).find("lifetime"), std::string::npos)
          << e.what();
    }
    EXPECT_EQ(sim.now().value(), 0.0);
    EXPECT_TRUE(sim.degradation_trace().empty());
  }
}

/// Hands every decision to `inner` and records each sensed Vth shift the
/// simulator shows it.
class RecordingPolicy : public RecoveryPolicy {
 public:
  RecordingPolicy(std::unique_ptr<RecoveryPolicy> inner,
                  std::vector<double>& seen)
      : inner_(std::move(inner)), seen_(seen) {}
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] PolicyDecision decide(std::span<const CoreObservation> cores,
                                      Seconds now, Seconds dt,
                                      Rng& rng) override {
    for (const CoreObservation& c : cores) {
      seen_.push_back(c.sensed_dvth.value());
    }
    return inner_->decide(cores, now, dt, rng);
  }

 private:
  std::unique_ptr<RecoveryPolicy> inner_;
  std::vector<double>& seen_;
};

TEST(SystemSim, SensorOutliersFallBackToLastGoodReading) {
  // 0.4 V of sensor noise puts 2 * (1 - Phi(1.25)) = 21 % of the reads
  // beyond the 0.5 V sanity limit. Each must reach the policy as the
  // core's last good reading, never as the outlier itself.
  const obs::Counter& rejected = obs::registry().counter("sensor.rejected");
  const std::uint64_t before = rejected.value();

  SystemParams p = small_system();
  p.sensor_noise = Volts{0.4};
  p.seed = 5;
  std::vector<double> seen;
  SystemSimulator sim{
      p, std::make_unique<RecordingPolicy>(
             make_adaptive_sensor_policy({.threshold = Volts{0.004},
                                          .release = Volts{0.002},
                                          .em_recovery_duty = 0.2}),
             seen)};
  sim.run(days(30.0));

  ASSERT_EQ(seen.size(), 120u * 4u);  // 120 quanta, 2x2 cores
  for (const double v : seen) {
    ASSERT_TRUE(std::isfinite(v));
    ASSERT_GE(v, 0.0);
    ASSERT_LE(v, 0.5);
  }
  const std::uint64_t rejections = rejected.value() - before;
  EXPECT_GT(rejections, seen.size() / 10);
  EXPECT_LT(rejections, seen.size() * 35 / 100);
  const auto s = sim.summary();
  EXPECT_TRUE(std::isfinite(s.guardband_fraction));
  EXPECT_TRUE(std::isfinite(s.availability));
  EXPECT_TRUE(std::isfinite(s.energy_joules));
  EXPECT_GE(s.guardband_fraction, 0.0);
}

/// A hot 3x3 chip (fig12's power and package) on a PDN of 0.1 um wide
/// segments at 1-day quanta: from the first quantum the drop exceeds VDD
/// and the current density the check's bound, and within days EM opens
/// every segment around the centre tile while its core runs.
SystemParams overloaded_mesh() {
  SystemParams p;
  p.rows = 3;
  p.cols = 3;
  p.quantum = hours(24.0);
  p.workload.utilization = 0.8;
  p.core.dynamic_power_peak = Watts{2.2};
  p.thermal.ambient = Celsius{55.0};
  p.thermal.vertical_g_w_per_k = 0.07;
  p.pdn.segment_wire.width = Meters{0.1e-6};
  return p;
}

TEST(SystemSim, OverloadedMeshCountsEachInvariantViolation) {
  const auto counter = [](const char* name) -> const obs::Counter& {
    return obs::registry().counter(
        std::string("sim.invariant_violations.") + name);
  };
  const obs::Counter& drop = counter("ir_drop");
  const obs::Counter& unpowered = counter("unpowered_core");
  const obs::Counter& density = counter("current_density");
  const std::uint64_t before[] = {drop.value(), unpowered.value(),
                                  density.value()};

  SystemSimulator sim{overloaded_mesh(), make_no_recovery_policy()};
  constexpr std::size_t kQuanta = 10;
  for (std::size_t q = 0; q < kQuanta; ++q) sim.step();
  const InvariantViolations v = sim.summary().invariant_violations;
  EXPECT_GT(v.ir_drop, 0u);
  EXPECT_GT(v.unpowered_core, 0u);
  EXPECT_GT(v.current_density, 0u);
  EXPECT_LE(v.ir_drop, kQuanta);
  EXPECT_LE(v.unpowered_core, kQuanta);
  EXPECT_LE(v.current_density, kQuanta);
  EXPECT_EQ(drop.value() - before[0], v.ir_drop);
  EXPECT_EQ(unpowered.value() - before[1], v.unpowered_core);
  EXPECT_EQ(density.value() - before[2], v.current_density);
}

TEST(SystemSim, WidePdnHasNoInvariantViolations) {
  SystemParams p;
  p.rows = 3;
  p.cols = 3;
  p.pdn.segment_wire.width = Meters{50e-6};
  SystemSimulator sim{p, make_no_recovery_policy()};
  sim.run(days(10.0));
  const InvariantViolations v = sim.summary().invariant_violations;
  EXPECT_EQ(v.ir_drop, 0u);
  EXPECT_EQ(v.unpowered_core, 0u);
  EXPECT_EQ(v.current_density, 0u);
}

TEST(SystemSim, NonFiniteTemperatureThrowsANamedError) {
  // A NaN ambient leaves every power finite (leakage saturates), so the
  // first non-finite value is the solved tile temperature.
  SystemParams p = small_system();
  p.thermal.ambient = Celsius{std::numeric_limits<double>::quiet_NaN()};
  SystemSimulator sim{p, make_no_recovery_policy()};
  try {
    sim.step();
    FAIL() << "a NaN temperature was carried on";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("non-finite temperature at tile 0"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace dh::sched
