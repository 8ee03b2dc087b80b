// The compact BTI model must track the full trap-ensemble model closely
// enough for system-level use (the ablation bench quantifies this in
// detail; these tests pin the qualitative contract).
#include "device/compact_bti.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/arrhenius.hpp"
#include "common/ckpt/serialize.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "device/bti_model.hpp"
#include "device/calibration.hpp"
#include "support/test_support.hpp"

namespace dh::device {
namespace {

TEST(CompactBti, FreshIsZero) {
  CompactBti m{};
  EXPECT_DOUBLE_EQ(m.delta_vth().value(), 0.0);
}

TEST(CompactBti, StressThenRecoverShape) {
  CompactBti m{};
  m.apply(paper_conditions::accelerated_stress(), hours(24.0));
  const double stressed = m.delta_vth().value();
  EXPECT_GT(stressed, 0.02);
  m.apply(paper_conditions::recovery_no4(), hours(6.0));
  const double recovered = (stressed - m.delta_vth().value()) / stressed;
  // Same ballpark as the full model's 72.7%.
  EXPECT_GT(recovered, 0.5);
  EXPECT_LT(recovered, 0.95);
}

TEST(CompactBti, RecoveryConditionOrdering) {
  const auto conditions = {paper_conditions::recovery_no1(),
                           paper_conditions::recovery_no2(),
                           paper_conditions::recovery_no3(),
                           paper_conditions::recovery_no4()};
  double prev_residual = 1e9;
  for (const auto& cond : conditions) {
    CompactBti m{};
    m.apply(paper_conditions::accelerated_stress(), hours(24.0));
    m.apply(cond, hours(6.0));
    EXPECT_LT(m.delta_vth().value(), prev_residual);
    prev_residual = m.delta_vth().value();
  }
}

TEST(CompactBti, BalancedCyclingStaysLow) {
  CompactBti m{};
  double peak = 0.0;
  for (int c = 0; c < 8; ++c) {
    m.apply(paper_conditions::accelerated_stress(), hours(1.0));
    peak = std::max(peak, m.delta_vth().value());
    m.apply(paper_conditions::recovery_no4(), hours(1.0));
  }
  EXPECT_LT(m.delta_vth().value(), 0.35 * peak);
}

TEST(CompactBti, BreakdownSumsToTotal) {
  CompactBti m{};
  m.apply(paper_conditions::accelerated_stress(), hours(12.0));
  const auto b = m.breakdown();
  EXPECT_NEAR(b.total().value(), m.delta_vth().value(), 1e-12);
}

TEST(CompactBti, ResetClears) {
  CompactBti m{};
  m.apply(paper_conditions::accelerated_stress(), hours(12.0));
  m.reset();
  EXPECT_DOUBLE_EQ(m.delta_vth().value(), 0.0);
}

TEST(CompactBti, TracksFullModelUnderNominalAging) {
  // One year at nominal conditions with daily recovery naps: compact and
  // full models should land within a factor-of-two band.
  CompactBti compact{};
  auto full = BtiModel::paper_calibrated();
  const BtiCondition run{Volts{0.9}, Celsius{60.0}};
  const BtiCondition nap{Volts{-0.3}, Celsius{60.0}};
  for (int d = 0; d < 60; ++d) {
    compact.apply(run, hours(22.0));
    compact.apply(nap, hours(2.0));
    full.apply(run, hours(22.0));
    full.apply(nap, hours(2.0));
  }
  const double c = compact.delta_vth().value();
  const double f = full.delta_vth().value();
  EXPECT_GT(c, 0.3 * f);
  EXPECT_LT(c, 3.0 * f);
}

TEST(CompactBti, MuchFasterThanFullModel) {
  // Smoke check of the design goal (no timing assertion, just step count):
  // 10k steps must run without issue.
  CompactBti m{};
  for (int i = 0; i < 10000; ++i) {
    m.apply(paper_conditions::accelerated_stress(), minutes(30.0));
  }
  EXPECT_GT(m.delta_vth().value(), 0.0);
}

TEST(CompactBti, RejectsInvalidParams) {
  CompactBtiParams p;
  p.fast_sat_v = -1.0;
  EXPECT_THROW(CompactBti{p}, Error);
}

TEST(CompactBti, NegativeDtThrows) {
  CompactBti m{};
  EXPECT_THROW(m.apply(paper_conditions::recovery_no1(), Seconds{-5.0}),
               Error);
}

// --- Batched advance -------------------------------------------------------

/// Exact pool state (the checkpoint image), for bit-for-bit comparisons.
std::vector<std::uint8_t> state_bytes(const CompactBti& m) {
  ckpt::Serializer s;
  m.save_state(s);
  return s.take();
}

/// Stress, passive recovery or active recovery, at a random temperature.
BtiCondition random_condition(Rng& rng) {
  const Celsius t{test::uniform(rng, 20.0, 125.0)};
  switch (test::uniform_int(rng, 0, 2)) {
    case 0:
      return {Volts{test::uniform(rng, 0.5, 1.3)}, t};
    case 1:
      return {Volts{0.0}, t};
    default:
      return {Volts{-test::uniform(rng, 0.05, 0.4)}, t};
  }
}

/// From under one precursor substep to a few days.
Seconds random_dt(Rng& rng) {
  return Seconds{std::exp(test::uniform(rng, 0.0, 13.0))};
}

/// The model's update for one device, written out directly without the
/// prepare/advance split: the oracle the batched kernel must reproduce
/// bit for bit.
struct ScalarBti {
  CompactBtiParams p;
  double fast = 0.0, slow = 0.0, pu = 0.0, pl = 0.0;

  static double relax(double x, double target, double tau, double dt) {
    if (tau <= 0.0) return target;
    return target + (x - target) * std::exp(-dt / tau);
  }

  void apply(const BtiCondition& c, Seconds dt) {
    if (dt.value() == 0.0) return;
    const Kelvin t = to_kelvin(c.temperature);
    const double v = c.gate_bias.value();
    if (c.is_stress()) {
      const double accel =
          arrhenius_acceleration(p.kinetics_ea, t,
                                 to_kelvin(p.stress_ref.temperature)) *
          std::exp((v - p.stress_ref.gate_bias.value()) / p.v0);
      const double ratio = std::max(0.1, v / p.stress_ref.gate_bias.value());
      const double sat_scale = ratio * ratio * ratio;
      fast = relax(fast, p.fast_sat_v * sat_scale, p.fast_tau_stress_s / accel,
                   dt.value());
      slow = relax(slow, p.slow_sat_v * sat_scale, p.slow_tau_stress_s / accel,
                   dt.value());
      const double g =
          p.gen_rate_ref_v_per_s *
          arrhenius_acceleration(p.gen_ea, t,
                                 to_kelvin(p.stress_ref.temperature)) *
          std::exp((v - p.stress_ref.gate_bias.value()) / p.gen_v0);
      const int substeps =
          std::max(1, static_cast<int>(std::ceil(dt.value() / 300.0)));
      const double h = dt.value() / substeps;
      for (int s = 0; s < substeps; ++s) {
        const double saturation = std::max(0.0, 1.0 - (pu + pl) / p.p_max_v);
        const double lock_flux = p.k_lock_per_v_s * pu * pu;
        pu += h * (g * saturation - lock_flux);
        pl += h * lock_flux;
        pu = std::max(pu, 0.0);
      }
    } else {
      const double v_ref = -p.recover_ref.gate_bias.value();
      const double accel =
          arrhenius_acceleration(p.kinetics_ea, t,
                                 to_kelvin(p.recover_ref.temperature)) *
          std::exp((std::max(-v, 0.0) - v_ref) / p.v0);
      fast = relax(fast, 0.0, p.fast_tau_recover_s / accel, dt.value());
      slow = relax(slow, 0.0, p.slow_tau_recover_s / accel, dt.value());
      const double anneal = p.anneal_rate_ref_per_s * accel;
      pu *= std::exp(-dt.value() * anneal);
      pl *= std::exp(-dt.value() * anneal * 1e-3);
    }
  }
};

void expect_same_as_oracle(const CompactBti& m, const ScalarBti& o) {
  const BtiBreakdown b = m.breakdown();
  EXPECT_EQ(b.recoverable.value(), o.fast + o.slow);
  EXPECT_EQ(b.unlocked.value(), o.pu);
  EXPECT_EQ(b.locked.value(), o.pl);
}

TEST(CompactBtiBatch, ApplyMatchesScalarOracleBitForBit) {
  Rng rng{7};
  CompactBti m{};
  ScalarBti oracle;
  for (int k = 0; k < 400; ++k) {
    const BtiCondition c = random_condition(rng);
    const Seconds dt = random_dt(rng);
    m.apply(c, dt);
    oracle.apply(c, dt);
    expect_same_as_oracle(m, oracle);
  }
  EXPECT_GT(m.breakdown().locked.value(), 0.0);
}

TEST(CompactBtiBatch, AdvanceMatchesPerDeviceApplyBitForBit) {
  CompactBtiParams hot;  // a second param set: faster, lower-ceiling pools
  hot.fast_tau_stress_s = 120.0;
  hot.gen_rate_ref_v_per_s = 9e-7;
  hot.p_max_v = 0.02;
  Rng rng{2026};
  for (const CompactBtiParams& params : {CompactBtiParams{}, hot}) {
    // One device, one full chunk, a chunk plus a lone device, and many
    // chunks plus a partial one.
    for (const std::size_t n : {1u, 64u, 65u, 1000u}) {
      std::vector<CompactBti> batched(n, CompactBti{params});
      // Distinct random histories, so the lockstep lanes differ.
      for (CompactBti& d : batched) {
        for (int k = 0; k < 3; ++k) d.apply(random_condition(rng), random_dt(rng));
      }
      std::vector<CompactBti> reference = batched;
      std::vector<CompactBti*> devices;
      for (CompactBti& d : batched) devices.push_back(&d);
      for (int round = 0; round < 12; ++round) {
        const BtiCondition c = random_condition(rng);
        const Seconds dt = random_dt(rng);
        CompactBti::advance(CompactBti::prepare(params, c, dt), devices);
        for (CompactBti& d : reference) d.apply(c, dt);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(state_bytes(batched[i]), state_bytes(reference[i]))
              << "n=" << n << " round=" << round << " device=" << i;
        }
      }
      // One step per device: stress, recovery and zero-dt (kNone) lanes
      // mixed, with 1 to 72 precursor substeps, so lanes drop out of the
      // lockstep at different substeps on both sides of a chunk boundary.
      for (int round = 0; round < 12; ++round) {
        std::vector<BtiCondition> conditions;
        std::vector<Seconds> dts;
        std::vector<CompactBtiStep> steps;
        for (std::size_t i = 0; i < n; ++i) {
          conditions.push_back(random_condition(rng));
          const int substeps = test::uniform_int(rng, 1, 72);
          dts.push_back(test::uniform_int(rng, 0, 9) == 0
                            ? Seconds{0.0}
                            : Seconds{300.0 * substeps -
                                      test::uniform(rng, 0.0, 299.0)});
          steps.push_back(CompactBti::prepare(params, conditions[i], dts[i]));
        }
        CompactBti::advance(steps, devices);
        for (std::size_t i = 0; i < n; ++i) {
          reference[i].apply(conditions[i], dts[i]);
          ASSERT_EQ(state_bytes(batched[i]), state_bytes(reference[i]))
              << "per-device steps, n=" << n << " round=" << round
              << " device=" << i << " substeps=" << steps[i].substeps;
        }
      }
    }
  }
}

/// A device holding exactly these pool and precursor values.
CompactBti with_state(double fast, double slow, double pu, double pl) {
  ckpt::Serializer s;
  s.begin_section("CBTI");
  s.write_f64(fast);
  s.write_f64(slow);
  s.write_f64(pu);
  s.write_f64(pl);
  ckpt::Deserializer d{s.take()};
  CompactBti m{};
  m.load_state(d);
  return m;
}

TEST(CompactBtiBatch, SharedStepDuplicateStatesMatchPerDeviceApply) {
  // A shared stress step runs one precursor chain per run of bit-equal
  // states; every device must still end exactly as its own apply.
  CompactBti aged{};
  aged.apply(paper_conditions::accelerated_stress(), hours(30.0));
  aged.apply(paper_conditions::recovery_no4(), hours(2.0));
  CompactBti other = aged;
  other.apply(paper_conditions::accelerated_stress(), hours(3.0));
  // Precursor states that a chain may not merge: one ulp apart in pl (a
  // short chain keeps them apart) and the two zeros of pu.
  const double pl_next = std::nextafter(0.01, 1.0);
  const CompactBti last_bit = with_state(0.0, 0.0, 0.0, pl_next);
  const CompactBti minus_zero = with_state(0.0, 0.0, -0.0, 0.01);
  const CompactBti plus_zero = with_state(0.0, 0.0, 0.0, 0.01);
  {
    CompactBti a = last_bit;
    CompactBti b = plus_zero;
    a.apply(paper_conditions::accelerated_stress(), minutes(7.0));
    b.apply(paper_conditions::accelerated_stress(), minutes(7.0));
    ASSERT_NE(state_bytes(a), state_bytes(b));
  }

  using Batch = std::vector<CompactBti>;
  struct Case {
    std::string name;
    std::function<CompactBti(std::size_t, std::size_t)> device;  // (i, n)
  };
  const std::vector<Case> cases = {
      {"all fresh", [](std::size_t, std::size_t) { return CompactBti{}; }},
      {"all aged", [&](std::size_t, std::size_t) { return aged; }},
      {"two interleaved classes",
       [&](std::size_t i, std::size_t) { return i % 2 ? other : aged; }},
      {"two runs",
       [&](std::size_t i, std::size_t n) { return i < n / 3 ? aged : other; }},
      {"run broken by one device",
       [&](std::size_t i, std::size_t n) { return i == n / 2 ? other : aged; }},
      {"run broken at the end of the first chunk",
       [&](std::size_t i, std::size_t) { return i == 63 ? other : aged; }},
      {"last bit of pl",
       [&](std::size_t i, std::size_t) {
         return i % 3 == 1 ? last_bit : plus_zero;
       }},
      {"-0.0 against +0.0",
       [&](std::size_t i, std::size_t) {
         return i % 2 ? minus_zero : plus_zero;
       }},
      // Distinct lanes that reach both clamps of a substep: pu + pl past
      // p_max (saturation clamps to +0.0), pu past 1/(h k_lock) (~0.116 V
      // for the 7 min round, ~0.081 V for the long ones; pu clamps to 0 in
      // one substep), and ordinary aged lanes between them. A vector max
      // that returned the wrong operand would leave a negative value.
      {"clamped and ordinary lanes",
       [](std::size_t i, std::size_t) {
         const double x = 1e-4 * static_cast<double>(i);
         switch (i % 3) {
           case 0:
             return with_state(0.001, 0.02, 0.01 + x, 0.035 + x);
           case 1:
             return with_state(0.001, 0.02, 0.12 + x, 0.005);
           default:
             return with_state(0.001, 0.01, 0.002 + 0.1 * x, 0.004 + 0.1 * x);
         }
       }},
  };
  const CompactBtiParams params;
  const BtiCondition stress = paper_conditions::accelerated_stress();
  const BtiCondition recover = paper_conditions::recovery_no4();
  for (const Case& c : cases) {
    for (const std::size_t n : {1u, 64u, 65u, 130u}) {
      Batch batched;
      for (std::size_t i = 0; i < n; ++i) batched.push_back(c.device(i, n));
      Batch reference = batched;
      std::vector<CompactBti*> devices;
      for (CompactBti& d : batched) devices.push_back(&d);
      // Stress twice (equal states stay equal), recover, stress again.
      const std::pair<BtiCondition, Seconds> rounds[] = {
          {stress, minutes(7.0)},
          {stress, hours(24.0)},
          {recover, hours(2.4)},
          {stress, hours(21.6)}};
      for (std::size_t r = 0; r < std::size(rounds); ++r) {
        const auto& [condition, dt] = rounds[r];
        CompactBti::advance(CompactBti::prepare(params, condition, dt),
                            devices);
        for (CompactBti& d : reference) d.apply(condition, dt);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(state_bytes(batched[i]), state_bytes(reference[i]))
              << c.name << ": n=" << n << " round=" << r << " device=" << i;
        }
      }
    }
  }
}

TEST(CompactBtiBatch, PerDeviceAdvanceNeedsOneStepPerDevice) {
  std::vector<CompactBti> devices(2);
  std::vector<CompactBti*> ptrs{&devices[0], &devices[1]};
  const std::vector<CompactBtiStep> one{CompactBti::prepare(
      {}, paper_conditions::accelerated_stress(), hours(1.0))};
  EXPECT_THROW(CompactBti::advance(one, ptrs), Error);
}

TEST(CompactBtiBatch, ZeroDtLeavesStateUntouched) {
  std::vector<CompactBti> devices(3);
  for (CompactBti& d : devices) {
    d.apply(paper_conditions::accelerated_stress(), hours(5.0));
  }
  const std::vector<std::uint8_t> before = state_bytes(devices[0]);
  std::vector<CompactBti*> ptrs{&devices[0], &devices[1], &devices[2]};
  for (const BtiCondition& c :
       {paper_conditions::accelerated_stress(),
        paper_conditions::recovery_no1(), paper_conditions::recovery_no4()}) {
    const CompactBtiStep step = CompactBti::prepare({}, c, Seconds{0.0});
    EXPECT_EQ(step.kind, CompactBtiStep::Kind::kNone);
    CompactBti::advance(step, ptrs);
    devices[0].apply(c, Seconds{0.0});
    for (const CompactBti& d : devices) EXPECT_EQ(state_bytes(d), before);
  }
}

TEST(CompactBtiBatch, NegativeDtThrowsFromPrepare) {
  EXPECT_THROW((void)CompactBti::prepare(
                   {}, paper_conditions::accelerated_stress(), Seconds{-1.0}),
               Error);
  EXPECT_THROW(
      (void)CompactBti::prepare({}, paper_conditions::recovery_no2(),
                                Seconds{-1e-9}),
      Error);
}

TEST(CompactBtiBatch, NonFiniteOrHugeDtThrowsFromPrepare) {
  const auto expect_named_error = [](const BtiCondition& c, Seconds dt,
                                     const std::string& phrase) {
    try {
      (void)CompactBti::prepare({}, c, dt);
      ADD_FAILURE() << "dt=" << dt.value() << " was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(phrase), std::string::npos)
          << e.what();
    }
  };
  const double inf = std::numeric_limits<double>::infinity();
  for (const BtiCondition& c : {paper_conditions::accelerated_stress(),
                                paper_conditions::recovery_no2()}) {
    expect_named_error(c, Seconds{inf}, "finite");
    expect_named_error(c, Seconds{std::nan("")}, "finite");
  }
  // 300 s per substep: past ~6.4e11 s the count leaves int's range.
  const BtiCondition stress = paper_conditions::accelerated_stress();
  expect_named_error(stress, Seconds{1e12}, "substeps");
  expect_named_error(stress, Seconds{std::numeric_limits<double>::max()},
                     "substeps");
  const CompactBtiStep longest = CompactBti::prepare({}, stress, Seconds{6e11});
  EXPECT_EQ(longest.substeps, 2000000000);
  // A huge recovery step has no substeps and is fine.
  EXPECT_EQ(CompactBti::prepare({}, paper_conditions::recovery_no2(),
                                Seconds{1e12})
                .kind,
            CompactBtiStep::Kind::kRecover);
}

}  // namespace
}  // namespace dh::device
