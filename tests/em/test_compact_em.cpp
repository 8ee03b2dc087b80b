#include "em/compact_em.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "em/em_sensor.hpp"
#include "em/korhonen.hpp"
#include "support/test_support.hpp"

namespace dh::em {
namespace {

CompactEm make_compact() {
  return CompactEm{CompactEmParams{.wire = paper_wire(),
                                   .material =
                                       paper_calibrated_em_material()}};
}

TEST(CompactEm, FreshState) {
  const CompactEm m = make_compact();
  EXPECT_DOUBLE_EQ(m.end_stress().value(), 0.0);
  EXPECT_FALSE(m.void_open());
  EXPECT_FALSE(m.broken());
}

TEST(CompactEm, NucleationNearPde) {
  CompactEm m = make_compact();
  const auto j = paper_em_conditions::stress_density();
  const auto t = paper_em_conditions::chamber();
  double t_nuc = -1.0;
  for (int minute = 0; minute < 1200 && t_nuc < 0.0; minute += 5) {
    m.step(j, t, minutes(5.0));
    if (m.void_open()) t_nuc = minute + 5;
  }
  ASSERT_GT(t_nuc, 0.0);
  const double analytic = in_minutes(CompactEm::analytic_nucleation_time(
      paper_calibrated_em_material(), paper_wire(), j, t));
  EXPECT_NEAR(t_nuc, analytic, 0.3 * analytic);
}

TEST(CompactEm, StressFollowsCurrentSign) {
  CompactEm fwd = make_compact();
  CompactEm rev = make_compact();
  fwd.step(paper_em_conditions::stress_density(),
           paper_em_conditions::chamber(), hours(2.0));
  rev.step(paper_em_conditions::reverse_density(),
           paper_em_conditions::chamber(), hours(2.0));
  EXPECT_GT(fwd.end_stress().value(), 0.0);
  EXPECT_NEAR(rev.end_stress().value(), -fwd.end_stress().value(),
              1e-9 * fwd.end_stress().value());
}

TEST(CompactEm, VoidGrowsThenHeals) {
  CompactEm m = make_compact();
  const auto t = paper_em_conditions::chamber();
  m.step(paper_em_conditions::stress_density(), t, minutes(500.0));
  ASSERT_TRUE(m.void_open());
  const double grown = m.void_length().value();
  ASSERT_GT(grown, 0.0);
  m.step(paper_em_conditions::reverse_density(), t, minutes(300.0));
  EXPECT_LT(m.void_length().value(), grown);
}

TEST(CompactEm, ImmobilizedResidueSurvivesHealing) {
  CompactEm m = make_compact();
  const auto t = paper_em_conditions::chamber();
  m.step(paper_em_conditions::stress_density(), t, minutes(550.0));
  m.step(paper_em_conditions::reverse_density(), t, minutes(700.0));
  EXPECT_FALSE(m.void_open());
  EXPECT_GT(m.fixed_void_length().value(), 0.0);
}

TEST(CompactEm, ResistanceTracksVoid) {
  CompactEm m = make_compact();
  const auto t = paper_em_conditions::chamber();
  const double r0 = m.resistance(t).value();
  m.step(paper_em_conditions::stress_density(), t, minutes(700.0));
  EXPECT_GT(m.resistance(t).value(), r0);
}

TEST(CompactEm, BreaksUnderSustainedStress) {
  CompactEm m = make_compact();
  const auto t = paper_em_conditions::chamber();
  for (int h = 0; h < 80 && !m.broken(); ++h) {
    m.step(paper_em_conditions::stress_density(), t, hours(1.0));
  }
  EXPECT_TRUE(m.broken());
  EXPECT_TRUE(std::isinf(m.resistance(t).value()));  // open circuit
}

TEST(CompactEm, ResetRestoresFresh) {
  CompactEm m = make_compact();
  m.step(paper_em_conditions::stress_density(),
         paper_em_conditions::chamber(), hours(8.0));
  m.reset();
  EXPECT_DOUBLE_EQ(m.end_stress().value(), 0.0);
  EXPECT_FALSE(m.void_open());
  EXPECT_DOUBLE_EQ(m.void_length().value(), 0.0);
}

TEST(CompactEm, SaturatesBelowCriticalAtLowCurrent) {
  // Well below the reference density the pool bank saturates before the
  // critical stress: approximate Blech immortality.
  CompactEm m = make_compact();
  const auto t = paper_em_conditions::chamber();
  for (int d = 0; d < 60; ++d) {
    m.step(mega_amps_per_cm2(1.5), t, days(1.0));
  }
  EXPECT_FALSE(m.void_open());
}

TEST(CompactEm, InvalidTauRejected) {
  CompactEmParams p;
  p.wire = paper_wire();
  p.material = paper_calibrated_em_material();
  p.j_ref = AmpsPerM2{0.0};  // makes the derived tau undefined
  EXPECT_THROW(CompactEm{p}, Error);
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Expects every observable of `a` and `b` to have the same bits.
void expect_same_state(const CompactEm& a, const CompactEm& b) {
  EXPECT_EQ(bits(a.end_stress().value()), bits(b.end_stress().value()));
  EXPECT_EQ(bits(a.void_length().value()), bits(b.void_length().value()));
  EXPECT_EQ(bits(a.fixed_void_length().value()),
            bits(b.fixed_void_length().value()));
  EXPECT_EQ(a.void_open(), b.void_open());
  EXPECT_EQ(a.broken(), b.broken());
}

TEST(CompactEm, RejectsNonFiniteInputs) {
  // An infinite dt turned an open void's lengths into inf/NaN, a NaN
  // current left the pools NaN (and the wire silently immortal), and an
  // infinite temperature gave kappa = 0. Each must throw, naming the
  // input, and leave the wire as it was.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const AmpsPerM2 j = paper_em_conditions::stress_density();
  const Celsius t = paper_em_conditions::chamber();
  CompactEm m = make_compact();
  m.step(j, t, minutes(500.0));
  ASSERT_TRUE(m.void_open());
  const CompactEm before = m;
  struct Bad {
    AmpsPerM2 j;
    Celsius t;
    Seconds dt;
    const char* names;
  };
  for (const Bad& bad : {Bad{j, t, Seconds{inf}, "time step"},
                         Bad{j, t, Seconds{nan}, "time step"},
                         Bad{AmpsPerM2{nan}, t, hours(1.0), "current density"},
                         Bad{AmpsPerM2{-inf}, t, hours(1.0), "current density"},
                         Bad{j, Celsius{inf}, hours(1.0), "temperature"},
                         Bad{j, Celsius{nan}, hours(1.0), "temperature"}}) {
    try {
      m.step(bad.j, bad.t, bad.dt);
      ADD_FAILURE() << "accepted j=" << bad.j.value() << " T=" << bad.t.value()
                    << " dt=" << bad.dt.value();
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(bad.names), std::string::npos)
          << e.what();
    }
    expect_same_state(m, before);
  }
}

/// The compact model's step as a direct formula, recomputing every
/// temperature and dt factor on each call: the reference the memoized
/// CompactEm::step must reproduce bit for bit.
class OracleEm {
 public:
  explicit OracleEm(const CompactEmParams& p) : p_(p) {
    const double tau_mid =
        CompactEm::analytic_nucleation_time(p_.material, p_.wire, p_.j_ref,
                                            p_.t_ref)
            .value();
    kappa_ref_ = p_.material.kappa(to_kelvin(p_.t_ref));
    taus_ = {tau_mid / p_.tau_spread, tau_mid, tau_mid * p_.tau_spread};
    for (std::size_t k = 0; k < 3; ++k) {
      gains_[k] =
          2.0 * p_.kernel_gain * std::sqrt(taus_[k] / std::numbers::pi);
    }
  }

  void step(AmpsPerM2 j, Celsius temperature, Seconds dt) {
    if (dt.value() == 0.0 || broken) return;
    const Kelvin t = to_kelvin(temperature);
    const double kappa = p_.material.kappa(t);
    const double rho = p_.wire.resistivity_at(t);
    const double g = p_.material.driving_force(rho, j);
    const double speedup = kappa / kappa_ref_;
    for (std::size_t k = 0; k < 3; ++k) {
      const double target =
          void_open ? 0.0 : g * std::sqrt(kappa) * gains_[k];
      const double tau = taus_[k] / std::max(speedup, 1e-12);
      pools_[k] =
          target + (pools_[k] - target) * std::exp(-dt.value() / tau);
    }
    if (!void_open) {
      const double stress = pools_[0] + pools_[1] + pools_[2];
      if (std::abs(stress) >= p_.material.critical_stress.value()) {
        void_open = true;
        polarity_ = stress > 0.0 ? 1 : -1;
        if (mobile_ <= 0.0) mobile_ = 0.5e-9;
      }
    }
    if (void_open) {
      const double v = test::drift_velocity(p_.material, t, rho, j);
      const double rate = static_cast<double>(polarity_) * v;
      mobile_ += rate * (rate > 0.0 ? p_.material.slit_efficiency : 1.0) *
                 dt.value();
      const double fix = p_.material.fix_rate(t);
      const double converted = mobile_ * (1.0 - std::exp(-fix * dt.value()));
      if (converted > 0.0) {
        mobile_ -= converted;
        fixed_ += converted;
      }
      if (mobile_ <= 0.0) {
        mobile_ = 0.0;
        void_open = false;
        polarity_ = 0;
      }
      if (mobile_ + fixed_ >= p_.material.break_void_length.value()) {
        broken = true;
      }
    }
  }

  void expect_matches(const CompactEm& m) const {
    EXPECT_EQ(bits(m.end_stress().value()),
              bits(pools_[0] + pools_[1] + pools_[2]));
    EXPECT_EQ(bits(m.void_length().value()), bits(mobile_ + fixed_));
    EXPECT_EQ(bits(m.fixed_void_length().value()), bits(fixed_));
    EXPECT_EQ(m.void_open(), void_open);
    EXPECT_EQ(m.broken(), broken);
  }

  bool void_open = false;
  bool broken = false;

 private:
  CompactEmParams p_;
  std::array<double, 3> taus_{}, gains_{}, pools_{};
  double kappa_ref_ = 0.0;
  int polarity_ = 0;
  double mobile_ = 0.0, fixed_ = 0.0;
};

TEST(CompactEm, MemoizedStepMatchesUnmemoizedOracle) {
  const CompactEmParams p{.wire = paper_wire(),
                          .material = paper_calibrated_em_material()};
  CompactEm m{p};
  OracleEm oracle{p};
  const AmpsPerM2 fwd = paper_em_conditions::stress_density();
  const AmpsPerM2 rev = paper_em_conditions::reverse_density();
  const Celsius hot = paper_em_conditions::chamber();
  bool saw_open = false, saw_reclosed = false;
  int steps = 0;
  const auto step = [&](AmpsPerM2 j, Celsius t, Seconds dt) {
    m.step(j, t, dt);
    oracle.step(j, t, dt);
    oracle.expect_matches(m);
    saw_open = saw_open || oracle.void_open;
    saw_reclosed = saw_reclosed || (saw_open && !oracle.void_open);
    ++steps;
  };
  // One condition repeated, with a second j on the same (T, dt).
  for (int i = 0; i < 3; ++i) step(fwd, hot, minutes(60.0));
  step(mega_amps_per_cm2(3.0), hot, minutes(60.0));
  // The 60:15 recovery cycle: two conditions in alternation, both slots.
  for (int i = 0; i < 8; ++i) {
    step(fwd, hot, minutes(60.0));
    step(rev, hot, minutes(15.0));
  }
  ASSERT_TRUE(oracle.void_open) << "the void must open under the cycle";
  // A third condition evicts a slot; then same T with a new dt, same dt
  // with a new T, and back to the evicted condition.
  step(fwd, Celsius{250.0}, minutes(60.0));
  step(fwd, hot, minutes(30.0));
  step(rev, Celsius{210.0}, minutes(60.0));
  step(fwd, hot, minutes(60.0));
  step(rev, hot, minutes(15.0));
  // A step that throws (below absolute zero) must not leave its key
  // behind: the same condition throws again, and valid steps still match.
  for (int i = 0; i < 2; ++i) {
    EXPECT_THROW(m.step(fwd, Celsius{-300.0}, minutes(60.0)), Error);
    EXPECT_THROW(oracle.step(fwd, Celsius{-300.0}, minutes(60.0)), Error);
    oracle.expect_matches(m);
  }
  step(fwd, hot, minutes(60.0));
  step(rev, hot, minutes(15.0));
  // Reverse current heals the void shut; forward current then reopens it
  // and grows it until the wire breaks.
  for (int i = 0; i < 40 && oracle.void_open; ++i) {
    step(rev, hot, minutes(60.0));
  }
  ASSERT_TRUE(saw_reclosed) << "the void must heal shut";
  for (int i = 0; i < 400 && !oracle.broken; ++i) {
    step(fwd, hot, minutes(60.0));
    step(rev, hot, minutes(15.0));
  }
  EXPECT_TRUE(oracle.broken);
  EXPECT_GT(steps, 40);
}

TEST(CompactEm, RejectionNamesFirstBadInputAndKeepsMemo) {
  // step(j, T, dt) tests all three inputs at once inline; a failure must
  // still name the first bad one (current density, then temperature, then
  // time step), leave the wire as it was, and keep both memo slots valid.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const CompactEmParams p{.wire = paper_wire(),
                          .material = paper_calibrated_em_material()};
  CompactEm m{p};
  OracleEm oracle{p};
  const AmpsPerM2 fwd = paper_em_conditions::stress_density();
  const AmpsPerM2 rev = paper_em_conditions::reverse_density();
  const Celsius hot = paper_em_conditions::chamber();
  bool forward = true;
  const auto valid_step = [&] {
    const AmpsPerM2 j = forward ? fwd : rev;
    const Seconds dt = forward ? minutes(60.0) : minutes(15.0);
    m.step(j, hot, dt);
    oracle.step(j, hot, dt);
    oracle.expect_matches(m);
    forward = !forward;
  };
  for (int i = 0; i < 100 && !m.void_open(); ++i) valid_step();
  ASSERT_TRUE(m.void_open());
  const std::array<const char*, 3> names = {"current density", "temperature",
                                            "time step"};
  struct Bad {
    AmpsPerM2 j;
    Celsius t;
    Seconds dt;
    std::size_t first;  // index into names
  };
  for (const Bad& bad :
       {Bad{AmpsPerM2{nan}, hot, Seconds{inf}, 0},
        Bad{AmpsPerM2{inf}, Celsius{nan}, Seconds{-1.0}, 0},
        Bad{AmpsPerM2{-inf}, Celsius{inf}, Seconds{nan}, 0},
        Bad{AmpsPerM2{nan}, hot, Seconds{0.0}, 0},
        Bad{fwd, Celsius{inf}, Seconds{nan}, 1},
        Bad{rev, Celsius{-inf}, Seconds{-inf}, 1},
        Bad{fwd, Celsius{nan}, Seconds{0.0}, 1},
        Bad{fwd, hot, Seconds{-inf}, 2},
        Bad{rev, Celsius{-300.0}, Seconds{nan}, 2},
        Bad{fwd, hot, Seconds{-1.0}, 2}}) {
    const CompactEm before = m;
    try {
      m.step(bad.j, bad.t, bad.dt);
      ADD_FAILURE() << "accepted j=" << bad.j.value() << " T=" << bad.t.value()
                    << " dt=" << bad.dt.value();
    } catch (const Error& e) {
      const std::string what = e.what();
      for (std::size_t k = 0; k < names.size(); ++k) {
        EXPECT_EQ(what.find(names[k]) != std::string::npos, k == bad.first)
            << what;
      }
    }
    expect_same_state(m, before);
    valid_step();
  }
  EXPECT_FALSE(oracle.broken) << "every valid step must have stepped";
}

TEST(CompactEm, SharedPreparedStepMatchesOracle) {
  // A PDN's segments share one prepare per quantum. Four wires with
  // different j take the same coefficients at a temperature that moves
  // every quantum, each checked against its own unmemoized oracle.
  const CompactEmParams p{.wire = paper_wire(),
                          .material = paper_calibrated_em_material()};
  const AmpsPerM2 fwd = paper_em_conditions::stress_density();
  const AmpsPerM2 rev = paper_em_conditions::reverse_density();
  // 0: forward, 1: reverse, 2: below the Blech threshold, 3: opened by
  // forward current, healed shut by reverse, then broken by forward.
  std::vector<CompactEm> wires(4, CompactEm{p});
  std::vector<OracleEm> oracles(4, OracleEm{p});
  enum class Phase { kOpen, kHeal, kBreak } phase = Phase::kOpen;
  const Seconds dt = minutes(30.0);
  bool shared_fix = false, threw = false;
  for (int q = 0; q < 400 && !oracles[3].broken; ++q) {
    const Celsius t{226.0 + (q * 3) % 10};  // never the previous quantum's
    const std::array<AmpsPerM2, 4> j = {
        fwd, rev, mega_amps_per_cm2(1.5), phase == Phase::kHeal ? rev : fwd};
    if (q == 12) {
      // Below 0 K: the prepare throws and no wire moves.
      EXPECT_THROW((void)wires[0].prepare(Kelvin{-1.0}, dt), Error);
      for (std::size_t w = 0; w < wires.size(); ++w) {
        oracles[w].expect_matches(wires[w]);
      }
      threw = true;
    }
    CompactEm::StepCoeffs c = wires[0].prepare(to_kelvin(t), dt);
    for (std::size_t w = 0; w < wires.size(); ++w) {
      // A fix fraction already filled this quantum, read by an open void.
      shared_fix = shared_fix || (c.has_fix && wires[w].void_open());
      wires[w].step(j[w], c);
      oracles[w].step(j[w], t, dt);
      oracles[w].expect_matches(wires[w]);
      ASSERT_FALSE(::testing::Test::HasFailure())
          << "wire " << w << " quantum " << q;
    }
    if (phase == Phase::kOpen && oracles[3].void_open) phase = Phase::kHeal;
    if (phase == Phase::kHeal && !oracles[3].void_open) phase = Phase::kBreak;
  }
  EXPECT_TRUE(threw);
  EXPECT_TRUE(shared_fix);
  EXPECT_EQ(phase, Phase::kBreak);
  EXPECT_TRUE(oracles[3].broken);
  EXPECT_TRUE(oracles[1].void_open || oracles[1].broken);
  EXPECT_FALSE(oracles[2].void_open);
}

}  // namespace
}  // namespace dh::em
