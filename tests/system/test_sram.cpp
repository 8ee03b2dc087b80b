#include "sram/sram_array.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "common/math/interp.hpp"
#include "common/rng.hpp"

namespace dh::sram {
namespace {

SramCell make_cell() { return SramCell{SramCellParams{}}; }

// The SNM search with the VTC inverted afresh at every probe, the direct
// form of the algorithm: snm_from_vtcs, which inverts once per lobe, must
// reproduce it bit for bit.
double oracle_invert_decreasing(const std::vector<double>& xs,
                                const std::vector<double>& fs,
                                double target) {
  std::vector<double> f_rev(fs.rbegin(), fs.rend());
  std::vector<double> x_rev(xs.rbegin(), xs.rend());
  for (std::size_t i = 1; i < f_rev.size(); ++i) {
    if (f_rev[i] <= f_rev[i - 1]) f_rev[i] = f_rev[i - 1] + 1e-12;
  }
  return math::interp_linear(f_rev, x_rev, target);
}

double oracle_lobe_square(const std::vector<double>& vin,
                          const std::vector<double>& f_a,
                          const std::vector<double>& f_b) {
  const double vmax = vin.back();
  auto fits = [&](double s) {
    for (int k = 0; k <= 160; ++k) {
      const double x = (vmax - s) * k / 160.0;
      const double top = math::interp_linear(vin, f_a, x + s);
      const double bottom = oracle_invert_decreasing(vin, f_b, x);
      if (top - bottom >= s) return true;
    }
    return false;
  };
  double lo = 0.0;
  double hi = vmax;
  if (!fits(1e-6)) return 0.0;
  for (int iter = 0; iter < 40; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (fits(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

double oracle_snm(const std::vector<double>& vin,
                  const std::vector<double>& vtc1,
                  const std::vector<double>& vtc2) {
  return std::min(oracle_lobe_square(vin, vtc1, vtc2),
                  oracle_lobe_square(vin, vtc2, vtc1));
}

TEST(SramSnm, MatchesPerProbeInversionOracle) {
  const SramCellParams p;
  const auto vin = math::linspace(0.0, p.vdd.value(), 41);
  const double shifts[][2] = {
      {0.0, 0.0}, {0.03, 0.0}, {0.0, 0.045}, {0.061, 0.008}, {0.02, 0.02}};
  for (const auto& dv : shifts) {
    const auto f1 = inverter_vtc(p, Volts{dv[0]}, Volts{0.0}, vin);
    const auto f2 = inverter_vtc(p, Volts{dv[1]}, Volts{0.0}, vin);
    EXPECT_EQ(snm_from_vtcs(vin, f1, f2), oracle_snm(vin, f1, f2))
        << "dvth " << dv[0] << " / " << dv[1];
  }
  // Flat stretches exercise the strictly-increasing repair of the table:
  // random decreasing staircases on eighths, which the dyadic probes of
  // the bisection hit exactly.
  const auto grid = math::linspace(0.0, 1.0, 41);
  Rng rng{5};
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> a(grid.size());
    std::vector<double> b(grid.size());
    int level_a = 8;
    int level_b = 8;
    for (std::size_t i = 0; i < grid.size(); ++i) {
      if (rng.bernoulli(0.3)) level_a = std::max(0, level_a - 1);
      if (rng.bernoulli(0.3)) level_b = std::max(0, level_b - 1);
      a[i] = level_a / 8.0;
      b[i] = level_b / 8.0;
    }
    EXPECT_EQ(snm_from_vtcs(grid, a, b), oracle_snm(grid, a, b))
        << "trial " << trial;
  }
}

TEST(SramSnm, InverterVtcFallsMonotonically) {
  // The sweep's warm starts follow one branch: each VTC starts near vdd,
  // ends near 0 V and never rises, from a leaky to a badly aged pull-up.
  const SramCellParams p;
  const auto vin = math::linspace(0.0, p.vdd.value(), 41);
  for (const double dvth : {-0.1, 0.0, 0.06, 0.3}) {
    const auto vtc = inverter_vtc(p, Volts{dvth}, Volts{0.0}, vin);
    ASSERT_EQ(vtc.size(), vin.size());
    EXPECT_GT(vtc.front(), 0.95 * p.vdd.value()) << "dvth " << dvth;
    EXPECT_LT(vtc.back(), 0.05 * p.vdd.value()) << "dvth " << dvth;
    for (std::size_t i = 1; i < vtc.size(); ++i) {
      EXPECT_LE(vtc[i], vtc[i - 1]) << "dvth " << dvth << " point " << i;
    }
  }
}

TEST(SramSnm, FreshCellInPhysicalRange) {
  const SramCell cell = make_cell();
  const double snm = cell.fresh_snm().value();
  // A healthy 6T cell at 0.9 V: SNM of a few hundred mV, below VDD/2.
  EXPECT_GT(snm, 0.15);
  EXPECT_LT(snm, 0.45);
}

TEST(SramSnm, IdealStepInvertersGiveHalfVdd) {
  // Analytic sanity check of the largest-square algorithm.
  const auto vin = math::linspace(0.0, 1.0, 101);
  std::vector<double> step;
  for (const double v : vin) step.push_back(v < 0.5 ? 1.0 : 0.0);
  EXPECT_NEAR(snm_from_vtcs(vin, step, step), 0.5, 0.02);
}

TEST(SramSnm, SymmetricShiftBarelyMoves) {
  // Equal Vth shifts on both pull-ups shift both VTCs together: the
  // butterfly stays symmetric and the SNM moves only mildly.
  const SramCellParams p;
  const auto vin = math::linspace(0.0, p.vdd.value(), 41);
  const auto fresh = inverter_vtc(p, Volts{0.0}, Volts{0.0}, vin);
  const auto aged = inverter_vtc(p, Volts{0.03}, Volts{0.0}, vin);
  const double snm_fresh = snm_from_vtcs(vin, fresh, fresh);
  const double snm_sym = snm_from_vtcs(vin, aged, aged);
  const double snm_asym = snm_from_vtcs(vin, aged, fresh);
  EXPECT_LT(std::abs(snm_sym - snm_fresh), 0.02);
  // Asymmetric aging is the killer.
  EXPECT_LT(snm_asym, snm_sym);
}

TEST(SramCellAging, StaticDataStressesOneSide) {
  SramCell cell = make_cell();
  for (int d = 0; d < 30; ++d) {
    cell.step(CellMode::kHold, true, Celsius{95.0}, hours(24.0));
  }
  EXPECT_GT(cell.left_pmos_dvth().value(),
            20.0 * (cell.right_pmos_dvth().value() + 1e-9));
}

TEST(SramCellAging, AgingReducesSnm) {
  SramCell cell = make_cell();
  const double fresh = cell.fresh_snm().value();
  for (int d = 0; d < 60; ++d) {
    cell.step(CellMode::kHold, true, Celsius{95.0}, hours(24.0));
  }
  EXPECT_LT(cell.hold_snm().value(), fresh - 0.005);
}

TEST(SramCellAging, RecoveryBoostRestoresSnm) {
  SramCell cell = make_cell();
  for (int d = 0; d < 60; ++d) {
    cell.step(CellMode::kHold, true, Celsius{95.0}, hours(24.0));
  }
  const double aged = cell.hold_snm().value();
  for (int d = 0; d < 10; ++d) {
    cell.step(CellMode::kRecoveryBoost, true, Celsius{95.0}, hours(24.0));
  }
  EXPECT_GT(cell.hold_snm().value(), aged);
}

TEST(SramArrayAging, FlippingDataBalancesStress) {
  SramArrayParams flip;
  flip.cells = 16;
  flip.pattern = DataPattern::kFlipping;
  SramArrayParams fixed = flip;
  fixed.pattern = DataPattern::kStatic;
  SramArray balanced{flip};
  SramArray skewed{fixed};
  for (int d = 0; d < 40; ++d) {
    balanced.step(Celsius{95.0}, hours(24.0));
    skewed.step(Celsius{95.0}, hours(24.0));
  }
  // Static data concentrates all stress on one side of each cell.
  EXPECT_LT(balanced.worst_cell_health().worst_snm.value() * -1.0,
            0.0);  // well-defined
  EXPECT_GT(balanced.worst_cell_health().worst_snm.value(),
            skewed.worst_cell_health().worst_snm.value());
}

TEST(SramArrayAging, BoostScheduleBeatsFlipping) {
  SramArrayParams p;
  p.cells = 16;
  p.pattern = DataPattern::kStatic;
  SramArray boosted{p};
  SramArray unprotected{p};
  for (int d = 0; d < 40; ++d) {
    boosted.step(Celsius{95.0}, hours(24.0), /*boost_fraction=*/0.15);
    unprotected.step(Celsius{95.0}, hours(24.0), 0.0);
  }
  EXPECT_GT(boosted.worst_cell_health().worst_snm.value(),
            unprotected.worst_cell_health().worst_snm.value());
  EXPECT_LT(boosted.worst_cell_health().worst_pmos_dvth.value(),
            unprotected.worst_cell_health().worst_pmos_dvth.value());
}

TEST(SramArrayAging, StepMatchesPerCellReferenceBitForBit) {
  // SramArray::step advances its devices in batches; it must equal a plain
  // loop of SramCell::step over the same data stream, bit for bit.
  struct Strategy {
    DataPattern pattern;
    double boost_fraction;
  };
  const Strategy strategies[] = {{DataPattern::kStatic, 0.0},
                                 {DataPattern::kFlipping, 0.0},
                                 {DataPattern::kStatic, 0.10},
                                 {DataPattern::kFlipping, 0.10}};
  const Celsius temp{95.0};
  for (const Strategy& s : strategies) {
    SramArrayParams p;
    p.cells = 64;
    p.pattern = s.pattern;
    p.seed = 11;
    SramArray array{p};
    // The reference replays the array's data stream on loose cells.
    Rng rng{p.seed};
    std::vector<SramCell> cells(p.cells, SramCell{p.cell});
    std::vector<bool> bits;
    for (std::size_t i = 0; i < p.cells; ++i) {
      bits.push_back(rng.bernoulli(p.p_one));
    }
    const Seconds dt = hours(24.0);
    const Seconds hold{dt.value() * (1.0 - s.boost_fraction)};
    const Seconds boost{dt.value() * s.boost_fraction};
    for (int day = 0; day < 30; ++day) {
      array.step(temp, dt, s.boost_fraction);
      if (p.pattern == DataPattern::kFlipping) {
        for (std::size_t i = 0; i < p.cells; ++i) {
          bits[i] = rng.bernoulli(p.p_one);
        }
      }
      for (std::size_t i = 0; i < p.cells; ++i) {
        if (hold.value() > 0.0) {
          cells[i].step(CellMode::kHold, bits[i], temp, hold);
        }
        if (boost.value() > 0.0) {
          cells[i].step(CellMode::kRecoveryBoost, bits[i], temp, boost);
        }
      }
      for (std::size_t i = 0; i < p.cells; ++i) {
        ASSERT_EQ(array.cell(i).left_pmos_dvth().value(),
                  cells[i].left_pmos_dvth().value())
            << "day " << day << " cell " << i;
        ASSERT_EQ(array.cell(i).right_pmos_dvth().value(),
                  cells[i].right_pmos_dvth().value())
            << "day " << day << " cell " << i;
      }
    }
  }
}

TEST(SramArrayAging, ScanAndProxyAgree) {
  SramArrayParams p;
  p.cells = 8;
  SramArray arr{p};
  for (int d = 0; d < 20; ++d) arr.step(Celsius{95.0}, hours(24.0));
  const auto full = arr.scan_health();
  const auto proxy = arr.worst_cell_health();
  EXPECT_NEAR(full.worst_snm.value(), proxy.worst_snm.value(), 0.01);
  EXPECT_GE(full.mean_snm.value(), full.worst_snm.value());
}

TEST(SramArray, Validation) {
  SramArrayParams p;
  p.cells = 0;
  EXPECT_THROW(SramArray{p}, Error);
  p = SramArrayParams{};
  p.p_one = 1.5;
  EXPECT_THROW(SramArray{p}, Error);
  SramArray ok{SramArrayParams{}};
  EXPECT_THROW(ok.step(Celsius{95.0}, hours(1.0), 1.5), Error);
  EXPECT_THROW((void)ok.cell(9999), Error);

  // A rejected step draws no data and ages nothing: a flipping array that
  // saw only rejected steps stays equal to an untouched twin, also after
  // both take the same valid day.
  p = SramArrayParams{};
  p.cells = 8;
  p.pattern = DataPattern::kFlipping;
  SramArray rejected{p};
  SramArray twin{p};
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double boost : {0.0, 0.1, 1.0}) {
    EXPECT_THROW(rejected.step(Celsius{95.0}, hours(-24.0), boost), Error);
    EXPECT_THROW(rejected.step(Celsius{95.0}, Seconds{nan}, boost), Error);
    EXPECT_THROW(rejected.step(Celsius{95.0}, Seconds{inf}, boost), Error);
    if (boost < 1.0) {  // the hold needs more substeps than an int holds
      EXPECT_THROW(rejected.step(Celsius{95.0}, Seconds{1e300}, boost),
                   Error);
    }
    EXPECT_THROW(rejected.step(Celsius{nan}, hours(24.0), boost), Error);
    EXPECT_THROW(rejected.step(Celsius{inf}, hours(24.0), boost), Error);
  }
  const auto expect_same = [&](const char* when) {
    for (std::size_t i = 0; i < p.cells; ++i) {
      EXPECT_EQ(rejected.cell(i).left_pmos_dvth().value(),
                twin.cell(i).left_pmos_dvth().value())
          << when << " cell " << i;
      EXPECT_EQ(rejected.cell(i).right_pmos_dvth().value(),
                twin.cell(i).right_pmos_dvth().value())
          << when << " cell " << i;
    }
  };
  expect_same("after the rejected steps");
  rejected.step(Celsius{95.0}, hours(24.0));
  twin.step(Celsius{95.0}, hours(24.0));
  expect_same("after one valid day");
}

}  // namespace
}  // namespace dh::sram
