#include "thermal/thermal_grid.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "common/error.hpp"

namespace dh::thermal {
namespace {

ThermalGrid make_grid(std::size_t rows = 4, std::size_t cols = 4) {
  ThermalGridParams p;
  p.rows = rows;
  p.cols = cols;
  return ThermalGrid{p};
}

TEST(Thermal, NoPowerMeansAmbient) {
  ThermalGrid g = make_grid();
  g.solve_steady();
  for (std::size_t i = 0; i < g.tile_count(); ++i) {
    EXPECT_NEAR(g.temperature(i).value(), g.params().ambient.value(), 1e-9);
  }
}

TEST(Thermal, EnergyBalanceAtSteadyState) {
  // All injected power must leave through the vertical conductances.
  ThermalGrid g = make_grid();
  g.set_power(g.index(1, 2), Watts{1.5});
  g.set_power(g.index(3, 0), Watts{0.7});
  g.solve_steady();
  double out = 0.0;
  for (std::size_t i = 0; i < g.tile_count(); ++i) {
    out += (g.temperature(i).value() - g.params().ambient.value()) *
           g.params().vertical_g_w_per_k;
  }
  EXPECT_NEAR(out, 2.2, 1e-9);
}

TEST(Thermal, SymmetricPowerGivesSymmetricField) {
  ThermalGrid g = make_grid(3, 3);
  g.set_power(g.index(1, 1), Watts{1.0});  // center
  g.solve_steady();
  const double corner = g.temperature(g.index(0, 0)).value();
  EXPECT_NEAR(g.temperature(g.index(0, 2)).value(), corner, 1e-9);
  EXPECT_NEAR(g.temperature(g.index(2, 0)).value(), corner, 1e-9);
  EXPECT_NEAR(g.temperature(g.index(2, 2)).value(), corner, 1e-9);
  EXPECT_GT(g.temperature(g.index(1, 1)).value(), corner);
}

TEST(Thermal, HeatSpreadsToIdleNeighbour) {
  // The Fig. 12a effect: an idle (zero-power) tile parked next to hot
  // neighbours rides up in temperature — free recovery acceleration.
  ThermalGrid g = make_grid(3, 3);
  for (std::size_t i = 0; i < g.tile_count(); ++i) {
    if (i != g.index(1, 1)) g.set_power(i, Watts{2.0});
  }
  g.solve_steady();
  const double idle_center = g.temperature(g.index(1, 1)).value();
  EXPECT_GT(idle_center, g.params().ambient.value() + 5.0);
}

TEST(Thermal, MaxAndMeanConsistent) {
  ThermalGrid g = make_grid();
  g.set_power(g.index(1, 1), Watts{3.0});
  g.solve_steady();
  EXPECT_GE(g.max_temperature().value(), g.mean_temperature().value());
  EXPECT_GE(g.mean_temperature().value(), g.params().ambient.value());
}

TEST(Thermal, PowerMapValidation) {
  ThermalGrid g = make_grid();
  EXPECT_THROW(g.set_power(999, Watts{1.0}), Error);
  EXPECT_THROW(g.set_power(0, Watts{-1.0}), Error);
  EXPECT_THROW(g.set_power_map(std::vector<double>{1.0}), Error);
  // Non-finite watts would turn every temperature into NaN.
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(g.set_power(0, Watts{bad}), Error) << bad;
    std::vector<double> watts(g.tile_count(), 1.0);
    watts[3] = bad;
    EXPECT_THROW(g.set_power_map(watts), Error) << bad;
  }
}

TEST(Thermal, IndexValidation) {
  const ThermalGrid g = make_grid(2, 3);
  EXPECT_EQ(g.index(1, 2), 5u);
  EXPECT_THROW((void)g.index(2, 0), Error);
}

}  // namespace
}  // namespace dh::thermal
