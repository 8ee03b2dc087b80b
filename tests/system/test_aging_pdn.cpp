#include "pdn/aging_pdn.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "em/material.hpp"

namespace dh::pdn {
namespace {

/// A small, deliberately hot/overloaded PDN so EM shows up in test time.
AgingPdn make_hot_pdn() {
  PdnParams p;
  p.rows = 4;
  p.cols = 4;
  return AgingPdn{p, em::paper_calibrated_em_material()};
}

std::vector<double> heavy_loads(const AgingPdn& pdn, double amps) {
  return std::vector<double>(pdn.grid().node_count(), amps);
}

TEST(AgingPdn, FreshGridHasNoVoids) {
  AgingPdn pdn = make_hot_pdn();
  pdn.step(heavy_loads(pdn, 0.0), Celsius{105.0}, hours(1.0));
  const auto st = pdn.stats();
  EXPECT_EQ(st.nucleated_segments, 0u);
  EXPECT_EQ(st.broken_segments, 0u);
  EXPECT_FALSE(pdn.failed());
}

TEST(AgingPdn, LightLoadIsBlechImmortal) {
  AgingPdn pdn = make_hot_pdn();
  pdn.step(heavy_loads(pdn, 0.001), Celsius{85.0}, hours(1.0));
  const auto st = pdn.stats();
  // Low current density: everything under the Blech threshold.
  EXPECT_GT(st.immortal_segments, pdn.grid().segment_count() / 2);
}

TEST(AgingPdn, SustainedOverloadNucleatesVoids) {
  AgingPdn pdn = make_hot_pdn();
  const auto loads = heavy_loads(pdn, 0.08);
  // Run hot and hard, long enough to pass nucleation on the worst
  // segments (accelerated conditions, like the paper's oven tests).
  for (int step = 0; step < 40; ++step) {
    pdn.step(loads, Celsius{230.0}, hours(1.0));
    if (pdn.stats().nucleated_segments > 0) break;
  }
  EXPECT_GT(pdn.stats().nucleated_segments, 0u);
  EXPECT_GT(pdn.stats().max_void_len_m, 0.0);
}

TEST(AgingPdn, EmRecoveryModeHealsVoids) {
  AgingPdn stressed = make_hot_pdn();
  AgingPdn recovered = make_hot_pdn();
  // Moderate load: the pad-adjacent segments nucleate within a few hours
  // at 230 C but nothing breaks within the test window.
  const auto loads = heavy_loads(stressed, 0.004);
  for (int step = 0; step < 4; ++step) {
    stressed.step(loads, Celsius{230.0}, hours(1.0));
    recovered.step(loads, Celsius{230.0}, hours(1.0));
  }
  ASSERT_GT(recovered.stats().nucleated_segments, 0u);
  ASSERT_EQ(recovered.stats().broken_segments, 0u);
  const double before = recovered.stats().max_void_len_m;
  ASSERT_GT(before, 0.0);
  // Continue: one keeps stressing, the other enters EM recovery mode.
  for (int step = 0; step < 3; ++step) {
    stressed.step(loads, Celsius{230.0}, hours(1.0), false);
    recovered.step(loads, Celsius{230.0}, hours(1.0), true);
  }
  EXPECT_LT(recovered.stats().max_void_len_m, before);
  EXPECT_LT(recovered.stats().max_void_len_m,
            stressed.stats().max_void_len_m);
}

TEST(AgingPdn, WorstDropGrowsAsGridAges) {
  // Voids widen the drop while every node is still powered. Then the 8
  // pad-adjacent segments break, which cuts the 12 non-pad nodes off the
  // pads: they read exactly 0 V, a full-VDD drop.
  AgingPdn pdn = make_hot_pdn();
  const auto loads = heavy_loads(pdn, 0.08);
  pdn.step(loads, Celsius{230.0}, hours(1.0));
  const double drop_fresh = pdn.stats().worst_drop_v;
  pdn.step(loads, Celsius{230.0}, hours(1.0));
  for (const double v : pdn.last_solution().node_voltage) EXPECT_NE(v, 0.0);
  EXPECT_GT(pdn.stats().worst_drop_v, drop_fresh);

  for (int step = 0; step < 45; ++step) {
    pdn.step(loads, Celsius{230.0}, hours(1.0));
  }
  const auto& pads = pdn.grid().pads();
  std::size_t unpowered = 0;
  for (std::size_t i = 0; i < pdn.grid().node_count(); ++i) {
    if (std::find(pads.begin(), pads.end(), i) != pads.end()) continue;
    EXPECT_EQ(pdn.last_solution().node_voltage[i], 0.0) << "node " << i;
    ++unpowered;
  }
  EXPECT_EQ(unpowered, 12u);
  EXPECT_EQ(pdn.stats().worst_drop_v, pdn.grid().params().vdd.value());
  EXPECT_TRUE(pdn.failed());
}

TEST(AgingPdn, FailureFlagOnExcessiveDrop) {
  AgingPdn pdn = make_hot_pdn();
  // Crush the grid with current so the IR-drop test trips even fresh.
  pdn.step(heavy_loads(pdn, 0.6), Celsius{105.0}, hours(1.0));
  EXPECT_TRUE(pdn.failed(0.05));
}

TEST(AgingPdn, ElapsedAccumulates) {
  AgingPdn pdn = make_hot_pdn();
  pdn.step(heavy_loads(pdn, 0.0), Celsius{85.0}, hours(2.0));
  pdn.step(heavy_loads(pdn, 0.0), Celsius{85.0}, hours(3.0));
  EXPECT_NEAR(pdn.elapsed().value() / 3600.0, 5.0, 1e-9);
}

}  // namespace
}  // namespace dh::pdn
