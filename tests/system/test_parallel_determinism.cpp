// Determinism regressions for the parallel-execution layer: the EM wire
// population and the SRAM health scan must be bit-identical at 1, 2, and
// 8 threads. These carry the ctest label `parallel` so the tier-1 line
// can run them under TSan (-DDH_SANITIZE=thread).
#include <gtest/gtest.h>

#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "em/compact_em.hpp"
#include "em/em_sensor.hpp"
#include "sram/sram_array.hpp"

namespace dh {
namespace {

// Scaled-down bench/em_population_ttf member: TTF of wire i with process
// spread drawn from the index-derived stream.
double em_ttf_member(std::size_t i, bool recovery) {
  using namespace dh::em;
  Rng r = Rng::stream(2026, i);
  EmMaterialParams m = paper_calibrated_em_material();
  m.d0_m2_per_s *= r.lognormal(0.0, 0.25);
  m.critical_stress =
      Pascals{m.critical_stress.value() * r.lognormal(0.0, 0.10)};
  CompactEm em{CompactEmParams{.wire = paper_wire(), .material = m}};
  const Celsius t = paper_em_conditions::chamber();
  double elapsed = 0.0;
  const double horizon = hours(400.0).value();
  while (!em.broken() && elapsed < horizon) {
    em.step(paper_em_conditions::stress_density(), t, minutes(60.0));
    elapsed += minutes(60.0).value();
    if (recovery && !em.broken()) {
      em.step(paper_em_conditions::reverse_density(), t, minutes(15.0));
      elapsed += minutes(15.0).value();
    }
  }
  return em.broken() ? elapsed : horizon;
}

class ParallelDeterminism : public ::testing::Test {
 protected:
  void TearDown() override { set_global_thread_count(0); }
};

TEST_F(ParallelDeterminism, EmPopulationBitIdenticalAcrossThreadCounts) {
  constexpr std::size_t kWires = 32;
  std::vector<std::vector<double>> runs;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    set_global_thread_count(threads);
    runs.push_back(parallel_map(
        kWires, [](std::size_t i) { return em_ttf_member(i, false); }));
  }
  EXPECT_EQ(runs[0], runs[1]);
  EXPECT_EQ(runs[0], runs[2]);
  // Sanity: the population is not degenerate (process spread worked).
  double lo = runs[0][0], hi = runs[0][0];
  for (const double x : runs[0]) {
    lo = std::min(lo, x);
    hi = std::max(hi, x);
  }
  EXPECT_LT(lo, hi);
}

TEST_F(ParallelDeterminism, SramScanBitIdenticalAcrossThreadCounts) {
  std::vector<sram::SramArrayHealth> scans;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    set_global_thread_count(threads);
    sram::SramArrayParams p;
    p.cells = 48;
    sram::SramArray array{p};
    // Age the array (stepping is serial; the scan fans out).
    for (int q = 0; q < 4; ++q) {
      array.step(Celsius{85.0}, hours(500.0), q % 2 == 0 ? 0.0 : 0.2);
    }
    scans.push_back(array.scan_health());
  }
  for (std::size_t i = 1; i < scans.size(); ++i) {
    EXPECT_EQ(scans[0].worst_snm.value(), scans[i].worst_snm.value());
    EXPECT_EQ(scans[0].mean_snm.value(), scans[i].mean_snm.value());
    EXPECT_EQ(scans[0].worst_pmos_dvth.value(),
              scans[i].worst_pmos_dvth.value());
  }
}

}  // namespace
}  // namespace dh
