// Determinism regressions for the parallel-execution layer: the EM wire
// population and the SRAM health scan must be bit-identical at 1, 2, and
// 8 threads, and the sparse PDN solve must match a fresh dense solve
// across a full aging run. These carry the ctest label `parallel` so the
// tier-1 line can run them under TSan (-DDH_SANITIZE=thread).
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/math/linalg.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "em/compact_em.hpp"
#include "em/em_sensor.hpp"
#include "pdn/aging_pdn.hpp"
#include "pdn/pdn_grid.hpp"
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

TEST(PdnSolve, MatchesUncachedAcrossAgingRun) {
  // Drive a PDN through an EM-flavoured aging trajectory: slow per-step
  // drift plus occasional jumps (void opening).
  pdn::PdnParams p;
  p.rows = p.cols = 6;
  pdn::PdnGrid grid{p};
  std::vector<double> loads(grid.node_count(), 0.0);
  for (std::size_t i = 0; i < loads.size(); ++i) {
    loads[i] = 0.001 + 0.0005 * static_cast<double>(i % 7);
  }
  auto r = grid.fresh_segment_resistances(Celsius{85.0});
  Rng rng{5};
  for (int step = 0; step < 300; ++step) {
    for (std::size_t s = 0; s < r.size(); ++s) {
      r[s] *= 1.0 + 2e-4 * rng.uniform();  // slow EM drift
    }
    if (step % 97 == 50) r[step % r.size()] *= 1.8;  // void jump
    const auto sparse = grid.solve(loads, r);
    const auto dense = grid.solve_uncached(loads, r);
    ASSERT_EQ(sparse.node_voltage.size(), dense.node_voltage.size());
    for (std::size_t i = 0; i < sparse.node_voltage.size(); ++i) {
      EXPECT_NEAR(sparse.node_voltage[i], dense.node_voltage[i], 1e-10);
    }
    EXPECT_NEAR(sparse.worst_drop_v, dense.worst_drop_v, 1e-10);
  }
  const auto& st = grid.solve_stats();
  EXPECT_EQ(st.solves, 300u);
  EXPECT_EQ(st.factorizations, 300u);
}

TEST(PdnGuards, RejectsInvalidPads) {
  pdn::PdnParams p;
  p.rows = p.cols = 4;
  p.pad_nodes = {999};  // out of range
  EXPECT_THROW(pdn::PdnGrid{p}, Error);
}

TEST(PdnGuards, SingularSystemRaisesDescriptiveError) {
  // A conductance matrix with no path to any pad is exactly singular;
  // the LU pivot check must say so instead of dividing by zero.
  math::Matrix g(3, 3, 0.0);
  g(0, 0) = 1.0;
  g(0, 1) = -1.0;
  g(1, 0) = -1.0;
  g(1, 1) = 1.0;
  g(2, 2) = 1.0;
  const std::vector<double> rhs{0.0, 1.0, 0.0};
  try {
    (void)math::solve_dense(g, rhs);
    FAIL() << "expected dh::Error for singular matrix";
  } catch (const Error& e) {
    EXPECT_NE(std::string{e.what()}.find("singular"), std::string::npos);
    EXPECT_NE(std::string{e.what()}.find("pivot"), std::string::npos);
  }
}

}  // namespace
}  // namespace dh
