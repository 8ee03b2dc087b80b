// Banded-vs-dense agreement for the grid solvers.
//
// PdnGrid and ThermalGrid solve on math::BandedSpd; the dense references
// are tests/support's dense_pdn_solve and the explicit dense assembly
// here. These tests randomize grid shapes, pad sets, and
// drift histories and require the engine to agree to <= 1e-10, pin how
// open (EM-broken) segments cut nodes off, and check that a solve depends
// on its arguments only.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/math/linalg.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "pdn/aging_pdn.hpp"
#include "pdn/pdn_grid.hpp"
#include "support/test_support.hpp"
#include "thermal/thermal_grid.hpp"

namespace dh {
namespace {

constexpr double kAgreementTol = 1e-10;

pdn::PdnParams random_pdn_params(Rng& rng) {
  pdn::PdnParams p;
  p.rows = static_cast<std::size_t>(test::uniform_int(rng, 1, 12));
  p.cols = static_cast<std::size_t>(test::uniform_int(rng, 2, 12));
  const std::size_t n = p.rows * p.cols;
  // Random pad set: 1..4 distinct nodes (empty keeps the corner default).
  const std::size_t pad_count = static_cast<std::size_t>(
      test::uniform_int(rng, 1, 4));
  for (std::size_t i = 0; i < pad_count; ++i) {
    p.pad_nodes.push_back(static_cast<std::size_t>(
        test::uniform_int(rng, 0, static_cast<int>(n) - 1)));
  }
  std::sort(p.pad_nodes.begin(), p.pad_nodes.end());
  p.pad_nodes.erase(std::unique(p.pad_nodes.begin(), p.pad_nodes.end()),
                    p.pad_nodes.end());
  return p;
}

double max_abs_diff(std::span<const double> a, std::span<const double> b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(a[i] - b[i]));
  }
  return m;
}

// Three load patterns on one grid with random per-segment resistances,
// through the banded path AND the dense path. Agreement must hold on
// voltages and segment currents.
void expect_grid_matches_dense(pdn::PdnGrid& grid, Rng& rng,
                               const std::string& label) {
  std::vector<double> seg_r = grid.fresh_segment_resistances(Celsius{55.0});
  for (auto& r : seg_r) r *= test::uniform(rng, 0.5, 2.0);
  for (int pattern = 0; pattern < 3; ++pattern) {
    std::vector<double> load(grid.node_count());
    for (auto& v : load) v = test::uniform(rng, 0.0, 0.02);
    const auto sparse = grid.solve(load, seg_r);
    const auto dense = test::dense_pdn_solve(grid, load, seg_r);
    ASSERT_EQ(sparse.node_voltage.size(), dense.node_voltage.size());
    EXPECT_LE(max_abs_diff(sparse.node_voltage, dense.node_voltage),
              kAgreementTol)
        << label;
    EXPECT_LE(max_abs_diff(sparse.segment_current, dense.segment_current),
              kAgreementTol)
        << label;
    EXPECT_NEAR(sparse.worst_drop_v, dense.worst_drop_v, kAgreementTol)
        << label;
  }
}

TEST(SparseAgreement, RandomizedGridsMatchDenseReference) {
  // 12 random shapes and pad sets.
  for (std::uint64_t trial = 0; trial < 12; ++trial) {
    Rng rng = Rng::stream(0x5AB5E, trial);
    const pdn::PdnParams params = random_pdn_params(rng);
    pdn::PdnGrid grid{params};
    expect_grid_matches_dense(grid, rng,
                              std::to_string(params.rows) + "x" +
                                  std::to_string(params.cols) + " trial " +
                                  std::to_string(trial));
  }
}

TEST(SparseAgreement, LargeGridMatchesDense) {
  // 32x32 (n = 1024) and 17x32 meshes with the default corner pads: the
  // banded factor of a wide mesh must agree with dense LU as well as the
  // small random shapes do, with one factorization per solve.
  for (const std::size_t rows : {std::size_t{32}, std::size_t{17}}) {
    Rng rng = Rng::stream(0x1A26E, rows);
    pdn::PdnParams params;
    params.rows = rows;
    params.cols = 32;
    pdn::PdnGrid grid{params};
    expect_grid_matches_dense(grid, rng, std::to_string(rows) + "x32");
    EXPECT_EQ(grid.solve_stats().solves, 3u);
    EXPECT_EQ(grid.solve_stats().factorizations, 3u);
  }
}

TEST(SparseAgreement, DriftSequenceStaysWithinToleranceOfDense) {
  // Walk resistances upward (EM-style drift) through 60 steps. Every
  // intermediate solve must agree with the dense reference, and every one
  // factors afresh.
  Rng rng{2027};
  pdn::PdnParams params;
  params.rows = 9;
  params.cols = 7;
  pdn::PdnGrid grid{params};
  std::vector<double> seg_r = grid.fresh_segment_resistances(Celsius{45.0});
  std::vector<double> load(grid.node_count());
  for (auto& v : load) v = test::uniform(rng, 0.0, 0.015);

  for (int step = 0; step < 60; ++step) {
    for (auto& r : seg_r) r *= 1.0 + test::uniform(rng, 0.0, 0.01);
    const auto sparse = grid.solve(load, seg_r);
    const auto dense = test::dense_pdn_solve(grid, load, seg_r);
    ASSERT_LE(max_abs_diff(sparse.node_voltage, dense.node_voltage),
              kAgreementTol)
        << "diverged at drift step " << step;
  }
  const auto& st = grid.solve_stats();
  EXPECT_EQ(st.solves, 60u);
  EXPECT_EQ(st.factorizations, st.solves);
}

TEST(SparseAgreement, OpenSegmentsCutNodesOffExactly) {
  // +inf segments are open circuits. Three cuts of a 6x6 mesh with
  // corner pads: one interior node, a 2x2 island whose inner segments
  // still conduct, and every pad segment (all 32 non-pad nodes then form
  // one island). Unpowered nodes read exactly 0 V, open and island
  // segments carry exactly 0 A, and the pads supply exactly the powered
  // nodes' loads.
  pdn::PdnParams params;
  params.rows = params.cols = 6;
  pdn::PdnGrid grid{params};
  std::vector<std::size_t> non_pads;
  for (std::size_t i = 0; i < grid.node_count(); ++i) {
    if (i != 0 && i != 5 && i != 30 && i != 35) non_pads.push_back(i);
  }
  const std::pair<std::string, std::vector<std::size_t>> cuts[] = {
      {"interior node", {7}},
      {"2x2 island", {14, 15, 20, 21}},
      {"all pad segments", non_pads},
  };
  Rng rng = Rng::stream(0x0BE4, 1);
  for (const auto& [name, cut_off] : cuts) {
    std::vector<bool> unpowered(grid.node_count(), false);
    for (const std::size_t i : cut_off) unpowered[i] = true;
    std::vector<double> seg_r = grid.fresh_segment_resistances(Celsius{85.0});
    for (auto& r : seg_r) r *= test::uniform(rng, 1.0, 1.5);
    // Light enough that every powered node stays above 0 V.
    std::vector<double> load(grid.node_count());
    for (auto& v : load) v = test::uniform(rng, 0.0, 0.002);
    std::vector<bool> open(grid.segment_count(), false);
    for (std::size_t s = 0; s < grid.segment_count(); ++s) {
      const auto [a, b] = grid.segment(s);
      open[s] = unpowered[a] != unpowered[b];
      if (open[s]) seg_r[s] = std::numeric_limits<double>::infinity();
    }

    const auto sparse = grid.solve(load, seg_r);
    const auto dense = test::dense_pdn_solve(grid, load, seg_r);
    EXPECT_LE(max_abs_diff(sparse.node_voltage, dense.node_voltage),
              kAgreementTol)
        << name;
    EXPECT_LE(max_abs_diff(sparse.segment_current, dense.segment_current),
              kAgreementTol)
        << name;

    double delivered = 0.0;
    for (std::size_t i = 0; i < grid.node_count(); ++i) {
      EXPECT_EQ(grid.powered(i), !unpowered[i]) << name << " node " << i;
      if (unpowered[i]) {
        EXPECT_EQ(sparse.node_voltage[i], 0.0) << name << " node " << i;
      } else {
        EXPECT_GT(sparse.node_voltage[i], 0.0) << name << " node " << i;
        delivered += load[i];
      }
    }
    for (std::size_t s = 0; s < grid.segment_count(); ++s) {
      if (open[s] || unpowered[grid.segment(s).a]) {
        EXPECT_EQ(sparse.segment_current[s], 0.0)
            << name << " segment " << s;
      }
    }
    double supplied = 0.0;
    for (const std::size_t p : grid.pads()) {
      supplied += (params.vdd.value() - sparse.node_voltage[p]) /
                  params.pad_resistance.value();
    }
    EXPECT_NEAR(supplied, delivered, 1e-12) << name;
    EXPECT_EQ(sparse.worst_drop_v, params.vdd.value()) << name;
  }
}

TEST(SparseAgreement, ReusedGridWorkspaceMatchesFreshAssembly) {
  // One grid object solves fresh, aged and aged-with-open-segment
  // resistance vectors in turn, the last at ~1 A per node. Every solve
  // must equal a fresh grid's bit for bit. Mid-sequence, each kind of
  // non-positive resistance must throw a named error, an isolated node
  // must solve to 0 V, and the solve after each must still be exact: the
  // factor and workspace the grid reuses carry nothing over.
  pdn::PdnParams params;
  params.rows = params.cols = 6;
  pdn::PdnGrid grid{params};
  Rng rng = Rng::stream(0xB20E, 82);
  const std::vector<double> fresh =
      grid.fresh_segment_resistances(Celsius{85.0});
  const double inf = std::numeric_limits<double>::infinity();
  for (int k = 0; k < 30; ++k) {
    const int kind = k % 3;  // 0 fresh, 1 aged, 2 aged with open segments
    std::vector<double> seg_r = fresh;
    if (kind > 0) {
      for (auto& r : seg_r) r *= test::uniform(rng, 1.0, 1.5);
    }
    std::vector<double> load(grid.node_count());
    for (auto& v : load) {
      v = kind == 2 ? test::uniform(rng, 0.2, 1.5)
                    : test::uniform(rng, 0.0, 0.02);
    }
    if (kind == 2) {
      const int broken =
          test::uniform_int(rng, 1, static_cast<int>(seg_r.size()) - 1);
      for (int b = 0; b < broken; ++b) {
        seg_r[static_cast<std::size_t>(test::uniform_int(rng, 
            0, static_cast<int>(seg_r.size()) - 1))] = inf;
      }
    }
    if (k == 10) {
      for (const double r :
           {std::numeric_limits<double>::quiet_NaN(), -inf, 0.0, -54.0}) {
        std::vector<double> bad = seg_r;
        bad[7] = r;
        try {
          (void)grid.solve(load, bad);
          ADD_FAILURE() << "resistance " << r << " was accepted";
        } catch (const Error& e) {
          EXPECT_NE(std::string{e.what()}.find("must be positive"),
                    std::string::npos)
              << e.what();
        }
      }
    }
    if (k == 20) {
      // Interior node 7 = (1, 1) cut off: unpowered, so exactly 0 V.
      std::vector<double> cut = seg_r;
      for (std::size_t s = 0; s < grid.segment_count(); ++s) {
        if (grid.segment(s).a == 7 || grid.segment(s).b == 7) cut[s] = inf;
      }
      const auto isolated = grid.solve(load, cut);
      EXPECT_EQ(isolated.node_voltage[7], 0.0);
      EXPECT_GE(isolated.worst_drop_v, params.vdd.value());
      EXPECT_EQ(isolated.node_voltage,
                pdn::PdnGrid{params}.solve(load, cut).node_voltage);
    }
    const auto got = grid.solve(load, seg_r);
    const auto want = pdn::PdnGrid{params}.solve(load, seg_r);
    EXPECT_EQ(got.node_voltage, want.node_voltage) << "solve " << k;
    EXPECT_EQ(got.segment_current, want.segment_current) << "solve " << k;
    const auto dense = test::dense_pdn_solve(grid, load, seg_r);
    double scale = 1.0;
    for (const double v : dense.node_voltage) {
      scale = std::max(scale, std::abs(v));
    }
    EXPECT_LE(max_abs_diff(got.node_voltage, dense.node_voltage),
              kAgreementTol * scale)
        << "solve " << k;
  }
}

TEST(SparseAgreement, SolveDependsOnlyOnItsArguments) {
  // A grid that has solved before must answer exactly like a fresh one:
  // nothing from an earlier solve (no stale factor) may leak into the
  // next. r2 is a small EM-style drift of r1.
  pdn::PdnParams params;
  params.rows = params.cols = 6;
  Rng rng{77};
  pdn::PdnGrid used{params};
  std::vector<double> r1 = used.fresh_segment_resistances(Celsius{85.0});
  std::vector<double> load(used.node_count());
  for (auto& v : load) v = test::uniform(rng, 0.0, 0.02);
  std::vector<double> r2 = r1;
  for (auto& r : r2) r *= 1.0 + test::uniform(rng, 0.0, 1e-3);

  (void)used.solve(load, r1);
  const auto again = used.solve(load, r2);
  pdn::PdnGrid fresh{params};
  const auto want = fresh.solve(load, r2);
  EXPECT_EQ(again.node_voltage, want.node_voltage);
  EXPECT_EQ(again.segment_current, want.segment_current);
  EXPECT_EQ(again.worst_drop_v, want.worst_drop_v);
}

TEST(SparseAgreement, SingularPadlessGridRaisesDescriptiveError) {
  // A grid whose pad list resolves to nothing reachable is floating:
  // the conductance matrix is singular and the engine must say so.
  pdn::PdnParams params;
  params.rows = 4;
  params.cols = 4;
  params.pad_resistance = Ohms{1e30};  // effectively disconnected pads
  pdn::PdnGrid grid{params};
  const auto seg_r = grid.fresh_segment_resistances(Celsius{25.0});
  std::vector<double> load(grid.node_count(), 1e-3);
  try {
    // A 1e30 pad may still factor in double precision; if it does the
    // result must at least be finite.
    const auto sol = grid.solve(load, seg_r);
    for (const double v : sol.node_voltage) EXPECT_TRUE(std::isfinite(v));
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_TRUE(what.find("singular") != std::string::npos ||
                what.find("pivot") != std::string::npos)
        << what;
  }
}

TEST(SparseAgreement, ThermalSteadyMatchesDenseAssembly) {
  // Band 0 (1x1), band 1 (one row) and band 9 (a 10x9 mesh).
  for (const auto& [rows, cols] :
       {std::pair<std::size_t, std::size_t>{1, 1}, {1, 9}, {10, 9}}) {
    thermal::ThermalGridParams params;
    params.rows = rows;
    params.cols = cols;
    thermal::ThermalGrid grid{params};
    Rng rng{99};
    std::vector<double> watts(grid.tile_count());
    for (auto& v : watts) v = test::uniform(rng, 0.0, 2.5);
    grid.set_power_map(watts);
    grid.solve_steady();

    // Dense reference assembled from the same stencil definition.
    const std::size_t n = grid.tile_count();
    math::Matrix g(n, n, 0.0);
    const double g_lat =
        params.k_silicon_w_per_mk * params.die_thickness.value();
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        const std::size_t i = r * cols + c;
        g(i, i) += params.vertical_g_w_per_k;
        for (const std::size_t j :
             {r + 1 < rows ? i + cols : i, c + 1 < cols ? i + 1 : i}) {
          if (j == i) continue;
          g(i, i) += g_lat;
          g(j, j) += g_lat;
          g(i, j) -= g_lat;
          g(j, i) -= g_lat;
        }
      }
    }
    const auto rise_ref = math::solve_dense(g, watts);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(grid.temperature(i).value(),
                  params.ambient.value() + rise_ref[i], kAgreementTol)
          << rows << "x" << cols << " tile " << i;
    }
  }
}

TEST(SparseAgreement, ParallelPopulationSweepIsDeterministic) {
  // Per-instance solver state under the thread pool: each task owns its
  // grid (PdnGrid::solve is non-reentrant per instance), seeded from the
  // task index. Exercises the engine under TSan and checks determinism
  // against a serial replay.
  constexpr std::size_t kPopulation = 24;
  const auto worst_drop = [](std::size_t i) {
    Rng rng = Rng::stream(0xD21F7, i);
    pdn::PdnParams params;
    params.rows = 6 + i % 5;
    params.cols = 5 + i % 7;
    pdn::PdnGrid grid{params};
    auto seg_r = grid.fresh_segment_resistances(Celsius{50.0});
    std::vector<double> load(grid.node_count());
    for (auto& v : load) v = test::uniform(rng, 0.0, 0.02);
    double worst = 0.0;
    for (int step = 0; step < 8; ++step) {
      for (auto& r : seg_r) r *= 1.0 + test::uniform(rng, 0.0, 0.02);
      worst = std::max(worst, grid.solve(load, seg_r).worst_drop_v);
    }
    return worst;
  };
  const std::vector<double> parallel = parallel_map(kPopulation, worst_drop);
  for (std::size_t i = 0; i < kPopulation; ++i) {
    EXPECT_EQ(parallel[i], worst_drop(i)) << "instance " << i;
  }
}

TEST(SparseAgreement, ParallelThermalSweepSharesNothing) {
  constexpr std::size_t kPopulation = 16;
  // Each task owns its grid and re-solves it under a drifting power map,
  // so any state shared between instances would show up as a mismatch
  // against the serial replay.
  const auto peak = [](std::size_t i) {
    thermal::ThermalGridParams params;
    params.rows = 4 + i % 4;
    params.cols = 4 + i % 3;
    thermal::ThermalGrid grid{params};
    Rng stream = Rng::stream(0x7E4A, i);
    std::vector<double> watts(grid.tile_count());
    double hottest = 0.0;
    for (int s = 0; s < 6; ++s) {
      for (auto& v : watts) v = test::uniform(stream, 0.0, 1.5);
      grid.set_power_map(watts);
      grid.solve_steady();
      hottest = std::max(hottest, grid.max_temperature().value());
    }
    return hottest;
  };
  const auto parallel = parallel_map(kPopulation, peak);
  for (std::size_t i = 0; i < kPopulation; ++i) {
    EXPECT_EQ(parallel[i], peak(i)) << "instance " << i;
  }
}

TEST(SparseAgreement, AgingPdnReportsSolverCounters) {
  pdn::PdnParams params;
  params.rows = 6;
  params.cols = 6;
  pdn::AgingPdn aging{params, em::EmMaterialParams{}};
  std::vector<double> load(aging.grid().node_count(), 5e-3);
  for (int i = 0; i < 5; ++i) {
    aging.step(load, Celsius{95.0}, Seconds{3600.0});
  }
  const auto st = aging.stats();
  EXPECT_GE(st.solver_factorizations, 1u);
  EXPECT_EQ(st.solver_factorizations, aging.grid().solve_stats().factorizations);
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
      r[s] *= 1.0 + 2e-4 * test::uniform(rng);  // slow EM drift
    }
    if (step % 97 == 50) r[step % r.size()] *= 1.8;  // void jump
    const auto sparse = grid.solve(loads, r);
    const auto dense = test::dense_pdn_solve(grid, loads, r);
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

}  // namespace
}  // namespace dh
