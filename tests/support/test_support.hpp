// Test-only oracles and helpers shared by the test binaries (library
// dh_test_support). Nothing in src/, bench/ or examples/ links it: code
// that only tests need lives here, not in the program.
#pragma once

#include <random>
#include <span>
#include <vector>

#include "common/math/linalg.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "em/material.hpp"
#include "pdn/pdn_grid.hpp"

namespace dh::test {

/// Dense reference for PdnGrid::solve: assembles the conductance system
/// from the grid's segments, pads and parameters with dense LU
/// (math::solve_dense). It reads the powered set from grid.powered(), so
/// call it after grid.solve() on the same arguments.
[[nodiscard]] pdn::PdnSolution dense_pdn_solve(
    const pdn::PdnGrid& grid, std::span<const double> load_amps,
    std::span<const double> segment_resistance);

/// y = A x.
[[nodiscard]] std::vector<double> multiply(const math::Matrix& a,
                                           std::span<const double> x);

/// Drift velocity of a void surface under pure electron wind (m/s):
/// D(T) e Z rho j / kT, the formula CompactEm::prepare and step inline.
[[nodiscard]] double drift_velocity(const em::EmMaterialParams& m, Kelvin t,
                                    double resistivity_ohm_m, AmpsPerM2 j);

/// Random test inputs drawn from an Rng's engine.
/// Uniform double in [lo, hi).
[[nodiscard]] inline double uniform(Rng& rng, double lo = 0.0,
                                    double hi = 1.0) {
  return std::uniform_real_distribution<double>{lo, hi}(rng.engine());
}
/// Uniform integer in [lo, hi] inclusive.
[[nodiscard]] inline int uniform_int(Rng& rng, int lo, int hi) {
  return std::uniform_int_distribution<int>{lo, hi}(rng.engine());
}

}  // namespace dh::test
