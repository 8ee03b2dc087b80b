#include "support/test_support.hpp"

#include <cmath>

#include "common/constants.hpp"
#include "common/error.hpp"

namespace dh::test {

pdn::PdnSolution dense_pdn_solve(const pdn::PdnGrid& grid,
                                 std::span<const double> load_amps,
                                 std::span<const double> segment_resistance) {
  const pdn::PdnParams& p = grid.params();
  const std::size_t n = grid.node_count();
  DH_REQUIRE(load_amps.size() == n &&
                 segment_resistance.size() == grid.segment_count(),
             "dense_pdn_solve: input sizes do not match the grid");
  // The same system as PdnGrid::solve: finite segments between powered
  // nodes, pad conductances, and a unit diagonal with zero RHS pinning
  // each unpowered node to 0 V.
  math::Matrix g(n, n, 0.0);
  for (std::size_t s = 0; s < grid.segment_count(); ++s) {
    const auto [a, b] = grid.segment(s);
    if (!grid.powered(a) || std::isinf(segment_resistance[s])) continue;
    const double cond = 1.0 / segment_resistance[s];
    g(a, a) += cond;
    g(b, b) += cond;
    g(a, b) -= cond;
    g(b, a) -= cond;
  }
  const double g_pad = 1.0 / p.pad_resistance.value();
  std::vector<double> rhs(n, 0.0);
  for (const std::size_t pad : grid.pads()) {
    g(pad, pad) += g_pad;
    rhs[pad] += g_pad * p.vdd.value();
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (!grid.powered(i)) g(i, i) += 1.0;
    rhs[i] = grid.powered(i) ? rhs[i] - load_amps[i] : 0.0;
  }

  pdn::PdnSolution sol;
  sol.node_voltage = math::solve_dense(g, rhs);
  sol.segment_current.resize(grid.segment_count());
  for (std::size_t s = 0; s < grid.segment_count(); ++s) {
    const auto [a, b] = grid.segment(s);
    sol.segment_current[s] =
        (sol.node_voltage[a] - sol.node_voltage[b]) / segment_resistance[s];
  }
  for (std::size_t i = 0; i < n; ++i) {
    const double drop = p.vdd.value() - sol.node_voltage[i];
    if (drop > sol.worst_drop_v) {
      sol.worst_drop_v = drop;
      sol.worst_node = i;
    }
  }
  return sol;
}

std::vector<double> multiply(const math::Matrix& a,
                             std::span<const double> x) {
  DH_REQUIRE(x.size() == a.cols(), "matrix-vector dimension mismatch");
  std::vector<double> y(a.rows(), 0.0);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    double acc = 0.0;
    for (std::size_t c = 0; c < a.cols(); ++c) acc += a(r, c) * x[c];
    y[r] = acc;
  }
  return y;
}

double drift_velocity(const em::EmMaterialParams& m, Kelvin t,
                      double resistivity_ohm_m, AmpsPerM2 j) {
  const double kt_j = constants::kBoltzmannJ * t.value();
  return m.diffusivity(t) * constants::kElementaryCharge * m.z_eff *
         resistivity_ohm_m * j.value() / kt_j;
}

}  // namespace dh::test
