#include "pdn/pdn_grid.hpp"

#include <utility>

#include "common/ckpt/serialize.hpp"
#include "common/error.hpp"
#include "common/math/sparse/spd_solver.hpp"
#include "common/obs/metrics.hpp"
#include "common/obs/profile.hpp"

namespace dh::pdn {

namespace {

// Registry view of the solver's work, aggregated across every PdnGrid
// instance in the process (per-instance numbers stay available via
// PdnGrid::solve_stats).
struct PdnMetrics {
  obs::Counter& solves = obs::registry().counter("pdn.solve.calls");
  obs::Counter& factorizations =
      obs::registry().counter("pdn.solve.factorizations");
  obs::Counter& cg_iterations =
      obs::registry().counter("pdn.solve.cg_iterations");
};

PdnMetrics& pdn_metrics() {
  static PdnMetrics* m = new PdnMetrics();
  return *m;
}

}  // namespace

PdnGrid::PdnGrid(PdnParams params) : params_(std::move(params)) {
  DH_REQUIRE(params_.rows >= 2 && params_.cols >= 2,
             "PDN grid needs at least 2x2 nodes");
  DH_REQUIRE(params_.vdd.value() > 0.0, "PDN VDD must be positive");
  DH_REQUIRE(params_.pad_resistance.value() > 0.0,
             "pad resistance must be positive");
  for (std::size_t r = 0; r < params_.rows; ++r) {
    for (std::size_t c = 0; c < params_.cols; ++c) {
      const std::size_t i = r * params_.cols + c;
      if (c + 1 < params_.cols) segments_.push_back({i, i + 1});
      if (r + 1 < params_.rows) segments_.push_back({i, i + params_.cols});
    }
  }
  if (params_.pad_nodes.empty()) {
    pads_ = {node_index(0, 0), node_index(0, params_.cols - 1),
             node_index(params_.rows - 1, 0),
             node_index(params_.rows - 1, params_.cols - 1)};
  } else {
    pads_ = params_.pad_nodes;
    for (const std::size_t p : pads_) {
      DH_REQUIRE(p < node_count(), "pad node out of range");
    }
  }
  // Without at least one pad the conductance matrix has no path to VDD
  // and is exactly singular — fail here with a clear message instead of
  // letting the LU solver hit a zero pivot mid-simulation.
  DH_REQUIRE(!pads_.empty(), "PDN needs at least one pad node");
}

std::size_t PdnGrid::node_index(std::size_t row, std::size_t col) const {
  DH_REQUIRE(row < params_.rows && col < params_.cols,
             "node coordinates out of range");
  return row * params_.cols + col;
}

const PdnGrid::Segment& PdnGrid::segment(std::size_t i) const {
  DH_REQUIRE(i < segments_.size(), "segment index out of range");
  return segments_[i];
}

std::vector<double> PdnGrid::fresh_segment_resistances(Celsius t) const {
  const double r = params_.segment_wire.resistance_at(to_kelvin(t)).value();
  return std::vector<double>(segments_.size(), r);
}

math::Matrix PdnGrid::assemble_conductance(
    std::span<const double> segment_resistance) const {
  const std::size_t n = node_count();
  math::Matrix g(n, n, 0.0);
  for (std::size_t s = 0; s < segments_.size(); ++s) {
    const double cond = 1.0 / segment_resistance[s];
    const auto [a, b] = segments_[s];
    g(a, a) += cond;
    g(b, b) += cond;
    g(a, b) -= cond;
    g(b, a) -= cond;
  }
  const double g_pad = 1.0 / params_.pad_resistance.value();
  for (const std::size_t p : pads_) {
    g(p, p) += g_pad;
  }
  return g;
}

std::vector<double> PdnGrid::assemble_rhs(
    std::span<const double> load_amps) const {
  const std::size_t n = node_count();
  std::vector<double> rhs(n, 0.0);
  const double g_pad = 1.0 / params_.pad_resistance.value();
  for (const std::size_t p : pads_) {
    rhs[p] += g_pad * params_.vdd.value();
  }
  for (std::size_t i = 0; i < n; ++i) rhs[i] -= load_amps[i];
  return rhs;
}

math::sparse::CsrMatrix PdnGrid::assemble_conductance_csr(
    std::span<const double> segment_resistance) const {
  // 5-point stencil: diagonal + up to 4 mesh neighbours per node.
  math::sparse::CsrBuilder builder(node_count(), node_count(), 5);
  for (std::size_t s = 0; s < segments_.size(); ++s) {
    builder.add_edge(segments_[s].a, segments_[s].b,
                     1.0 / segment_resistance[s]);
  }
  const double g_pad = 1.0 / params_.pad_resistance.value();
  for (const std::size_t p : pads_) builder.add_diagonal(p, g_pad);
  return builder.build();
}

void PdnGrid::check_inputs(std::span<const double> load_amps,
                           std::span<const double> segment_resistance) const {
  DH_REQUIRE(load_amps.size() == node_count(), "load vector size mismatch");
  DH_REQUIRE(segment_resistance.size() == segments_.size(),
             "segment resistance vector size mismatch");
  for (const double r : segment_resistance) {
    DH_REQUIRE(r > 0.0, "segment resistance must be positive");
  }
}

PdnSolution PdnGrid::finish_solution(
    std::vector<double> node_voltage,
    std::span<const double> segment_resistance) const {
  PdnSolution sol;
  sol.node_voltage = std::move(node_voltage);
  sol.segment_current.resize(segments_.size());
  for (std::size_t s = 0; s < segments_.size(); ++s) {
    const auto [a, b] = segments_[s];
    sol.segment_current[s] =
        (sol.node_voltage[a] - sol.node_voltage[b]) / segment_resistance[s];
  }
  sol.worst_drop_v = 0.0;
  for (std::size_t i = 0; i < sol.node_voltage.size(); ++i) {
    const double drop = params_.vdd.value() - sol.node_voltage[i];
    if (drop > sol.worst_drop_v) {
      sol.worst_drop_v = drop;
      sol.worst_node = i;
    }
  }
  return sol;
}

PdnSolution PdnGrid::solve(std::span<const double> load_amps,
                           std::span<const double> segment_resistance) const {
  check_inputs(load_amps, segment_resistance);
  ++solve_stats_.solves;
  pdn_metrics().solves.add();

  const math::sparse::SpdSolver solver = [&] {
    DH_PROF_SCOPE("pdn.refactorize");
    return math::sparse::SpdSolver{
        assemble_conductance_csr(segment_resistance)};
  }();
  ++solve_stats_.factorizations;
  pdn_metrics().factorizations.add();

  math::sparse::SpdSolveInfo info;
  std::vector<double> v = solver.solve(assemble_rhs(load_amps), &info);
  solve_stats_.cg_iterations += info.cg_iterations;
  pdn_metrics().cg_iterations.add(info.cg_iterations);
  return finish_solution(std::move(v), segment_resistance);
}

PdnSolution PdnGrid::solve_uncached(
    std::span<const double> load_amps,
    std::span<const double> segment_resistance) const {
  check_inputs(load_amps, segment_resistance);
  const math::Matrix g = assemble_conductance(segment_resistance);
  return finish_solution(math::solve_dense(g, assemble_rhs(load_amps)),
                         segment_resistance);
}

AmpsPerM2 PdnGrid::current_density(double current_a) const {
  return AmpsPerM2{current_a / params_.segment_wire.cross_section_m2()};
}

void PdnGrid::save_state(ckpt::Serializer& s) const {
  s.begin_section("PDNC");
  s.write_u64(solve_stats_.solves);
  s.write_u64(solve_stats_.factorizations);
  s.write_u64(solve_stats_.cg_iterations);
}

void PdnGrid::load_state(ckpt::Deserializer& d) {
  d.expect_section("PDNC");
  solve_stats_.solves = static_cast<std::size_t>(d.read_u64());
  solve_stats_.factorizations = static_cast<std::size_t>(d.read_u64());
  solve_stats_.cg_iterations = static_cast<std::size_t>(d.read_u64());
}

}  // namespace dh::pdn
