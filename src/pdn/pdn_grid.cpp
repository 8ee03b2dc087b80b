#include "pdn/pdn_grid.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/ckpt/serialize.hpp"
#include "common/error.hpp"
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
};

PdnMetrics& pdn_metrics() {
  static PdnMetrics* m = new PdnMetrics();
  return *m;
}

PdnParams checked(PdnParams p) {
  DH_REQUIRE(p.rows >= 2 && p.cols >= 2, "PDN grid needs at least 2x2 nodes");
  DH_REQUIRE(p.vdd.value() > 0.0, "PDN VDD must be positive");
  DH_REQUIRE(p.pad_resistance.value() > 0.0,
             "pad resistance must be positive");
  for (const std::size_t pad : p.pad_nodes) {
    DH_REQUIRE(pad < p.rows * p.cols, "pad node out of range");
  }
  return p;
}

std::vector<PdnGrid::Segment> mesh_segments(const PdnParams& p) {
  std::vector<PdnGrid::Segment> segments;
  for (std::size_t r = 0; r < p.rows; ++r) {
    for (std::size_t c = 0; c < p.cols; ++c) {
      const std::size_t i = r * p.cols + c;
      if (c + 1 < p.cols) segments.push_back({i, i + 1});
      if (r + 1 < p.rows) segments.push_back({i, i + p.cols});
    }
  }
  return segments;
}

/// The pad nodes; empty params mean the four corners.
std::vector<std::size_t> pad_nodes(const PdnParams& p) {
  if (p.pad_nodes.empty()) {
    return {0, p.cols - 1, (p.rows - 1) * p.cols, p.rows * p.cols - 1};
  }
  return p.pad_nodes;
}

}  // namespace

PdnGrid::PdnGrid(PdnParams params)
    : params_(checked(std::move(params))),
      segments_(mesh_segments(params_)),
      pads_(pad_nodes(params_)),
      incident_start_(node_count() + 1, 0),
      incident_(2 * segments_.size()),
      matrix_(node_count(), params_.cols),
      powered_(node_count()) {
  for (const auto [a, b] : segments_) {
    ++incident_start_[a + 1];
    ++incident_start_[b + 1];
  }
  for (std::size_t i = 0; i < node_count(); ++i) {
    incident_start_[i + 1] += incident_start_[i];
  }
  std::vector<std::size_t> next(incident_start_.begin(),
                                incident_start_.end() - 1);
  for (std::size_t s = 0; s < segments_.size(); ++s) {
    incident_[next[segments_[s].a]++] = s;
    incident_[next[segments_[s].b]++] = s;
  }
  frontier_.reserve(node_count());
}

const PdnGrid::Segment& PdnGrid::segment(std::size_t i) const {
  DH_REQUIRE(i < segments_.size(), "segment index out of range");
  return segments_[i];
}

std::vector<double> PdnGrid::fresh_segment_resistances(Celsius t) const {
  const double r = params_.segment_wire.resistance_at(to_kelvin(t)).value();
  return std::vector<double>(segments_.size(), r);
}

void PdnGrid::mark_powered(std::span<const double> segment_resistance) {
  std::fill(powered_.begin(), powered_.end(), 0);
  frontier_.clear();
  for (const std::size_t p : pads_) {
    if (!powered_[p]) {
      powered_[p] = 1;
      frontier_.push_back(p);
    }
  }
  for (std::size_t head = 0; head < frontier_.size(); ++head) {
    const std::size_t i = frontier_[head];
    for (std::size_t k = incident_start_[i]; k < incident_start_[i + 1];
         ++k) {
      const std::size_t s = incident_[k];
      if (std::isinf(segment_resistance[s])) continue;
      const std::size_t j = segments_[s].a == i ? segments_[s].b
                                                : segments_[s].a;
      if (!powered_[j]) {
        powered_[j] = 1;
        frontier_.push_back(j);
      }
    }
  }
}

PdnSolution PdnGrid::solve(std::span<const double> load_amps,
                           std::span<const double> segment_resistance) {
  DH_REQUIRE(load_amps.size() == node_count(), "load vector size mismatch");
  for (const double load : load_amps) {
    DH_REQUIRE(std::isfinite(load), "node load must be finite");
  }
  DH_REQUIRE(segment_resistance.size() == segments_.size(),
             "segment resistance vector size mismatch");
  // Rejects NaN, -inf, zero and negative values; +inf (open) passes.
  for (const double r : segment_resistance) {
    DH_REQUIRE(r > 0.0, "segment resistance must be positive");
  }
  ++solve_stats_.solves;
  pdn_metrics().solves.add();

  const double g_pad = 1.0 / params_.pad_resistance.value();
  {
    DH_PROF_SCOPE("pdn.refactorize");
    // Every entry starts at +0.0; a diagonal adds its segments in
    // segment order and then its pad terms. An unpowered node gets a
    // unit diagonal, and its zero RHS pins it to 0 V.
    matrix_.clear();
    mark_powered(segment_resistance);
    // A finite segment with one powered end has two.
    for (std::size_t s = 0; s < segments_.size(); ++s) {
      const auto [a, b] = segments_[s];
      if (powered_[a] && !std::isinf(segment_resistance[s])) {
        matrix_.add_edge(a, b, 1.0 / segment_resistance[s]);
      }
    }
    for (const std::size_t p : pads_) matrix_.add_diagonal(p, g_pad);
    for (std::size_t i = 0; i < powered_.size(); ++i) {
      if (!powered_[i]) matrix_.add_diagonal(i, 1.0);
    }
    matrix_.factor();
  }
  ++solve_stats_.factorizations;
  pdn_metrics().factorizations.add();

  // Pad injections minus loads; 0 on the unpowered nodes.
  rhs_.assign(node_count(), 0.0);
  for (const std::size_t p : pads_) {
    rhs_[p] += g_pad * params_.vdd.value();
  }
  for (std::size_t i = 0; i < rhs_.size(); ++i) {
    rhs_[i] = powered_[i] ? rhs_[i] - load_amps[i] : 0.0;
  }
  PdnSolution sol;
  matrix_.solve(rhs_, sol.node_voltage);

  sol.segment_current.resize(segments_.size());
  for (std::size_t s = 0; s < segments_.size(); ++s) {
    const auto [a, b] = segments_[s];
    sol.segment_current[s] =
        (sol.node_voltage[a] - sol.node_voltage[b]) / segment_resistance[s];
  }
  for (std::size_t i = 0; i < sol.node_voltage.size(); ++i) {
    const double drop = params_.vdd.value() - sol.node_voltage[i];
    if (drop > sol.worst_drop_v) {
      sol.worst_drop_v = drop;
      sol.worst_node = i;
    }
  }
  return sol;
}

bool PdnGrid::powered(std::size_t node) const {
  DH_REQUIRE(node < node_count(), "PDN node index out of range");
  return powered_[node] != 0;
}

AmpsPerM2 PdnGrid::current_density(double current_a) const {
  return AmpsPerM2{current_a / params_.segment_wire.cross_section_m2()};
}

void PdnGrid::save_state(ckpt::Serializer& s) const {
  s.begin_section("PDNC");
  s.write_u64(solve_stats_.solves);
  s.write_u64(solve_stats_.factorizations);
}

void PdnGrid::load_state(ckpt::Deserializer& d) {
  d.expect_section("PDNC");
  solve_stats_.solves = static_cast<std::size_t>(d.read_u64());
  solve_stats_.factorizations = static_cast<std::size_t>(d.read_u64());
}

}  // namespace dh::pdn
