// On-chip power-delivery-network model: a resistor mesh for the local
// VDD grid fed from pad/global-network connections, solved for IR drop
// and per-segment current density. This is the substrate the paper's EM
// story lives on: "EM is especially critical for power delivery networks"
// — local grids built in thin lower metals carry high unidirectional DC
// current density, while the global top-metal grid is wide, thick, and
// comparatively immortal (Fig. 11).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/math/banded_spd.hpp"
#include "common/units.hpp"
#include "em/wire.hpp"

namespace dh::ckpt {
class Serializer;
class Deserializer;
}  // namespace dh::ckpt

namespace dh::pdn {

struct PdnParams {
  std::size_t rows = 8;
  std::size_t cols = 8;
  /// Local-layer segment between adjacent grid nodes.
  em::WireGeometry segment_wire{
      .length = Meters{200e-6},
      .width = Meters{0.5e-6},
      .thickness = Meters{0.2e-6},
      .resistivity_ref = 2.2e-8,
      .reference_temperature = Celsius{20.0},
      .tcr_per_k = 3.93e-3,
      .liner_ohm_per_m = 2.5e8,
  };
  Volts vdd{1.0};
  /// Resistance from each pad node up through the global grid and bump.
  Ohms pad_resistance{0.05};
  /// Pad nodes; empty = the four corners.
  std::vector<std::size_t> pad_nodes;
};

/// Counters for the IR solver (see PdnGrid::solve).
struct PdnSolveStats {
  std::size_t solves = 0;
  std::size_t factorizations = 0;
};

struct PdnSolution {
  std::vector<double> node_voltage;
  std::vector<double> segment_current;  // signed, node a -> node b
  double worst_drop_v = 0.0;
  std::size_t worst_node = 0;
};

class PdnGrid {
 public:
  explicit PdnGrid(PdnParams params);

  /// Nodes are numbered row-major: node (r, c) is r * cols + c.
  [[nodiscard]] std::size_t node_count() const {
    return params_.rows * params_.cols;
  }

  struct Segment {
    std::size_t a, b;
  };
  [[nodiscard]] std::size_t segment_count() const { return segments_.size(); }
  [[nodiscard]] const Segment& segment(std::size_t i) const;

  /// Fresh per-segment resistances at temperature t.
  [[nodiscard]] std::vector<double> fresh_segment_resistances(
      Celsius t) const;

  /// Solve the mesh: `load_amps` is the current drawn at each node
  /// (finite); `segment_resistance` allows aged overrides (same order as
  /// segments). Each resistance must be positive; +inf means the segment
  /// is open (EM-broken) and is left out of the mesh. A node that no path
  /// of finite segments joins to a pad is unpowered: it solves to exactly
  /// 0 V (drop = VDD), its load is not delivered, and every segment
  /// touching it carries exactly 0 A.
  ///
  /// Every call assembles the conductances into the grid's banded matrix
  /// (common/math/banded_spd), factors it in place (banded Cholesky) and
  /// back-substitutes. No result is cached, so the answer depends only on
  /// the arguments. The grid owns the factor and the solve workspace, and
  /// they and the solve counters make this method non-reentrant: a
  /// PdnGrid instance must not be solved from two threads at once
  /// (parallel sweeps give each task its own grid). Its agreement
  /// reference is the dense solve in tests/support.
  [[nodiscard]] PdnSolution solve(std::span<const double> load_amps,
                                  std::span<const double> segment_resistance);

  /// Whether the last solve found `node` joined to a pad by finite
  /// segments (false for every node before the first solve).
  [[nodiscard]] bool powered(std::size_t node) const;

  /// Solve counters.
  [[nodiscard]] const PdnSolveStats& solve_stats() const {
    return solve_stats_;
  }

  /// Current density in a segment carrying `current`.
  [[nodiscard]] AmpsPerM2 current_density(double current_a) const;

  /// Checkpoint support: the solve counters, so summaries of a resumed
  /// run match an uninterrupted one.
  void save_state(ckpt::Serializer& s) const;
  void load_state(ckpt::Deserializer& d);

  [[nodiscard]] const PdnParams& params() const { return params_; }
  /// The pad nodes: params().pad_nodes, or the four corners if empty.
  [[nodiscard]] const std::vector<std::size_t>& pads() const { return pads_; }

 private:
  /// Marks in powered_ each node that a path of finite-resistance
  /// segments joins to a pad (breadth-first from the pads).
  void mark_powered(std::span<const double> segment_resistance);

  PdnParams params_;
  std::vector<Segment> segments_;
  std::vector<std::size_t> pads_;
  // Segments touching node i: incident_[incident_start_[i] ..
  // incident_start_[i + 1]).
  std::vector<std::size_t> incident_start_;
  std::vector<std::size_t> incident_;
  // Solve state, reused by every solve (see solve(): non-reentrant).
  math::BandedSpd matrix_;  // conductance matrix and its factor
  std::vector<double> rhs_;
  std::vector<unsigned char> powered_;  // see mark_powered
  std::vector<std::size_t> frontier_;   // its BFS queue
  PdnSolveStats solve_stats_;
};

}  // namespace dh::pdn
