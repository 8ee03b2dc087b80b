// HotSpot-style 2-D thermal RC grid of the die.
//
// Each floorplan tile couples laterally to its neighbours through silicon
// and vertically to the heat sink/ambient through the package. Used by the
// system-level simulator for two things the paper calls out: (1) wearout
// acceleration with local temperature, and (2) *heat-assisted recovery* —
// an idle core parked next to hot neighbours recovers faster because its
// temperature rides up on theirs (Fig. 12a).
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "common/math/sparse/spd_solver.hpp"
#include "common/units.hpp"

namespace dh::ckpt {
class Serializer;
class Deserializer;
}  // namespace dh::ckpt

namespace dh::thermal {

struct ThermalGridParams {
  std::size_t rows = 4;
  std::size_t cols = 4;
  Meters tile_width{1e-3};          // square tiles
  Meters die_thickness{0.5e-3};
  double k_silicon_w_per_mk = 120.0;
  /// Vertical conductance to ambient per tile (package + heatsink), W/K.
  double vertical_g_w_per_k = 0.15;
  /// Heat capacity per tile, J/K.
  double tile_heat_capacity_j_per_k = 8e-4;
  Celsius ambient{45.0};
};

/// Counters for the cached thermal solvers.
struct ThermalSolveStats {
  std::size_t steady_solves = 0;
  std::size_t transient_steps = 0;
  /// Factorizations built: one per build_conductance for the steady
  /// solver plus one per distinct dt admitted to the transient cache.
  std::size_t factorizations = 0;
  /// Transient steps served by a dt-keyed cached factorization.
  std::size_t transient_cache_hits = 0;
};

class ThermalGrid {
 public:
  explicit ThermalGrid(ThermalGridParams params);

  [[nodiscard]] std::size_t tile_count() const {
    return params_.rows * params_.cols;
  }
  [[nodiscard]] std::size_t index(std::size_t row, std::size_t col) const;

  void set_power(std::size_t tile, Watts p);
  void set_power_map(std::span<const double> watts);

  /// Steady-state temperatures for the current power map.
  void solve_steady();

  /// Transient step (backward Euler) with the current power map. The
  /// (G + C/dt) factorization is cached *per dt value* (small MRU set),
  /// so workloads alternating between a handful of step sizes — fig12's
  /// scheduling quanta vs recovery quanta — refactorize only on first
  /// sight of each dt instead of on every change.
  void step(Seconds dt);

  [[nodiscard]] Celsius temperature(std::size_t tile) const;
  [[nodiscard]] Celsius max_temperature() const;
  [[nodiscard]] Celsius mean_temperature() const;
  [[nodiscard]] const ThermalGridParams& params() const { return params_; }

  /// Counters for the cached solvers (how often they refactorized).
  [[nodiscard]] const ThermalSolveStats& solve_stats() const {
    return stats_;
  }

  /// Checkpoint support. Saves the power map, temperature field, solve
  /// counters, and the transient cache's dt keys; load_state rebuilds the
  /// cached factorizations in the same MRU order so a restored grid hits
  /// and evicts exactly as an uninterrupted one, then restores the
  /// counters.
  void save_state(ckpt::Serializer& s) const;
  void load_state(ckpt::Deserializer& d);

 private:
  /// Most distinct dt factorizations kept; LRU beyond that.
  static constexpr std::size_t kMaxTransientFactors = 8;

  void build_conductance();
  [[nodiscard]] const math::sparse::SpdSolver& transient_solver(double dt);

  ThermalGridParams params_;
  math::sparse::CsrMatrix g_;  // conductance Laplacian + vertical
  std::unique_ptr<math::sparse::SpdSolver> steady_;
  /// MRU-ordered (dt, factorization of G + C/dt) cache.
  std::vector<std::pair<double, std::unique_ptr<math::sparse::SpdSolver>>>
      transient_;
  std::vector<double> power_;
  std::vector<double> temp_rise_;  // above ambient
  ThermalSolveStats stats_;
};

}  // namespace dh::thermal
