// HotSpot-style 2-D thermal grid of the die, solved at steady state (the
// die's thermal time constants are far below a scheduling quantum).
//
// Each floorplan tile couples laterally to its neighbours through silicon
// and vertically to the heat sink/ambient through the package. Used by the
// system-level simulator for two things the paper calls out: (1) wearout
// acceleration with local temperature, and (2) *heat-assisted recovery* —
// an idle core parked next to hot neighbours recovers faster because its
// temperature rides up on theirs (Fig. 12a).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/math/banded_spd.hpp"
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
  Celsius ambient{45.0};
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

  /// Steady-state temperatures for the current power map, from the
  /// conductance matrix factored once at construction.
  void solve_steady();

  [[nodiscard]] Celsius temperature(std::size_t tile) const;
  [[nodiscard]] Celsius max_temperature() const;
  [[nodiscard]] Celsius mean_temperature() const;
  [[nodiscard]] const ThermalGridParams& params() const { return params_; }

  /// Checkpoint support: the power map and the temperature rise. The
  /// factorization depends only on the params, so it is not saved.
  void save_state(ckpt::Serializer& s) const;
  void load_state(ckpt::Deserializer& d);

 private:
  ThermalGridParams params_;
  /// Factored conductance Laplacian plus vertical escape.
  math::BandedSpd steady_;
  std::vector<double> power_;
  std::vector<double> temp_rise_;  // above ambient
};

}  // namespace dh::thermal
