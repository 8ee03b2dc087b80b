#include "thermal/thermal_grid.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/ckpt/serialize.hpp"
#include "common/error.hpp"
#include "common/obs/metrics.hpp"

namespace dh::thermal {

namespace {

/// The factored conductance matrix.
math::BandedSpd conductance_matrix(const ThermalGridParams& p) {
  DH_REQUIRE(p.rows >= 1 && p.cols >= 1, "grid must be non-empty");
  DH_REQUIRE(p.vertical_g_w_per_k > 0.0,
             "package conductance must be positive");
  // 5-point stencil: vertical escape on the diagonal, lateral coupling
  // k * (w * t) / w = k * t to each mesh neighbour. Tiles are numbered
  // row by row, so the band is one row (or one tile for a single row).
  math::BandedSpd g(p.rows * p.cols,
                    p.rows > 1 ? p.cols : std::min<std::size_t>(p.cols - 1, 1));
  const double g_lat = p.k_silicon_w_per_mk * p.die_thickness.value();
  for (std::size_t r = 0; r < p.rows; ++r) {
    for (std::size_t c = 0; c < p.cols; ++c) {
      const std::size_t i = r * p.cols + c;
      g.add_diagonal(i, p.vertical_g_w_per_k);
      if (r + 1 < p.rows) g.add_edge(i, i + p.cols, g_lat);
      if (c + 1 < p.cols) g.add_edge(i, i + 1, g_lat);
    }
  }
  g.factor();
  return g;
}

}  // namespace

ThermalGrid::ThermalGrid(ThermalGridParams params)
    : params_(params),
      steady_(conductance_matrix(params_)),
      power_(tile_count(), 0.0),
      temp_rise_(tile_count(), 0.0) {
  static obs::Counter& factorizations =
      obs::registry().counter("thermal.solve.factorizations");
  factorizations.add();
}

std::size_t ThermalGrid::index(std::size_t row, std::size_t col) const {
  DH_REQUIRE(row < params_.rows && col < params_.cols,
             "tile coordinates out of range");
  return row * params_.cols + col;
}

void ThermalGrid::set_power(std::size_t tile, Watts p) {
  DH_REQUIRE(tile < tile_count(), "tile index out of range");
  DH_REQUIRE(std::isfinite(p.value()), "power must be finite");
  DH_REQUIRE(p.value() >= 0.0, "power must be non-negative");
  power_[tile] = p.value();
}

void ThermalGrid::set_power_map(std::span<const double> watts) {
  DH_REQUIRE(watts.size() == tile_count(), "power map size mismatch");
  for (std::size_t i = 0; i < watts.size(); ++i) {
    DH_REQUIRE(std::isfinite(watts[i]), "power must be finite");
    DH_REQUIRE(watts[i] >= 0.0, "power must be non-negative");
    power_[i] = watts[i];
  }
}

void ThermalGrid::solve_steady() { steady_.solve(power_, temp_rise_); }

Celsius ThermalGrid::temperature(std::size_t tile) const {
  DH_REQUIRE(tile < tile_count(), "tile index out of range");
  return Celsius{params_.ambient.value() + temp_rise_[tile]};
}

Celsius ThermalGrid::max_temperature() const {
  const double m = *std::max_element(temp_rise_.begin(), temp_rise_.end());
  return Celsius{params_.ambient.value() + m};
}

void ThermalGrid::save_state(ckpt::Serializer& s) const {
  s.begin_section("THRM");
  s.write_f64_vec(power_);
  s.write_f64_vec(temp_rise_);
}

void ThermalGrid::load_state(ckpt::Deserializer& d) {
  d.expect_section("THRM");
  std::vector<double> power = d.read_f64_vec();
  std::vector<double> temp_rise = d.read_f64_vec();
  DH_REQUIRE(power.size() == tile_count() && temp_rise.size() == tile_count(),
             "thermal snapshot tile count does not match this grid");
  power_ = std::move(power);
  temp_rise_ = std::move(temp_rise);
}

Celsius ThermalGrid::mean_temperature() const {
  double acc = 0.0;
  for (const double t : temp_rise_) acc += t;
  return Celsius{params_.ambient.value() +
                 acc / static_cast<double>(tile_count())};
}

}  // namespace dh::thermal
