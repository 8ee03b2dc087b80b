#include "thermal/thermal_grid.hpp"

#include <algorithm>
#include <utility>

#include "common/ckpt/serialize.hpp"
#include "common/error.hpp"
#include "common/obs/metrics.hpp"

namespace dh::thermal {

ThermalGrid::ThermalGrid(ThermalGridParams params) : params_(params) {
  DH_REQUIRE(params_.rows >= 1 && params_.cols >= 1, "grid must be non-empty");
  DH_REQUIRE(params_.vertical_g_w_per_k > 0.0,
             "package conductance must be positive");
  power_.assign(tile_count(), 0.0);
  temp_rise_.assign(tile_count(), 0.0);
  build_conductance();
}

std::size_t ThermalGrid::index(std::size_t row, std::size_t col) const {
  DH_REQUIRE(row < params_.rows && col < params_.cols,
             "tile coordinates out of range");
  return row * params_.cols + col;
}

void ThermalGrid::build_conductance() {
  const std::size_t n = tile_count();
  // 5-point stencil: vertical escape on the diagonal, lateral coupling
  // k * (w * t) / w = k * t to each mesh neighbour.
  math::sparse::CsrBuilder builder(n, n, 5);
  const double g_lat =
      params_.k_silicon_w_per_mk * params_.die_thickness.value();
  for (std::size_t r = 0; r < params_.rows; ++r) {
    for (std::size_t c = 0; c < params_.cols; ++c) {
      const std::size_t i = r * params_.cols + c;
      builder.add_diagonal(i, params_.vertical_g_w_per_k);
      if (r + 1 < params_.rows) builder.add_edge(i, i + params_.cols, g_lat);
      if (c + 1 < params_.cols) builder.add_edge(i, i + 1, g_lat);
    }
  }
  g_ = builder.build();
  steady_ = std::make_unique<math::sparse::SpdSolver>(g_);
  ++stats_.factorizations;
  static obs::Counter& factorizations =
      obs::registry().counter("thermal.solve.factorizations");
  factorizations.add();
  transient_.clear();
}

void ThermalGrid::set_power(std::size_t tile, Watts p) {
  DH_REQUIRE(tile < tile_count(), "tile index out of range");
  DH_REQUIRE(p.value() >= 0.0, "power must be non-negative");
  power_[tile] = p.value();
}

void ThermalGrid::set_power_map(std::span<const double> watts) {
  DH_REQUIRE(watts.size() == tile_count(), "power map size mismatch");
  for (std::size_t i = 0; i < watts.size(); ++i) {
    DH_REQUIRE(watts[i] >= 0.0, "power must be non-negative");
    power_[i] = watts[i];
  }
}

void ThermalGrid::solve_steady() {
  ++stats_.steady_solves;
  temp_rise_ = steady_->solve(power_);
}

const math::sparse::SpdSolver& ThermalGrid::transient_solver(double dt) {
  for (std::size_t i = 0; i < transient_.size(); ++i) {
    if (transient_[i].first == dt) {
      ++stats_.transient_cache_hits;
      if (i > 0) {  // move to front: MRU order
        auto hit = std::move(transient_[i]);
        transient_.erase(transient_.begin() +
                         static_cast<std::ptrdiff_t>(i));
        transient_.insert(transient_.begin(), std::move(hit));
      }
      return *transient_.front().second;
    }
  }
  // First sight of this dt: factor G + C/dt on the same sparsity pattern
  // (every row has a diagonal entry — vertical_g_w_per_k > 0).
  math::sparse::CsrMatrix a = g_;
  const double c_dt = params_.tile_heat_capacity_j_per_k / dt;
  const auto& row_ptr = a.row_ptr();
  const auto& col_idx = a.col_idx();
  auto& values = a.values();
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      if (col_idx[k] == r) {
        values[k] += c_dt;
        break;
      }
    }
  }
  transient_.emplace(
      transient_.begin(), dt,
      std::make_unique<math::sparse::SpdSolver>(std::move(a)));
  if (transient_.size() > kMaxTransientFactors) transient_.pop_back();
  ++stats_.factorizations;
  static obs::Counter& factorizations =
      obs::registry().counter("thermal.solve.factorizations");
  factorizations.add();
  return *transient_.front().second;
}

void ThermalGrid::step(Seconds dt) {
  DH_REQUIRE(dt.value() > 0.0, "time step must be positive");
  const std::size_t n = tile_count();
  ++stats_.transient_steps;
  const math::sparse::SpdSolver& solver = transient_solver(dt.value());
  std::vector<double> rhs(n);
  const double c_dt = params_.tile_heat_capacity_j_per_k / dt.value();
  for (std::size_t i = 0; i < n; ++i) {
    rhs[i] = power_[i] + c_dt * temp_rise_[i];
  }
  temp_rise_ = solver.solve(rhs);
}

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
  // Transient cache keys, oldest first, so a load that re-inserts each at
  // the MRU front reproduces the exact cache order.
  s.write_u64(transient_.size());
  for (std::size_t i = transient_.size(); i > 0; --i) {
    s.write_f64(transient_[i - 1].first);
  }
  s.write_u64(stats_.steady_solves);
  s.write_u64(stats_.transient_steps);
  s.write_u64(stats_.factorizations);
  s.write_u64(stats_.transient_cache_hits);
}

void ThermalGrid::load_state(ckpt::Deserializer& d) {
  d.expect_section("THRM");
  std::vector<double> power = d.read_f64_vec();
  std::vector<double> temp_rise = d.read_f64_vec();
  DH_REQUIRE(power.size() == tile_count() && temp_rise.size() == tile_count(),
             "thermal snapshot tile count does not match this grid");
  power_ = std::move(power);
  temp_rise_ = std::move(temp_rise);
  transient_.clear();
  const std::uint64_t cached = d.read_u64();
  DH_REQUIRE(cached <= kMaxTransientFactors,
             "thermal snapshot transient cache exceeds the MRU capacity");
  for (std::uint64_t i = 0; i < cached; ++i) {
    (void)transient_solver(d.read_f64());
  }
  // The rebuild above bumped the counters; the snapshot values (matching
  // the uninterrupted run) win.
  stats_.steady_solves = static_cast<std::size_t>(d.read_u64());
  stats_.transient_steps = static_cast<std::size_t>(d.read_u64());
  stats_.factorizations = static_cast<std::size_t>(d.read_u64());
  stats_.transient_cache_hits = static_cast<std::size_t>(d.read_u64());
}

Celsius ThermalGrid::mean_temperature() const {
  double acc = 0.0;
  for (const double t : temp_rise_) acc += t;
  return Celsius{params_.ambient.value() +
                 acc / static_cast<double>(tile_count())};
}

}  // namespace dh::thermal
