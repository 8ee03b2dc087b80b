#include "em/korhonen.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/math/interp.hpp"
#include "common/math/linalg.hpp"

namespace dh::em {

KorhonenSolver::KorhonenSolver(WireGeometry wire, EmMaterialParams material,
                               KorhonenGridParams grid)
    : wire_(wire), material_(material), grid_params_(grid) {
  DH_REQUIRE(grid.first_cell.value() > 0.0 &&
                 grid.first_cell.value() < wire.length.value() / 4.0,
             "first grid cell must be positive and much shorter than the wire");
  const double half = wire_.length.value() / 2.0;
  const auto left = math::stretched_grid(0.0, half, grid.first_cell.value(),
                                         grid.stretch_ratio);
  // Mirror onto the right half so both ends are finely resolved.
  x_ = left;
  for (std::size_t i = left.size() - 1; i-- > 0;) {
    x_.push_back(wire_.length.value() - left[i]);
  }
  const std::size_t n = x_.size();
  DH_REQUIRE(n >= 8, "grid unexpectedly coarse");
  cell_w_.resize(n);
  cell_w_[0] = 0.5 * (x_[1] - x_[0]);
  cell_w_[n - 1] = 0.5 * (x_[n - 1] - x_[n - 2]);
  for (std::size_t i = 1; i + 1 < n; ++i) {
    cell_w_[i] = 0.5 * (x_[i + 1] - x_[i - 1]);
  }
  sigma_.assign(n, 0.0);
  tri_lower_.assign(n - 1, 0.0);
  tri_diag_.assign(n, 0.0);
  tri_upper_.assign(n - 1, 0.0);
  tri_rhs_.assign(n, 0.0);
}

void KorhonenSolver::step(AmpsPerM2 j, Celsius temperature, Seconds dt) {
  DH_REQUIRE(dt.value() >= 0.0, "time step must be non-negative");
  if (broken_) {
    elapsed_s_ += dt.value();
    return;
  }
  const Kelvin t = to_kelvin(temperature);
  double remaining = dt.value();
  const double h_max = grid_params_.max_substep.value();
  while (remaining > 0.0 && !broken_) {
    const double h = std::min(remaining, h_max);
    substep(j, t, h);
    remaining -= h;
  }
}

void KorhonenSolver::substep(AmpsPerM2 j, Kelvin t, double dt) {
  const std::size_t n = x_.size();
  const double kappa = material_.kappa(t);
  const double rho = wire_.resistivity_at(t);
  const double g = material_.driving_force(rho, j);  // Pa/m

  // Assemble the backward-Euler tridiagonal system:
  //   (I/dt - A) sigma^{n+1} = sigma^n/dt + b
  // where A couples neighbours through kappa/h and b carries the wind
  // source at non-Dirichlet boundary cells. The buffers are constructor-
  // sized members (every entry is overwritten below), so substeps stay
  // allocation-free.
  std::vector<double>& lower = tri_lower_;
  std::vector<double>& diag = tri_diag_;
  std::vector<double>& upper = tri_upper_;
  std::vector<double>& rhs = tri_rhs_;

  const bool dirichlet0 = void_start_.open;
  const bool dirichletN = void_end_.open;

  for (std::size_t i = 0; i < n; ++i) {
    if ((i == 0 && dirichlet0) || (i == n - 1 && dirichletN)) {
      diag[i] = 1.0;
      rhs[i] = 0.0;  // free surface: sigma = 0
      if (i == 0) upper[0] = 0.0;
      if (i == n - 1) lower[n - 2] = 0.0;
      continue;
    }
    diag[i] = 1.0 / dt;
    rhs[i] = sigma_[i] / dt;
    // Right face.
    if (i + 1 < n) {
      const double c = kappa / (x_[i + 1] - x_[i]) / cell_w_[i];
      diag[i] += c;
      upper[i] = -c;
      rhs[i] += kappa * g / cell_w_[i];  // wind flux through right face
    }
    // Left face.
    if (i > 0) {
      const double c = kappa / (x_[i] - x_[i - 1]) / cell_w_[i];
      diag[i] += c;
      lower[i - 1] = -c;
      rhs[i] -= kappa * g / cell_w_[i];  // wind flux through left face
    }
  }
  math::solve_tridiagonal(lower, diag, upper, rhs, sigma_, tri_ws_);

  // Void growth/healing from the boundary fluxes.
  auto flux_at_face = [&](std::size_t left_node) {
    const double h = x_[left_node + 1] - x_[left_node];
    return kappa *
           ((sigma_[left_node + 1] - sigma_[left_node]) / h + g);  // Pa*m/s
  };
  const double fix = material_.fix_rate(t);
  const Amps current = wire_.current_for_density(j);
  auto evolve_void = [&](VoidState& v, double signed_flux) {
    if (!v.open) return;
    // Current crowding: the liner shunt around the void dissipates
    // I^2*dR locally and raises the local diffusivity.
    const double dr_void = wire_.liner_ohm_per_m * v.total_m();
    const double p_local =
        current.value() * current.value() * dr_void;
    const Kelvin t_local{t.value() +
                         material_.void_crowding_theta_k_per_w * p_local};
    const double heat_boost =
        material_.diffusivity(t_local) / material_.diffusivity(t);
    const double rate = signed_flux * heat_boost / material_.bulk_modulus_pa;
    // Growth feeds the slit with partial efficiency; healing refills the
    // slit at full efficiency.
    v.mobile_len_m +=
        rate * (rate > 0.0 ? material_.slit_efficiency : 1.0) * dt;
    // First-order immobilization of the healable length.
    const double converted = v.mobile_len_m * (1.0 - std::exp(-fix * dt));
    if (converted > 0.0) {
      v.mobile_len_m -= converted;
      v.fixed_len_m += converted;
    }
    if (v.mobile_len_m <= 0.0) {
      v.mobile_len_m = 0.0;
      v.open = false;  // healed (any fixed residue stays in the resistance)
    }
  };
  // Atoms leaving the x=0 void travel in +x: growth for positive flux.
  evolve_void(void_start_, flux_at_face(0));
  // Atoms leaving the x=L void travel in -x: growth for negative flux.
  evolve_void(void_end_, -flux_at_face(n - 2));

  maybe_nucleate(WireEnd::kStart);
  maybe_nucleate(WireEnd::kEnd);

  if (total_void_length().value() >= material_.break_void_length.value()) {
    broken_ = true;
  }
  elapsed_s_ += dt;
}

void KorhonenSolver::maybe_nucleate(WireEnd end) {
  VoidState& v = end == WireEnd::kStart ? void_start_ : void_end_;
  if (v.open) return;
  const std::size_t node = end == WireEnd::kStart ? 0 : x_.size() - 1;
  if (sigma_[node] >= material_.critical_stress.value()) {
    v.open = true;
    ever_nucleated_ = true;
    if (v.mobile_len_m <= 0.0) {
      v.mobile_len_m = 0.5e-9;  // seed void
    }
    sigma_[node] = 0.0;
  }
}

Ohms KorhonenSolver::resistance(Celsius t) const {
  if (broken_) {
    // The liner has cracked: the line is open.
    return Ohms{std::numeric_limits<double>::infinity()};
  }
  return wire_.resistance_with_void(to_kelvin(t), total_void_length());
}

Pascals KorhonenSolver::stress_at(WireEnd end) const {
  return Pascals{end == WireEnd::kStart ? sigma_.front() : sigma_.back()};
}

const VoidState& KorhonenSolver::void_at(WireEnd end) const {
  return end == WireEnd::kStart ? void_start_ : void_end_;
}

Meters KorhonenSolver::total_void_length() const {
  return Meters{void_start_.total_m() + void_end_.total_m()};
}

bool KorhonenSolver::nucleated(WireEnd end) const {
  const VoidState& v = end == WireEnd::kStart ? void_start_ : void_end_;
  return v.open || v.total_m() > 0.0;
}

double KorhonenSolver::stress_integral() const {
  double acc = 0.0;
  for (std::size_t i = 0; i < sigma_.size(); ++i) {
    acc += sigma_[i] * cell_w_[i];
  }
  return acc;
}

}  // namespace dh::em
