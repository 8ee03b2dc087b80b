#include "common/math/banded_spd.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "common/error.hpp"
#include "common/math/linalg.hpp"
#include "common/obs/metrics.hpp"

namespace dh::math {

namespace {

/// Quality target: a back-substituted solution at or below this true
/// relative residual is returned as is.
constexpr double kAcceptRelResidual = 1e-10;
/// Rejection bound after refinement. Severely ill-conditioned but
/// solvable systems (aged grids whose broken segments spread the
/// conductances across ~12 decades) bottom out around 1e-7 relative —
/// the double-precision floor dense LU shares — and are accepted with the
/// achieved residual reported in `SpdSolveInfo`. A genuinely singular
/// matrix (pivots made of rounding noise) stalls at O(1) and throws.
constexpr double kRejectRelResidual = 1e-4;
/// Refinement stops early when the residual has not improved by at least
/// 1% over this many iterations (rounding floor reached); the best
/// iterate so far is returned.
constexpr std::size_t kStagnationWindow = 50;

double dot(std::span<const double> a, std::span<const double> b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

[[noreturn]] void raise_not_spd(std::size_t i, std::size_t n, double pivot) {
  throw Error{"banded Cholesky: pivot " + std::to_string(pivot) +
              " at row " + std::to_string(i) + " of " + std::to_string(n) +
              " is not positive — matrix is singular or not positive "
              "definite"};
}

/// Smallest pivot accepted when factoring an n x n matrix whose largest
/// diagonal magnitude is `max_diag`. Relative to that diagonal so that an
/// exactly-singular system (e.g. an ungrounded Laplacian, whose final
/// pivot is pure rounding noise) is rejected instead of producing a
/// garbage factor, while merely ill-conditioned but solvable systems
/// pass.
double pivot_floor(std::size_t n, double max_diag) {
  const double rel = static_cast<double>(n) *
                     std::numeric_limits<double>::epsilon() * max_diag;
  return std::max(rel, 1e-300);
}

}  // namespace

BandedSpd::BandedSpd(std::size_t n, std::size_t band)
    : n_(n), band_(band), a_(n * (band + 1), 0.0), l_(a_.size(), 0.0) {
  DH_REQUIRE(n >= 1, "banded SPD matrix must be non-empty");
}

void BandedSpd::clear() {
  factored_ = false;
  std::fill(a_.begin(), a_.end(), 0.0);
}

void BandedSpd::add_edge(std::size_t a, std::size_t b, double g) {
  DH_REQUIRE(a != b, "edge endpoints must differ");
  const std::size_t lo = std::min(a, b);
  const std::size_t hi = std::max(a, b);
  DH_REQUIRE(hi < n_ && hi - lo <= band_, "edge outside the band");
  factored_ = false;
  a_[slot(a, a)] += g;
  a_[slot(b, b)] += g;
  a_[slot(hi, lo)] += -g;
}

void BandedSpd::add_diagonal(std::size_t i, double g) {
  DH_REQUIRE(i < n_, "banded SPD index out of range");
  factored_ = false;
  a_[slot(i, i)] += g;
}

double BandedSpd::at(std::size_t i, std::size_t j) const {
  DH_REQUIRE(i < n_ && j < n_, "banded SPD index out of range");
  if (i < j) std::swap(i, j);
  return i - j <= band_ ? a_[slot(i, j)] : 0.0;
}

void BandedSpd::factor() {
  factored_ = false;
  std::copy(a_.begin(), a_.end(), l_.begin());
  double max_diag = 0.0;
  for (std::size_t i = 0; i < n_; ++i) {
    max_diag = std::max(max_diag, std::abs(l_[slot(i, i)]));
  }
  const double floor = pivot_floor(n_, max_diag);
  for (std::size_t i = 0; i < n_; ++i) {
    const std::size_t j0 = first_in_band(i);
    for (std::size_t j = j0; j < i; ++j) {
      double acc = l_[slot(i, j)];
      const std::size_t k0 = std::max(j0, first_in_band(j));
      for (std::size_t k = k0; k < j; ++k) {
        acc -= l_[slot(i, k)] * l_[slot(j, k)];
      }
      l_[slot(i, j)] = acc / l_[slot(j, j)];
    }
    double acc = l_[slot(i, i)];
    for (std::size_t k = j0; k < i; ++k) {
      acc -= l_[slot(i, k)] * l_[slot(i, k)];
    }
    if (!(acc > floor) || !std::isfinite(acc)) raise_not_spd(i, n_, acc);
    l_[slot(i, i)] = std::sqrt(acc);
  }
  factored_ = true;
}

void BandedSpd::back_substitute(std::span<const double> b,
                                std::vector<double>& x) const {
  x.assign(b.begin(), b.end());
  // L y = b.
  for (std::size_t i = 0; i < n_; ++i) {
    double acc = x[i];
    for (std::size_t j = first_in_band(i); j < i; ++j) {
      acc -= l_[slot(i, j)] * x[j];
    }
    x[i] = acc / l_[slot(i, i)];
  }
  // L^T x = y, scattered row-wise (row access only).
  for (std::size_t i = n_; i-- > 0;) {
    const double xi = x[i] / l_[slot(i, i)];
    x[i] = xi;
    for (std::size_t j = first_in_band(i); j < i; ++j) {
      x[j] -= l_[slot(i, j)] * xi;
    }
  }
}

// Zeros inside the band add +-0 to each row sum, which leaves a finite
// sum unchanged, so the products equal a sparse product over the stored
// stencil bit for bit.
void BandedSpd::multiply(std::span<const double> x,
                         std::vector<double>& y) const {
  y.resize(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    const std::size_t j1 = std::min(n_ - 1, i + band_);
    double acc = 0.0;
    for (std::size_t j = first_in_band(i); j < i; ++j) {
      acc += a_[slot(i, j)] * x[j];
    }
    for (std::size_t j = i; j <= j1; ++j) acc += a_[slot(j, i)] * x[j];
    y[i] = acc;
  }
}

void BandedSpd::residual(std::span<const double> b, std::span<const double> x,
                         std::vector<double>& r) const {
  multiply(x, r);
  for (std::size_t i = 0; i < n_; ++i) r[i] = b[i] - r[i];
}

void BandedSpd::solve(std::span<const double> b, std::vector<double>& x,
                      SpdSolveInfo* info) {
  DH_REQUIRE(b.size() == n_, "banded SPD solve dimension mismatch");
  DH_REQUIRE(factored_, "banded SPD solve after a failed or missing factor");
  SpdSolveInfo local;
  const double b_norm = norm2(b);
  // NaN for a non-finite b, so the bounds below reject it.
  const auto relative = [b_norm](double r) {
    return b_norm == 0.0 ? 0.0 : r / b_norm;
  };
  back_substitute(b, x);
  residual(b, x, r_);
  local.residual_norm = norm2(r_);
  if (!(relative(local.residual_norm) <= kAcceptRelResidual)) {
    // Ill-conditioned but solvable systems leave a rounding-sized gap
    // a direct factor cannot close in one sweep; iterative refinement
    // (CG on A preconditioned by the factor, warm-started from x)
    // drives it to the double-precision floor. What no engine can fix
    // is a genuinely singular matrix whose pivots were rounding noise:
    // its residual stays orders of magnitude above the floor.
    // The absolute floor keeps a denormal-range b exact.
    const double target = kAcceptRelResidual * b_norm + 1e-300;
    local.cg_iterations = refine(b, x, target);
    local.residual_norm = norm2(r_);
    const bool converged = local.residual_norm <= target;
    if (!converged &&
        !(relative(local.residual_norm) <= kRejectRelResidual)) {
      throw Error{"banded Cholesky solve stalled at relative residual " +
                  std::to_string(relative(local.residual_norm)) +
                  " even with refinement — matrix is singular (zero "
                  "pivot within rounding) or numerically unsolvable"};
    }
  }
  local.relative_residual = relative(local.residual_norm);
  static obs::Histogram& iters =
      obs::registry().histogram("solver.cg_iters", "iters");
  if (local.cg_iterations > 0) {
    iters.observe(static_cast<double>(local.cg_iterations));
  }
  if (info != nullptr) *info = local;
}

// Preconditioned CG on A with the factor as preconditioner, from x and
// its residual r_. Returns the iteration count; leaves the best iterate
// in x and its true residual b - A x in r_ (recurred residuals drift
// from the true one near the rounding floor).
std::size_t BandedSpd::refine(std::span<const double> b,
                              std::vector<double>& x, double target) {
  const std::size_t max_iter = 10 * n_ + 200;
  std::size_t iterations = 0;
  double r_norm = norm2(r_);
  best_x_.assign(x.begin(), x.end());
  double best_norm = r_norm;
  std::size_t last_gain_iter = 0;

  if (r_norm > target) {
    back_substitute(r_, z_);
    double rz = dot(r_, z_);
    if (rz < 0.0) {
      throw Error{"PCG: preconditioner produced r'M^-1r = " +
                  std::to_string(rz) + " < 0 — preconditioner is not SPD"};
    }
    p_.assign(z_.begin(), z_.end());
    for (std::size_t it = 1; it <= max_iter; ++it) {
      multiply(p_, ap_);
      const double p_ap = dot(p_, ap_);
      if (!(p_ap > 0.0)) {
        // A genuine SPD matrix gives p'Ap > 0 for every nonzero search
        // direction; anything else means the assembly broke the contract.
        throw Error{"PCG: curvature p'Ap = " + std::to_string(p_ap) +
                    " at iteration " + std::to_string(it) +
                    " — operator is not positive definite"};
      }
      const double alpha = rz / p_ap;
      for (std::size_t i = 0; i < n_; ++i) x[i] += alpha * p_[i];
      for (std::size_t i = 0; i < n_; ++i) r_[i] -= alpha * ap_[i];
      iterations = it;
      r_norm = norm2(r_);
      if (r_norm < best_norm) {
        if (r_norm < 0.99 * best_norm) last_gain_iter = it;
        best_norm = r_norm;
        best_x_ = x;
      }
      if (r_norm <= target) break;
      if (it - last_gain_iter >= kStagnationWindow) break;
      back_substitute(r_, z_);
      const double rz_new = dot(r_, z_);
      if (rz_new < 0.0) {
        throw Error{"PCG: preconditioner produced r'M^-1r = " +
                    std::to_string(rz_new) + " < 0 at iteration " +
                    std::to_string(it) + " — preconditioner is not SPD"};
      }
      const double beta = rz_new / rz;
      rz = rz_new;
      for (std::size_t i = 0; i < n_; ++i) p_[i] = z_[i] + beta * p_[i];
    }
  }

  x.swap(best_x_);
  residual(b, x, r_);
  return iterations;
}

}  // namespace dh::math
