#include "common/math/banded_spd.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>

#include "common/error.hpp"
#include "common/math/linalg.hpp"

namespace dh::math {

namespace {

/// Quality target: a back-substituted solution must meet this true
/// relative residual, or the solve throws.
constexpr double kAcceptRelResidual = 1e-10;

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
// sum unchanged, so the product equals a sparse product over the stored
// stencil bit for bit.
void BandedSpd::residual(std::span<const double> b, std::span<const double> x,
                         std::vector<double>& r) const {
  r.resize(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    const std::size_t j1 = std::min(n_ - 1, i + band_);
    double acc = 0.0;
    for (std::size_t j = first_in_band(i); j < i; ++j) {
      acc += a_[slot(i, j)] * x[j];
    }
    for (std::size_t j = i; j <= j1; ++j) acc += a_[slot(j, i)] * x[j];
    r[i] = b[i] - acc;
  }
}

void BandedSpd::solve(std::span<const double> b, std::vector<double>& x,
                      SpdSolveInfo* info) {
  DH_REQUIRE(b.size() == n_, "banded SPD solve dimension mismatch");
  DH_REQUIRE(factored_, "banded SPD solve after a failed or missing factor");
  back_substitute(b, x);
  residual(b, x, r_);
  SpdSolveInfo local;
  const double b_norm = norm2(b);
  local.residual_norm = norm2(r_);
  // NaN for a non-finite b or x, so the bound below rejects it.
  local.relative_residual = b_norm == 0.0 ? 0.0 : local.residual_norm / b_norm;
  if (!(local.relative_residual <= kAcceptRelResidual)) {
    char rel[32];
    std::snprintf(rel, sizeof rel, "%.3g", local.relative_residual);
    throw Error{std::string{"banded Cholesky solve left relative residual "} +
                rel + " above 1e-10 — matrix is singular to working "
                "precision or too ill-conditioned for a direct solve"};
  }
  if (info != nullptr) *info = local;
}

}  // namespace dh::math
