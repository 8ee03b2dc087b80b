// Sparse-direct factorizations for small SPD systems: an LDL^T
// tridiagonal factor (1-D chains: single-row grids, Korhonen-style
// stencils) and a banded Cholesky (rows x cols meshes have bandwidth
// min(rows, cols), so small grids factor in O(n b^2) and solve in
// O(n b) — tiny grids stay as fast as, or faster than, the dense LU they
// replace). Both are Preconditioners, so SpdSolver can hand a factor to
// PCG as the preconditioner of its own matrix (iterative refinement).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/math/sparse/cg.hpp"
#include "common/math/sparse/csr.hpp"

namespace dh::math::sparse {

/// LDL^T factorization of an SPD tridiagonal matrix (bandwidth <= 1).
class TridiagonalCholesky final : public Preconditioner {
 public:
  TridiagonalCholesky() = default;
  /// Throws dh::Error when the matrix is wider than tridiagonal or a
  /// pivot is non-positive (not SPD / singular).
  explicit TridiagonalCholesky(const CsrMatrix& a) { factor(a); }

  /// Factor `a` into this object's storage (reused when the size is
  /// unchanged). Throws like the constructor.
  void factor(const CsrMatrix& a);

  void solve(std::span<const double> b, std::vector<double>& x) const;
  void apply(std::span<const double> r,
             std::vector<double>& z) const override {
    solve(r, z);
  }

 private:
  std::vector<double> d_;  // positive pivots
  std::vector<double> l_;  // n-1 unit-lower multipliers
};

/// Cholesky factorization of an SPD band matrix, storing only the lower
/// band: L(i, i-k) for k in [0, band].
class BandedCholesky final : public Preconditioner {
 public:
  /// Sizes the band from `a`'s pattern and factors `a`. Throws dh::Error
  /// on a non-positive pivot (not SPD / singular, e.g. a conductance
  /// Laplacian with no pad path to VDD).
  explicit BandedCholesky(const CsrMatrix& a);

  /// Refactor in place: `a` has the size and (at most) the band of the
  /// matrix this factor was built from, e.g. new values in a fixed
  /// pattern. Throws like the constructor.
  void factor(const CsrMatrix& a);

  void solve(std::span<const double> b, std::vector<double>& x) const;
  void apply(std::span<const double> r,
             std::vector<double>& z) const override {
    solve(r, z);
  }

  [[nodiscard]] std::size_t band() const { return band_; }

 private:
  [[nodiscard]] double& l(std::size_t i, std::size_t j) {
    return l_[i * (band_ + 1) + (i - j)];
  }
  [[nodiscard]] double l(std::size_t i, std::size_t j) const {
    return l_[i * (band_ + 1) + (i - j)];
  }

  std::size_t n_ = 0;
  std::size_t band_ = 0;
  std::vector<double> l_;  // (band_+1) x n_, row-major by matrix row
};

}  // namespace dh::math::sparse
