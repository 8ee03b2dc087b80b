// Dense linear algebra: the LU solve of the MNA circuit solver, plus the
// Thomas algorithm used by the Korhonen EM PDE integrator. The PDN and
// thermal grids solve on math::BandedSpd (banded_spd.hpp).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace dh::math {

/// Row-major dense matrix of doubles.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }

  [[nodiscard]] double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Dense solve A x = b by LU with partial pivoting. Throws dh::Error,
/// naming the pivot, if `a` is singular to working precision.
[[nodiscard]] std::vector<double> solve_dense(const Matrix& a,
                                              std::span<const double> b);

/// Caller-owned scratch for the Thomas solve below, so repeated solves
/// (e.g. every backward-Euler substep of every Korhonen wire) allocate
/// nothing after the first call.
struct TridiagonalWorkspace {
  std::vector<double> c_prime;
  std::vector<double> d_prime;
};

/// Thomas algorithm for a tridiagonal system: `lower` has n-1 entries
/// (sub-diagonal), `diag` n, `upper` n-1. Writes the solution into `x`
/// (n entries), which may alias `rhs`; the band spans are read-only.
/// Scratch comes from `ws`, grown on first use and reused afterwards.
void solve_tridiagonal(std::span<const double> lower,
                       std::span<const double> diag,
                       std::span<const double> upper,
                       std::span<const double> rhs, std::span<double> x,
                       TridiagonalWorkspace& ws);

/// Euclidean norm.
[[nodiscard]] double norm2(std::span<const double> v);

}  // namespace dh::math
