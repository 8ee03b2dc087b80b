// Dense linear algebra kernels used by the MNA circuit solver, the
// thermal grid, and the PDN IR-drop solver, plus the Thomas algorithm used
// by the Korhonen EM PDE integrator.
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

  void fill(double v);

  /// y = A x.
  [[nodiscard]] std::vector<double> multiply(
      std::span<const double> x) const;

  [[nodiscard]] std::vector<double>& data() { return data_; }
  [[nodiscard]] const std::vector<double>& data() const { return data_; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// LU factorization with partial pivoting (in place), reusable for
/// repeated solves against the same matrix (e.g. linear circuits, thermal
/// grids with fixed conductances).
class LuFactorization {
 public:
  /// Factorizes a copy of `a`. Throws dh::Error if `a` is singular to
  /// working precision.
  explicit LuFactorization(const Matrix& a);

  /// Solves A x = b.
  [[nodiscard]] std::vector<double> solve(std::span<const double> b) const;

 private:
  Matrix lu_;
  std::vector<std::size_t> perm_;
};

/// One-shot dense solve: A x = b.
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
