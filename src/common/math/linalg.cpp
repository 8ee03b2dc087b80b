#include "common/math/linalg.hpp"

#include <cmath>
#include <string>
#include <utility>

#include "common/error.hpp"

namespace dh::math {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

std::vector<double> solve_dense(const Matrix& a, std::span<const double> b) {
  DH_REQUIRE(a.rows() == a.cols(), "LU requires a square matrix");
  const std::size_t n = a.rows();
  DH_REQUIRE(b.size() == n, "rhs dimension mismatch");
  // LU with partial pivoting, in place on a copy of `a`.
  Matrix lu = a;
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivot.
    std::size_t pivot = k;
    double best = std::abs(lu(k, k));
    for (std::size_t r = k + 1; r < n; ++r) {
      const double v = std::abs(lu(r, k));
      if (v > best) {
        best = v;
        pivot = r;
      }
    }
    if (!(best > 1e-300) || !std::isfinite(best)) {
      // A vanishing pivot means the matrix is structurally singular (for
      // conductance matrices: a floating node with no path to any pad).
      // Report where elimination broke down instead of dividing by zero.
      throw Error{"LU factorization: pivot magnitude " +
                  std::to_string(best) + " at elimination column " +
                  std::to_string(k) + " of " + std::to_string(n) +
                  " — matrix is singular to working precision"};
    }
    if (pivot != k) {
      for (std::size_t c = 0; c < n; ++c) {
        std::swap(lu(k, c), lu(pivot, c));
      }
      std::swap(perm[k], perm[pivot]);
    }
    const double inv_pivot = 1.0 / lu(k, k);
    for (std::size_t r = k + 1; r < n; ++r) {
      const double factor = lu(r, k) * inv_pivot;
      lu(r, k) = factor;
      if (factor == 0.0) continue;
      for (std::size_t c = k + 1; c < n; ++c) {
        lu(r, c) -= factor * lu(k, c);
      }
    }
  }

  std::vector<double> x(n);
  // Apply permutation, forward substitution (unit lower).
  for (std::size_t i = 0; i < n; ++i) x[i] = b[perm[i]];
  for (std::size_t i = 1; i < n; ++i) {
    double acc = x[i];
    for (std::size_t j = 0; j < i; ++j) acc -= lu(i, j) * x[j];
    x[i] = acc;
  }
  // Back substitution (upper).
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = x[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= lu(ii, j) * x[j];
    x[ii] = acc / lu(ii, ii);
  }
  return x;
}

void solve_tridiagonal(std::span<const double> lower,
                       std::span<const double> diag,
                       std::span<const double> upper,
                       std::span<const double> rhs, std::span<double> x,
                       TridiagonalWorkspace& ws) {
  const std::size_t n = diag.size();
  DH_REQUIRE(n >= 1, "tridiagonal system must be non-empty");
  DH_REQUIRE(lower.size() == n - 1 && upper.size() == n - 1 &&
                 rhs.size() == n && x.size() == n,
             "tridiagonal band sizes inconsistent");
  ws.c_prime.resize(n);
  ws.d_prime.resize(n);
  double* const c_prime = ws.c_prime.data();
  double* const d_prime = ws.d_prime.data();
  DH_REQUIRE(std::abs(diag[0]) > 1e-300, "tridiagonal pivot underflow");
  c_prime[0] = n > 1 ? upper[0] / diag[0] : 0.0;
  d_prime[0] = rhs[0] / diag[0];
  for (std::size_t i = 1; i < n; ++i) {
    const double denom = diag[i] - lower[i - 1] * c_prime[i - 1];
    DH_REQUIRE(std::abs(denom) > 1e-300, "tridiagonal pivot underflow");
    if (i < n - 1) c_prime[i] = upper[i] / denom;
    d_prime[i] = (rhs[i] - lower[i - 1] * d_prime[i - 1]) / denom;
  }
  x[n - 1] = d_prime[n - 1];
  for (std::size_t ii = n - 1; ii-- > 0;) {
    x[ii] = d_prime[ii] - c_prime[ii] * x[ii + 1];
  }
}

double norm2(std::span<const double> v) {
  double acc = 0.0;
  for (const double x : v) acc += x * x;
  return std::sqrt(acc);
}

}  // namespace dh::math
