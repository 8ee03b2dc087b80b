#include "common/math/sparse/direct.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "common/error.hpp"

namespace dh::math::sparse {

namespace {

[[noreturn]] void raise_not_spd(const char* factor, std::size_t i,
                                std::size_t n, double pivot) {
  throw Error{std::string{factor} + ": pivot " + std::to_string(pivot) +
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

void TridiagonalCholesky::factor(const CsrMatrix& a) {
  DH_REQUIRE(a.rows() == a.cols(),
             "tridiagonal factorization requires a square matrix");
  DH_REQUIRE(a.bandwidth() <= 1,
             "tridiagonal factorization requires bandwidth <= 1");
  const std::size_t n = a.rows();
  d_.resize(n);
  l_.resize(n > 0 ? n - 1 : 0);
  double max_diag = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    max_diag = std::max(max_diag, std::abs(a.at(i, i)));
  }
  const double floor = pivot_floor(n, max_diag);
  double prev_d = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double di = a.at(i, i);
    if (i > 0) {
      const double e = a.at(i, i - 1);
      const double li = e / prev_d;
      l_[i - 1] = li;
      di -= li * e;
    }
    if (!(di > floor) || !std::isfinite(di)) {
      raise_not_spd("tridiagonal LDL^T", i, n, di);
    }
    d_[i] = di;
    prev_d = di;
  }
}

void TridiagonalCholesky::solve(std::span<const double> b,
                                std::vector<double>& x) const {
  const std::size_t n = d_.size();
  DH_REQUIRE(b.size() == n, "tridiagonal solve dimension mismatch");
  x.assign(b.begin(), b.end());
  for (std::size_t i = 1; i < n; ++i) x[i] -= l_[i - 1] * x[i - 1];
  for (std::size_t i = 0; i < n; ++i) x[i] /= d_[i];
  for (std::size_t i = n - 1; i-- > 0;) x[i] -= l_[i] * x[i + 1];
}

BandedCholesky::BandedCholesky(const CsrMatrix& a)
    : n_(a.rows()), band_(a.bandwidth()), l_(n_ * (band_ + 1)) {
  DH_REQUIRE(a.rows() == a.cols(),
             "banded Cholesky requires a square matrix");
  factor(a);
}

void BandedCholesky::factor(const CsrMatrix& a) {
  DH_REQUIRE(a.rows() == n_ && a.cols() == n_,
             "banded Cholesky refactor needs the size it was built for");
  std::fill(l_.begin(), l_.end(), 0.0);
  // Seed the band with A's lower triangle, then factor in place.
  const auto& ptr = a.row_ptr();
  const auto& col = a.col_idx();
  const auto& val = a.values();
  double max_diag = 0.0;
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t k = ptr[i]; k < ptr[i + 1]; ++k) {
      const std::size_t j = col[k];
      if (j > i) continue;
      DH_REQUIRE(i - j <= band_,
                 "banded Cholesky refactor: entry outside the band");
      l(i, j) = val[k];
      if (j == i) max_diag = std::max(max_diag, std::abs(val[k]));
    }
  }
  const double floor = pivot_floor(n_, max_diag);
  for (std::size_t i = 0; i < n_; ++i) {
    const std::size_t j0 = i > band_ ? i - band_ : 0;
    for (std::size_t j = j0; j < i; ++j) {
      double acc = l(i, j);
      const std::size_t k0 = std::max(j0, j > band_ ? j - band_ : 0);
      for (std::size_t k = k0; k < j; ++k) acc -= l(i, k) * l(j, k);
      l(i, j) = acc / l(j, j);
    }
    double acc = l(i, i);
    for (std::size_t k = j0; k < i; ++k) acc -= l(i, k) * l(i, k);
    if (!(acc > floor) || !std::isfinite(acc)) {
      raise_not_spd("banded Cholesky", i, n_, acc);
    }
    l(i, i) = std::sqrt(acc);
  }
}

void BandedCholesky::solve(std::span<const double> b,
                           std::vector<double>& x) const {
  DH_REQUIRE(b.size() == n_, "banded solve dimension mismatch");
  x.assign(b.begin(), b.end());
  // L y = b.
  for (std::size_t i = 0; i < n_; ++i) {
    double acc = x[i];
    const std::size_t j0 = i > band_ ? i - band_ : 0;
    for (std::size_t j = j0; j < i; ++j) acc -= l(i, j) * x[j];
    x[i] = acc / l(i, i);
  }
  // L^T x = y, scattered row-wise (row access only).
  for (std::size_t i = n_; i-- > 0;) {
    const double xi = x[i] / l(i, i);
    x[i] = xi;
    const std::size_t j0 = i > band_ ? i - band_ : 0;
    for (std::size_t j = j0; j < i; ++j) x[j] -= l(i, j) * xi;
  }
}

}  // namespace dh::math::sparse
