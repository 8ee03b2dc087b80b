// Symmetric positive-definite band matrix for the grid systems the
// healing stack solves repeatedly: PDN conductance meshes and thermal RC
// Laplacians. A rows x cols 5-point mesh has bandwidth min(rows, cols)
// (cols when numbered row by row), so the small grids this repo builds
// factor in O(n b^2) and solve in O(n b).
//
// Only the lower band is stored, so each off-diagonal entry exists once
// and the matrix is symmetric by construction. A caller assembles in
// place (clear, add_edge, add_diagonal), calls factor(), then solves;
// the factor and the solve workspace live in the object and are reused,
// so a repeated solve allocates nothing but its result. That workspace
// makes factor/solve non-reentrant: one matrix per thread.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace dh::math {

/// Per-solve observability: the true residual of the returned solution.
struct SpdSolveInfo {
  double residual_norm = 0.0;      // ||b - A x||_2
  double relative_residual = 0.0;  // residual_norm / ||b||_2 (0 for b=0)
};

class BandedSpd {
 public:
  /// An n x n zero matrix that can hold entries with |i - j| <= band.
  BandedSpd(std::size_t n, std::size_t band);

  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] std::size_t band() const { return band_; }

  /// Sets every entry to +0.0. Any change to the matrix must be followed
  /// by factor() before the next solve.
  void clear();

  /// Two-terminal conductance g between nodes a != b: adds g to both
  /// diagonals and -g to the off-diagonal.
  void add_edge(std::size_t a, std::size_t b, double g);

  /// Diagonal grounding term (pad conductance, vertical conductance).
  void add_diagonal(std::size_t i, double g);

  /// Entry (i, j) == (j, i); 0 outside the band.
  [[nodiscard]] double at(std::size_t i, std::size_t j) const;

  /// Cholesky-factors the current matrix. Throws dh::Error on a pivot
  /// below n * eps * max|diag| (not SPD, or singular to working
  /// precision, e.g. a conductance Laplacian with no pad path to VDD); a
  /// matrix whose factor threw refuses to solve until one succeeds.
  void factor();

  /// Solves A x = b into `x` (b must not alias x) by back-substitution
  /// through the factor. A solution whose true relative residual exceeds
  /// 1e-10, or is not finite, throws dh::Error: the matrix is singular
  /// to working precision (or too ill-conditioned for one direct sweep).
  void solve(std::span<const double> b, std::vector<double>& x,
             SpdSolveInfo* info = nullptr);

 private:
  [[nodiscard]] std::size_t slot(std::size_t i, std::size_t j) const {
    return i * (band_ + 1) + (i - j);  // j <= i <= j + band_
  }
  [[nodiscard]] std::size_t first_in_band(std::size_t i) const {
    return i > band_ ? i - band_ : 0;
  }
  void back_substitute(std::span<const double> b,
                       std::vector<double>& x) const;
  /// r = b - A x, each row summed in ascending column order.
  void residual(std::span<const double> b, std::span<const double> x,
                std::vector<double>& r) const;

  std::size_t n_;
  std::size_t band_;
  std::vector<double> a_;  // lower band, (band_+1) per row, row-major
  std::vector<double> l_;  // its Cholesky factor, same layout
  bool factored_ = false;
  std::vector<double> r_;  // residual workspace; meaningless between calls
};

}  // namespace dh::math
