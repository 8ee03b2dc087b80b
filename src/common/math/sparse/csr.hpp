// Compressed-sparse-row matrix for the 5-point-stencil systems the
// healing stack solves repeatedly: PDN conductance meshes and thermal RC
// Laplacians carry ~5 nonzeros per row, so dense storage (O(n^2)) and LU
// (O(n^3)) stop scaling long before the grid sizes the system-level
// experiments want. CSR keeps assembly, matrix-vector products, and the
// factorizations in src/common/math/sparse/ at O(nnz).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/math/linalg.hpp"

namespace dh::math::sparse {

/// Immutable CSR matrix of doubles. Column indices are sorted and unique
/// within each row (CsrBuilder guarantees this).
class CsrMatrix {
 public:
  CsrMatrix() = default;
  CsrMatrix(std::size_t rows, std::size_t cols,
            std::vector<std::size_t> row_ptr, std::vector<std::size_t> col_idx,
            std::vector<double> values);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t nnz() const { return values_.size(); }

  [[nodiscard]] const std::vector<std::size_t>& row_ptr() const {
    return row_ptr_;
  }
  [[nodiscard]] const std::vector<std::size_t>& col_idx() const {
    return col_idx_;
  }
  [[nodiscard]] const std::vector<double>& values() const { return values_; }
  /// Mutable values with the fixed sparsity pattern (e.g. bumping the
  /// diagonal for a backward-Euler shift without re-assembly).
  [[nodiscard]] std::vector<double>& values() { return values_; }

  /// `find`'s answer for an entry outside the pattern.
  static constexpr std::size_t kAbsent = static_cast<std::size_t>(-1);

  /// Position of entry (r, c) in values(), or kAbsent. Binary search
  /// within the row — for set-up (scatter maps), not inner loops.
  [[nodiscard]] std::size_t find(std::size_t r, std::size_t c) const;

  /// Entry (r, c); 0 when outside the pattern (a `find`, so the same
  /// caveat applies).
  [[nodiscard]] double at(std::size_t r, std::size_t c) const;

  /// y = A x (y is resized; no allocation when already n long).
  void multiply(std::span<const double> x, std::vector<double>& y) const;
  [[nodiscard]] std::vector<double> multiply(std::span<const double> x) const;

  /// Max |r - c| over stored entries (0 for diagonal/empty).
  [[nodiscard]] std::size_t bandwidth() const;

  /// For each stored entry (r, c), the position of its mirror (c, r), or
  /// kAbsent when the pattern lacks it. Depends on the pattern only, so a
  /// fixed-pattern user builds it once.
  [[nodiscard]] std::vector<std::size_t> transpose_index() const;

  /// Exact structural and value symmetry (A(r,c) == A(c,r) bit-for-bit;
  /// the assembly paths add both halves from the same expression).
  /// O(nnz) given this pattern's transpose_index().
  [[nodiscard]] bool is_symmetric(
      std::span<const std::size_t> transpose) const;
  [[nodiscard]] bool is_symmetric() const {
    return is_symmetric(transpose_index());
  }

  /// Dense copy, for tests (the dense-LU agreement oracle).
  [[nodiscard]] Matrix to_dense() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> row_ptr_;  // rows_ + 1 entries
  std::vector<std::size_t> col_idx_;  // nnz entries, sorted per row
  std::vector<double> values_;        // nnz entries
};

/// Accumulating builder: add() duplicates sum, build() sorts each row and
/// merges. Stencil-aware helpers cover the two assembly patterns in the
/// repo (graph Laplacians from two-terminal conductances, plus diagonal
/// grounding terms), so a grid assembles in one pass over its segments.
class CsrBuilder {
 public:
  CsrBuilder(std::size_t rows, std::size_t cols,
             std::size_t reserve_per_row = 6);

  /// Accumulate v into (r, c).
  void add(std::size_t r, std::size_t c, double v);

  /// Two-terminal conductance between nodes a and b: adds g to both
  /// diagonals and -g to both off-diagonals (keeps the matrix symmetric
  /// by construction).
  void add_edge(std::size_t a, std::size_t b, double g);

  /// Diagonal grounding term (pad conductance, vertical conductance,
  /// backward-Euler C/dt shift).
  void add_diagonal(std::size_t i, double g) { add(i, i, g); }

  /// Sort + merge into an immutable CSR. The builder is left empty.
  [[nodiscard]] CsrMatrix build();

 private:
  struct Entry {
    std::size_t col;
    double v;
  };
  std::size_t rows_;
  std::size_t cols_;
  std::vector<std::vector<Entry>> row_entries_;
};

}  // namespace dh::math::sparse
