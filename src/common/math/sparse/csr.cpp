#include "common/math/sparse/csr.hpp"

#include <algorithm>
#include <cstdlib>

#include "common/error.hpp"

namespace dh::math::sparse {

CsrMatrix::CsrMatrix(std::size_t rows, std::size_t cols,
                     std::vector<std::size_t> row_ptr,
                     std::vector<std::size_t> col_idx,
                     std::vector<double> values)
    : rows_(rows),
      cols_(cols),
      row_ptr_(std::move(row_ptr)),
      col_idx_(std::move(col_idx)),
      values_(std::move(values)) {
  DH_REQUIRE(row_ptr_.size() == rows_ + 1, "CSR row_ptr must have rows+1 entries");
  DH_REQUIRE(row_ptr_.front() == 0 && row_ptr_.back() == col_idx_.size(),
             "CSR row_ptr must span [0, nnz]");
  DH_REQUIRE(col_idx_.size() == values_.size(),
             "CSR col_idx/values size mismatch");
}

std::size_t CsrMatrix::find(std::size_t r, std::size_t c) const {
  DH_REQUIRE(r < rows_ && c < cols_, "CSR index out of range");
  const auto begin = col_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[r]);
  const auto end = col_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[r + 1]);
  const auto it = std::lower_bound(begin, end, c);
  if (it == end || *it != c) return kAbsent;
  return static_cast<std::size_t>(it - col_idx_.begin());
}

double CsrMatrix::at(std::size_t r, std::size_t c) const {
  const std::size_t k = find(r, c);
  return k == kAbsent ? 0.0 : values_[k];
}

void CsrMatrix::multiply(std::span<const double> x,
                         std::vector<double>& y) const {
  DH_REQUIRE(x.size() == cols_, "CSR matrix-vector dimension mismatch");
  y.resize(rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      acc += values_[k] * x[col_idx_[k]];
    }
    y[r] = acc;
  }
}

std::vector<double> CsrMatrix::multiply(std::span<const double> x) const {
  std::vector<double> y;
  multiply(x, y);
  return y;
}

std::size_t CsrMatrix::bandwidth() const {
  std::size_t band = 0;
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      const std::size_t c = col_idx_[k];
      band = std::max(band, r > c ? r - c : c - r);
    }
  }
  return band;
}

std::vector<std::size_t> CsrMatrix::transpose_index() const {
  std::vector<std::size_t> t(nnz(), kAbsent);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      const std::size_t c = col_idx_[k];
      if (c < rows_ && r < cols_) t[k] = find(c, r);
    }
  }
  return t;
}

bool CsrMatrix::is_symmetric(std::span<const std::size_t> transpose) const {
  DH_REQUIRE(transpose.size() == nnz(),
             "transpose index does not match this pattern");
  if (rows_ != cols_) return false;
  for (std::size_t k = 0; k < transpose.size(); ++k) {
    if (transpose[k] == k) continue;  // diagonal
    if (transpose[k] == kAbsent || values_[transpose[k]] != values_[k]) {
      return false;
    }
  }
  return true;
}

Matrix CsrMatrix::to_dense() const {
  Matrix m(rows_, cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      m(r, col_idx_[k]) += values_[k];
    }
  }
  return m;
}

CsrBuilder::CsrBuilder(std::size_t rows, std::size_t cols,
                       std::size_t reserve_per_row)
    : rows_(rows), cols_(cols), row_entries_(rows) {
  DH_REQUIRE(rows >= 1 && cols >= 1, "CSR dimensions must be positive");
  for (auto& row : row_entries_) row.reserve(reserve_per_row);
}

void CsrBuilder::add(std::size_t r, std::size_t c, double v) {
  DH_REQUIRE(r < rows_ && c < cols_, "CSR builder index out of range");
  row_entries_[r].push_back({c, v});
}

void CsrBuilder::add_edge(std::size_t a, std::size_t b, double g) {
  DH_REQUIRE(a != b, "edge endpoints must differ");
  add(a, a, g);
  add(b, b, g);
  add(a, b, -g);
  add(b, a, -g);
}

CsrMatrix CsrBuilder::build() {
  std::vector<std::size_t> row_ptr(rows_ + 1, 0);
  std::vector<std::size_t> col_idx;
  std::vector<double> values;
  std::size_t nnz_bound = 0;
  for (const auto& row : row_entries_) nnz_bound += row.size();
  col_idx.reserve(nnz_bound);
  values.reserve(nnz_bound);
  for (std::size_t r = 0; r < rows_; ++r) {
    auto& row = row_entries_[r];
    std::sort(row.begin(), row.end(),
              [](const Entry& x, const Entry& y) { return x.col < y.col; });
    std::size_t i = 0;
    while (i < row.size()) {
      const std::size_t c = row[i].col;
      double acc = 0.0;
      while (i < row.size() && row[i].col == c) acc += row[i++].v;
      col_idx.push_back(c);
      values.push_back(acc);
    }
    row_ptr[r + 1] = col_idx.size();
    row.clear();
  }
  return CsrMatrix{rows_, cols_, std::move(row_ptr), std::move(col_idx),
                   std::move(values)};
}

}  // namespace dh::math::sparse
