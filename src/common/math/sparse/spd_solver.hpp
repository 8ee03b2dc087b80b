// Facade over the sparse engine: factors an SPD system directly, then
// back-substitutes.
//
// Method selection (see DESIGN.md "Solver engine"):
//   bandwidth <= 1  -> tridiagonal LDL^T   (1-D chains)
//   otherwise       -> banded Cholesky     (meshes)
// Asymmetric input throws dh::Error up front (the SPD contract is
// structural); an indefinite or singular matrix throws from the
// factorization with a descriptive pivot message.
//
// The sparsity pattern is fixed at construction. A caller whose values
// change (an aging grid) writes them into values() and calls refactor():
// the factor, the residual and the refinement workspace all live in the
// solver and are reused, so a repeated solve allocates nothing but its
// result. That workspace makes refactor/solve non-reentrant: one solver
// per thread.
#pragma once

#include <cstddef>
#include <span>
#include <variant>
#include <vector>

#include "common/math/sparse/cg.hpp"
#include "common/math/sparse/csr.hpp"
#include "common/math/sparse/direct.hpp"

namespace dh::math::sparse {

enum class SpdMethod { kTridiagonal, kBandedCholesky };

[[nodiscard]] const char* to_string(SpdMethod m);

/// Per-solve observability: which factor ran, how many refinement
/// iterations it needed, and the true residual of the returned solution.
struct SpdSolveInfo {
  SpdMethod method = SpdMethod::kTridiagonal;
  std::size_t cg_iterations = 0;
  double residual_norm = 0.0;   // ||b - A x||_2
  double relative_residual = 0.0;  // residual_norm / ||b||_2 (0 for b=0)
};

class SpdSolver {
 public:
  /// Takes A's pattern for good and factors A.
  explicit SpdSolver(CsrMatrix a);

  /// A's values, in the pattern's order. After writing them, call
  /// refactor() before the next solve.
  [[nodiscard]] std::span<double> values() { return a_.values(); }
  [[nodiscard]] const CsrMatrix& matrix() const { return a_; }

  /// Re-checks symmetry (O(nnz), through a transpose index built with the
  /// pattern) and re-factors A in place. Throws like the constructor; a
  /// solver whose refactor threw refuses to solve until one succeeds.
  void refactor();

  /// Solves A x = b into `x` (b must not alias x) by back-substitution
  /// through the factor. A solution whose true relative residual exceeds
  /// 1e-10 (an ill-conditioned system, e.g. an aged grid with 1e9-ohm
  /// broken segments) is refined by CG on A preconditioned by the factor;
  /// one still above 1e-4 after refinement throws dh::Error (singular to
  /// working precision). Records refinement work into the
  /// `solver.cg_iters` histogram.
  void solve(std::span<const double> b, std::vector<double>& x,
             SpdSolveInfo* info = nullptr);

  [[nodiscard]] SpdMethod method() const {
    return factor_.index() == 0 ? SpdMethod::kTridiagonal
                                : SpdMethod::kBandedCholesky;
  }

 private:
  void check_symmetric() const;
  void record(const SpdSolveInfo& info) const;
  [[nodiscard]] const Preconditioner& factor() const;

  CsrMatrix a_;
  std::vector<std::size_t> transpose_;  // a_.transpose_index()
  std::variant<TridiagonalCholesky, BandedCholesky> factor_;
  bool factored_ = false;
  std::vector<double> residual_;  // workspace: b - A x
  CgWorkspace cg_;                // workspace: refinement
};

}  // namespace dh::math::sparse
