// Facade over the sparse engine: factors an SPD system directly, then
// back-substitutes.
//
// Method selection (see DESIGN.md "Solver engine"):
//   bandwidth <= 1  -> tridiagonal LDL^T   (1-D chains)
//   otherwise       -> banded Cholesky     (meshes)
// Asymmetric input throws dh::Error up front (the SPD contract is
// structural); an indefinite or singular matrix throws from the
// factorization with a descriptive pivot message.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "common/math/sparse/cg.hpp"
#include "common/math/sparse/csr.hpp"

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
  explicit SpdSolver(CsrMatrix a);

  /// Solves A x = b by back-substitution through the factor. A solution
  /// whose true relative residual exceeds 1e-10 (an ill-conditioned
  /// system, e.g. an aged grid with 1e9-ohm broken segments) is refined
  /// by CG on A preconditioned by the factor; one still above 1e-4 after
  /// refinement throws dh::Error (singular to working precision).
  /// Records into the `solver.cg_iters` histogram / `solver.residual`
  /// gauge.
  [[nodiscard]] std::vector<double> solve(std::span<const double> b,
                                          SpdSolveInfo* info = nullptr) const;

  [[nodiscard]] SpdMethod method() const { return method_; }

 private:
  void record(const SpdSolveInfo& info) const;

  CsrMatrix a_;
  SpdMethod method_;
  std::unique_ptr<Preconditioner> factor_;  // tridiagonal or banded
};

}  // namespace dh::math::sparse
