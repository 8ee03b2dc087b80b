#include "common/math/sparse/spd_solver.hpp"

#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/obs/metrics.hpp"

namespace dh::math::sparse {

namespace {

/// Quality target: a back-substituted solution at or below this true
/// relative residual is returned as is.
constexpr double kAcceptRelResidual = 1e-10;
/// Rejection bound after refinement. Severely ill-conditioned but
/// solvable systems (aged grids whose broken segments spread the
/// conductances across ~12 decades) bottom out around 1e-7 relative —
/// the double-precision floor dense LU shares — and are accepted with the
/// achieved residual reported in `SpdSolveInfo`. A genuinely
/// singular matrix (pivots made of rounding noise) stalls at O(1) and
/// throws.
constexpr double kRejectRelResidual = 1e-4;

}  // namespace

const char* to_string(SpdMethod m) {
  switch (m) {
    case SpdMethod::kTridiagonal:
      return "tridiagonal";
    case SpdMethod::kBandedCholesky:
      return "banded_cholesky";
  }
  return "unknown";
}

SpdSolver::SpdSolver(CsrMatrix a)
    : a_(std::move(a)), transpose_(a_.transpose_index()) {
  DH_REQUIRE(a_.rows() == a_.cols(), "SPD solver requires a square matrix");
  check_symmetric();
  if (a_.bandwidth() <= 1) {
    factor_.emplace<TridiagonalCholesky>(a_);
  } else {
    factor_.emplace<BandedCholesky>(a_);
  }
  factored_ = true;
}

void SpdSolver::check_symmetric() const {
  if (!a_.is_symmetric(transpose_)) {
    throw Error{"SPD solver requires a symmetric matrix; assembly produced "
                "an asymmetric one (" +
                std::to_string(a_.rows()) + "x" + std::to_string(a_.cols()) +
                ", " + std::to_string(a_.nnz()) + " nonzeros)"};
  }
}

void SpdSolver::refactor() {
  factored_ = false;
  check_symmetric();
  std::visit([this](auto& f) { f.factor(a_); }, factor_);
  factored_ = true;
}

const Preconditioner& SpdSolver::factor() const {
  return std::visit(
      [](const auto& f) -> const Preconditioner& { return f; }, factor_);
}

void SpdSolver::record(const SpdSolveInfo& info) const {
  static obs::Histogram& iters =
      obs::registry().histogram("solver.cg_iters", "iters");
  if (info.cg_iterations > 0) {
    iters.observe(static_cast<double>(info.cg_iterations));
  }
}

void SpdSolver::solve(std::span<const double> b, std::vector<double>& x,
                      SpdSolveInfo* info) {
  DH_REQUIRE(b.size() == a_.rows(), "SPD solve dimension mismatch");
  DH_REQUIRE(factored_, "SPD solve after a failed refactor");
  SpdSolveInfo local;
  local.method = method();
  const double b_norm = norm2(b);
  const auto relative = [b_norm](double r) {
    return b_norm > 0.0 ? r / b_norm : 0.0;
  };
  const Preconditioner& m = factor();
  m.apply(b, x);
  // Price the true residual (one O(nnz) product, cheap next to the
  // back-substitution it follows).
  a_.multiply(x, residual_);
  for (std::size_t i = 0; i < residual_.size(); ++i) {
    residual_[i] = b[i] - residual_[i];
  }
  local.residual_norm = norm2(residual_);
  if (relative(local.residual_norm) > kAcceptRelResidual) {
    // Ill-conditioned but solvable systems leave a rounding-sized gap
    // a direct factor cannot close in one sweep; iterative refinement
    // (CG on A preconditioned by the factor, warm-started from x)
    // drives it to the double-precision floor. What no engine can fix
    // is a genuinely singular matrix whose pivots were rounding noise:
    // its residual stays orders of magnitude above the floor.
    CgOptions refine;
    refine.rel_tolerance = kAcceptRelResidual;
    const CgResult res = pcg_solve(
        [this](std::span<const double> v, std::vector<double>& y) {
          a_.multiply(v, y);
        },
        b, m, x, refine, &cg_);
    local.cg_iterations = res.iterations;
    local.residual_norm = res.residual_norm;
    if (!res.converged &&
        relative(res.residual_norm) > kRejectRelResidual) {
      throw Error{std::string{to_string(local.method)} +
                  " solve stalled at relative residual " +
                  std::to_string(relative(res.residual_norm)) +
                  " even with refinement — matrix is singular (zero "
                  "pivot within rounding) or numerically unsolvable"};
    }
  }
  local.relative_residual = relative(local.residual_norm);
  record(local);
  if (info != nullptr) *info = local;
}

}  // namespace dh::math::sparse
