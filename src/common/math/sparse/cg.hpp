// Preconditioned conjugate gradients for the SPD systems in the healing
// stack (conductance Laplacians, thermal RC grids). SpdSolver uses it as
// iterative refinement: CG on A, preconditioned by A's own direct factor,
// closes the rounding gap one back-substitution leaves on ill-conditioned
// systems. The operator is a callback, not a matrix.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

namespace dh::math::sparse {

/// y = A x. `y` is sized by the callee (CsrMatrix::multiply matches).
using LinearOp =
    std::function<void(std::span<const double>, std::vector<double>&)>;

/// z = M^-1 r for an SPD approximation M of the system matrix.
class Preconditioner {
 public:
  virtual ~Preconditioner() = default;
  virtual void apply(std::span<const double> r,
                     std::vector<double>& z) const = 0;
};

/// M = I (plain CG).
class IdentityPreconditioner final : public Preconditioner {
 public:
  void apply(std::span<const double> r,
             std::vector<double>& z) const override {
    z.assign(r.begin(), r.end());
  }
};

struct CgOptions {
  /// Converged when ||r||_2 <= rel_tolerance * ||b||_2 (plus a tiny
  /// absolute floor so b = 0 returns x = 0 immediately).
  double rel_tolerance = 1e-13;
  /// 0 = automatic: 10 n + 200. CG in exact arithmetic needs <= n.
  std::size_t max_iterations = 0;
  /// Abort early when the residual has not improved by at least 1% over
  /// this many iterations (rounding floor reached); the best iterate so
  /// far is returned. 0 disables.
  std::size_t stagnation_window = 50;
};

struct CgResult {
  std::size_t iterations = 0;
  double residual_norm = 0.0;  // ||b - A x||_2 of the returned iterate
  bool converged = false;
};

/// pcg_solve's scratch vectors. A caller that solves repeatedly keeps
/// one and passes it in, so a solve allocates nothing once the vectors
/// have grown to size. Contents between calls are meaningless.
struct CgWorkspace {
  std::vector<double> r, z, p, ap, best_x;
};

/// Solves A x = b with preconditioner M, starting from the contents of
/// `x` (resize/zero it for a cold start). Returns the best iterate found.
/// Scratch lives in `workspace` when given, else in locals. Throws
/// dh::Error when A or M is detected indefinite (p'Ap <= 0 or
/// r'M^-1r < 0 — the SPD contract is broken, e.g. an asymmetric or
/// negative-conductance assembly).
CgResult pcg_solve(const LinearOp& apply_a, std::span<const double> b,
                   const Preconditioner& m, std::vector<double>& x,
                   const CgOptions& opts = {},
                   CgWorkspace* workspace = nullptr);

}  // namespace dh::math::sparse
