#include "common/math/sparse/cg.hpp"

#include <cmath>
#include <string>

#include "common/error.hpp"
#include "common/math/linalg.hpp"

namespace dh::math::sparse {

namespace {

double dot(std::span<const double> a, std::span<const double> b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

}  // namespace

CgResult pcg_solve(const LinearOp& apply_a, std::span<const double> b,
                   const Preconditioner& m, std::vector<double>& x,
                   const CgOptions& opts, CgWorkspace* workspace) {
  const std::size_t n = b.size();
  x.resize(n, 0.0);
  CgResult result;

  const double b_norm = norm2(b);
  // Absolute floor keeps the b = 0 case (and denormal-range b) exact.
  const double target = opts.rel_tolerance * b_norm + 1e-300;
  const std::size_t max_iter =
      opts.max_iterations > 0 ? opts.max_iterations : 10 * n + 200;

  CgWorkspace local;
  CgWorkspace& ws = workspace != nullptr ? *workspace : local;
  std::vector<double>& r = ws.r;
  std::vector<double>& z = ws.z;
  std::vector<double>& p = ws.p;
  std::vector<double>& ap = ws.ap;
  r.resize(n);
  apply_a(x, ap);
  for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - ap[i];

  double r_norm = norm2(r);
  std::vector<double>& best_x = ws.best_x;
  best_x.assign(x.begin(), x.end());
  double best_norm = r_norm;
  std::size_t last_gain_iter = 0;

  if (r_norm > target) {
    m.apply(r, z);
    double rz = dot(r, z);
    if (rz < 0.0) {
      throw Error{"PCG: preconditioner produced r'M^-1r = " +
                  std::to_string(rz) + " < 0 — preconditioner is not SPD"};
    }
    p.assign(z.begin(), z.end());
    for (std::size_t it = 1; it <= max_iter; ++it) {
      apply_a(p, ap);
      const double p_ap = dot(p, ap);
      if (!(p_ap > 0.0)) {
        // A genuine SPD operator gives p'Ap > 0 for every nonzero search
        // direction; anything else means the assembly broke the contract.
        throw Error{"PCG: curvature p'Ap = " + std::to_string(p_ap) +
                    " at iteration " + std::to_string(it) +
                    " — operator is not positive definite"};
      }
      const double alpha = rz / p_ap;
      for (std::size_t i = 0; i < n; ++i) x[i] += alpha * p[i];
      for (std::size_t i = 0; i < n; ++i) r[i] -= alpha * ap[i];
      result.iterations = it;
      r_norm = norm2(r);
      if (r_norm < best_norm) {
        if (r_norm < 0.99 * best_norm) last_gain_iter = it;
        best_norm = r_norm;
        best_x = x;
      }
      if (r_norm <= target) break;
      if (opts.stagnation_window > 0 &&
          it - last_gain_iter >= opts.stagnation_window) {
        break;  // rounding floor: return the best iterate found
      }
      m.apply(r, z);
      const double rz_new = dot(r, z);
      if (rz_new < 0.0) {
        throw Error{"PCG: preconditioner produced r'M^-1r = " +
                    std::to_string(rz_new) + " < 0 at iteration " +
                    std::to_string(it) + " — preconditioner is not SPD"};
      }
      const double beta = rz_new / rz;
      rz = rz_new;
      for (std::size_t i = 0; i < n; ++i) p[i] = z[i] + beta * p[i];
    }
  }

  x.swap(best_x);
  // Recurred residuals drift from the true one near the rounding floor;
  // report (and judge convergence by) the actual ||b - A x||.
  apply_a(x, ap);
  for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - ap[i];
  result.residual_norm = norm2(r);
  result.converged = result.residual_norm <= std::max(target, 1e-300);
  return result;
}

}  // namespace dh::math::sparse
