// Scalar root finding (Brent's method), used by the ring oscillator to
// invert a measured frequency into a Vth shift.
#pragma once

#include <functional>

namespace dh::math {

/// Finds x in [lo, hi] with f(x) = 0 by Brent's method. Requires
/// f(lo) and f(hi) to have opposite signs. Throws dh::ConvergenceError on
/// failure.
[[nodiscard]] double brent_root(const std::function<double(double)>& f,
                                double lo, double hi, double tol = 1e-10,
                                int max_iter = 200);

}  // namespace dh::math
