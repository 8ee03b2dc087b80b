#include "common/math/roots.hpp"

#include <cmath>

#include "common/error.hpp"

namespace dh::math {

double brent_root(const std::function<double(double)>& f, double lo,
                  double hi, double tol, int max_iter) {
  double a = lo;
  double b = hi;
  double fa = f(a);
  double fb = f(b);
  DH_REQUIRE(fa * fb <= 0.0, "Brent's method requires a sign change");
  if (fa == 0.0) return a;
  if (fb == 0.0) return b;
  double c = a;
  double fc = fa;
  double d = b - a;
  double e = d;
  for (int iter = 0; iter < max_iter; ++iter) {
    if (std::abs(fc) < std::abs(fb)) {
      a = b;
      b = c;
      c = a;
      fa = fb;
      fb = fc;
      fc = fa;
    }
    const double tol1 = 2.0 * 1e-16 * std::abs(b) + 0.5 * tol;
    const double xm = 0.5 * (c - b);
    if (std::abs(xm) <= tol1 || fb == 0.0) return b;
    if (std::abs(e) >= tol1 && std::abs(fa) > std::abs(fb)) {
      const double s = fb / fa;
      double p;
      double q;
      if (a == c) {
        p = 2.0 * xm * s;
        q = 1.0 - s;
      } else {
        const double qq = fa / fc;
        const double r = fb / fc;
        p = s * (2.0 * xm * qq * (qq - r) - (b - a) * (r - 1.0));
        q = (qq - 1.0) * (r - 1.0) * (s - 1.0);
      }
      if (p > 0.0) q = -q;
      p = std::abs(p);
      const double min1 = 3.0 * xm * q - std::abs(tol1 * q);
      const double min2 = std::abs(e * q);
      if (2.0 * p < std::min(min1, min2)) {
        e = d;
        d = p / q;
      } else {
        d = xm;
        e = d;
      }
    } else {
      d = xm;
      e = d;
    }
    a = b;
    fa = fb;
    if (std::abs(d) > tol1) {
      b += d;
    } else {
      b += xm > 0.0 ? tol1 : -tol1;
    }
    fb = f(b);
    if ((fb > 0.0) == (fc > 0.0)) {
      c = a;
      fc = fa;
      d = b - a;
      e = d;
    }
  }
  throw ConvergenceError("Brent's method failed to converge");
}

}  // namespace dh::math
