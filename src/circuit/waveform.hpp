// Source waveforms for the circuit simulator: DC and piecewise-linear
// (a step is a four-point PWL), the SPICE primitives the Fig. 9 assist
// transients need.
#pragma once

#include <vector>

#include "common/units.hpp"

namespace dh::circuit {

class Waveform {
 public:
  /// Constant value.
  [[nodiscard]] static Waveform dc(double value);

  /// Piecewise linear through (time, value) points (times increasing);
  /// clamps outside the range.
  [[nodiscard]] static Waveform pwl(std::vector<double> times,
                                    std::vector<double> values);

  /// A single step from v1 to v2 at t0 with linear transition `ramp_s`.
  [[nodiscard]] static Waveform step(double v1, double v2, double t0_s,
                                     double ramp_s = 1e-12);

  [[nodiscard]] double value(double t_s) const;

 private:
  Waveform() = default;
  enum class Kind { kDc, kPwl } kind_ = Kind::kDc;
  double dc_ = 0.0;
  // pwl
  std::vector<double> times_;
  std::vector<double> values_;
};

}  // namespace dh::circuit
