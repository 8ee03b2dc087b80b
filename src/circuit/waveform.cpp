#include "circuit/waveform.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/math/interp.hpp"

namespace dh::circuit {

Waveform Waveform::dc(double value) {
  Waveform w;
  w.kind_ = Kind::kDc;
  w.dc_ = value;
  return w;
}

Waveform Waveform::pwl(std::vector<double> times, std::vector<double> values) {
  DH_REQUIRE(times.size() == values.size() && times.size() >= 2,
             "PWL needs >= 2 matched points");
  DH_REQUIRE(std::is_sorted(times.begin(), times.end()),
             "PWL times must be increasing");
  Waveform w;
  w.kind_ = Kind::kPwl;
  w.times_ = std::move(times);
  w.values_ = std::move(values);
  return w;
}

Waveform Waveform::step(double v1, double v2, double t0_s, double ramp_s) {
  return pwl({t0_s - 1.0, t0_s, t0_s + ramp_s, t0_s + ramp_s + 1.0},
             {v1, v1, v2, v2});
}

double Waveform::value(double t_s) const {
  switch (kind_) {
    case Kind::kDc:
      return dc_;
    case Kind::kPwl:
      return math::interp_linear(times_, values_, t_s);
  }
  return 0.0;
}

}  // namespace dh::circuit
