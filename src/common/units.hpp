// Strong types for physical quantities.
//
// Every quantity that crosses a public API boundary is wrapped in a
// dimension-tagged type so that a Kelvin can never be passed where a
// Celsius is expected and a current density can never be confused with a
// current. Internal numerical kernels unwrap to double via .value().
#pragma once

#include <cmath>
#include <compare>

namespace dh {

/// Dimension-tagged scalar. Tag types are empty structs; one alias per
/// physical quantity below.
template <class Tag>
class Quantity {
 public:
  constexpr Quantity() = default;
  constexpr explicit Quantity(double v) : v_(v) {}

  [[nodiscard]] constexpr double value() const { return v_; }

  constexpr Quantity& operator+=(Quantity o) {
    v_ += o.v_;
    return *this;
  }
  constexpr Quantity& operator-=(Quantity o) {
    v_ -= o.v_;
    return *this;
  }
  constexpr Quantity& operator*=(double s) {
    v_ *= s;
    return *this;
  }
  constexpr Quantity& operator/=(double s) {
    v_ /= s;
    return *this;
  }

  friend constexpr Quantity operator+(Quantity a, Quantity b) {
    return Quantity{a.v_ + b.v_};
  }
  friend constexpr Quantity operator-(Quantity a, Quantity b) {
    return Quantity{a.v_ - b.v_};
  }
  friend constexpr Quantity operator-(Quantity a) { return Quantity{-a.v_}; }
  friend constexpr Quantity operator*(Quantity a, double s) {
    return Quantity{a.v_ * s};
  }
  friend constexpr Quantity operator*(double s, Quantity a) {
    return Quantity{a.v_ * s};
  }
  friend constexpr Quantity operator/(Quantity a, double s) {
    return Quantity{a.v_ / s};
  }
  /// Ratio of two same-dimension quantities is dimensionless.
  friend constexpr double operator/(Quantity a, Quantity b) {
    return a.v_ / b.v_;
  }
  friend constexpr auto operator<=>(Quantity a, Quantity b) = default;

 private:
  double v_ = 0.0;
};

struct SecondsTag {};
struct KelvinTag {};
struct CelsiusTag {};
struct VoltsTag {};
struct AmpsTag {};
struct OhmsTag {};
struct WattsTag {};
struct MetersTag {};
struct AmpsPerM2Tag {};  // current density
struct PascalsTag {};    // mechanical (EM hydrostatic) stress
struct HertzTag {};
struct FaradsTag {};
struct ElectronVoltsTag {};  // activation energies

using Seconds = Quantity<SecondsTag>;
using Kelvin = Quantity<KelvinTag>;
using Celsius = Quantity<CelsiusTag>;
using Volts = Quantity<VoltsTag>;
using Amps = Quantity<AmpsTag>;
using Ohms = Quantity<OhmsTag>;
using Watts = Quantity<WattsTag>;
using Meters = Quantity<MetersTag>;
using AmpsPerM2 = Quantity<AmpsPerM2Tag>;
using Pascals = Quantity<PascalsTag>;
using Hertz = Quantity<HertzTag>;
using Farads = Quantity<FaradsTag>;
using ElectronVolts = Quantity<ElectronVoltsTag>;

// ---- Temperature conversions -------------------------------------------

inline constexpr double kCelsiusOffset = 273.15;

[[nodiscard]] constexpr Kelvin to_kelvin(Celsius c) {
  return Kelvin{c.value() + kCelsiusOffset};
}

// ---- Duration helpers ----------------------------------------------------

[[nodiscard]] constexpr Seconds seconds(double s) { return Seconds{s}; }
[[nodiscard]] constexpr Seconds minutes(double m) { return Seconds{m * 60.0}; }
[[nodiscard]] constexpr Seconds hours(double h) { return Seconds{h * 3600.0}; }
[[nodiscard]] constexpr Seconds days(double d) { return Seconds{d * 86400.0}; }
[[nodiscard]] constexpr Seconds years(double y) {
  return Seconds{y * 365.25 * 86400.0};
}

[[nodiscard]] constexpr double in_minutes(Seconds s) {
  return s.value() / 60.0;
}
[[nodiscard]] constexpr double in_years(Seconds s) {
  return s.value() / (365.25 * 86400.0);
}

// ---- Scale helpers -------------------------------------------------------

[[nodiscard]] constexpr AmpsPerM2 mega_amps_per_cm2(double ma) {
  // 1 MA/cm^2 = 1e6 A / 1e-4 m^2 = 1e10 A/m^2.
  return AmpsPerM2{ma * 1e10};
}

// ---- A few physically meaningful cross-type operations ------------------

[[nodiscard]] constexpr Volts operator*(Amps i, Ohms r) {
  return Volts{i.value() * r.value()};
}
[[nodiscard]] constexpr Volts operator*(Ohms r, Amps i) { return i * r; }
[[nodiscard]] constexpr Amps operator/(Volts v, Ohms r) {
  return Amps{v.value() / r.value()};
}
[[nodiscard]] constexpr Watts operator*(Volts v, Amps i) {
  return Watts{v.value() * i.value()};
}

}  // namespace dh
