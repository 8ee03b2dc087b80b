#include "em/wire.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace dh::em {

double WireGeometry::resistivity_at(Kelvin t) const {
  const double dt = t.value() - to_kelvin(reference_temperature).value();
  return resistivity_ref * (1.0 + tcr_per_k * dt);
}

Ohms WireGeometry::resistance_at(Kelvin t) const {
  DH_REQUIRE(cross_section_m2() > 0.0, "wire has zero cross section");
  return Ohms{resistivity_at(t) * length.value() / cross_section_m2()};
}

Ohms WireGeometry::resistance_with_void(Kelvin t, Meters void_len) const {
  DH_REQUIRE(void_len.value() >= 0.0, "void length cannot be negative");
  const double lv = std::min(void_len.value(), length.value());
  const double copper =
      resistivity_at(t) * (length.value() - lv) / cross_section_m2();
  const double liner = liner_ohm_per_m * lv;
  return Ohms{copper + liner};
}

Amps WireGeometry::current_for_density(AmpsPerM2 j) const {
  return Amps{j.value() * cross_section_m2()};
}

WireGeometry paper_wire() { return WireGeometry{}; }

}  // namespace dh::em
