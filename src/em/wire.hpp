// Wire geometry and resistance model for the EM test structure.
//
// The paper's structure (Fig. 3): an on-chip "long and narrow" copper wire
// in 0.18 um technology, top metal (M6), dual damascene:
// 2.673 mm x 1.57 um x 0.8 um, 35.76 Ohm at room temperature.
#pragma once

#include "common/units.hpp"

namespace dh::em {

struct WireGeometry {
  Meters length{2.673e-3};
  Meters width{1.57e-6};
  Meters thickness{0.8e-6};
  /// Effective copper resistivity at the reference temperature (Ohm*m).
  double resistivity_ref = 1.680e-8;
  Celsius reference_temperature{20.0};
  /// Temperature coefficient of resistance (1/K).
  double tcr_per_k = 3.93e-3;
  /// Resistance per meter of the refractory liner/barrier that shunts
  /// current past a void (TaN-class liner, tens of nm thick).
  double liner_ohm_per_m = 6.25e7;

  [[nodiscard]] double cross_section_m2() const {
    return width.value() * thickness.value();
  }
  /// Resistivity at temperature t.
  [[nodiscard]] double resistivity_at(Kelvin t) const;
  /// Resistance of the pristine wire at temperature t.
  [[nodiscard]] Ohms resistance_at(Kelvin t) const;
  /// Resistance with a total void length `void_len` shunted through the
  /// liner.
  [[nodiscard]] Ohms resistance_with_void(Kelvin t, Meters void_len) const;
  /// Current through the wire for a given current density.
  [[nodiscard]] Amps current_for_density(AmpsPerM2 j) const;
};

/// The exact structure of the paper's Fig. 3 (35.76 Ohm at room T).
[[nodiscard]] WireGeometry paper_wire();

}  // namespace dh::em
