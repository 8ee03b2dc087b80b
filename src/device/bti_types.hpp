// Shared vocabulary types for the BTI wearout/recovery models.
#pragma once

#include "common/units.hpp"

namespace dh::device {

/// An operating condition for a transistor's gate stack.
///
/// `gate_bias` follows the paper's Fig. 2a convention:
///   > 0  — stress (the magnitude of the stress overdrive),
///   = 0  — device OFF, passive recovery (paper condition No. 1/3),
///   < 0  — active recovery: negative Vsg applied (condition No. 2/4).
/// Temperature selects between room-temperature and accelerated recovery.
struct BtiCondition {
  Volts gate_bias{0.0};
  Celsius temperature{20.0};

  [[nodiscard]] bool is_stress() const { return gate_bias.value() > 0.0; }
};

/// The four recovery conditions of Table I (and the paper's accelerated
/// stress condition).
namespace paper_conditions {

/// Accelerated stress: "high voltage and temperature" (Section III-C).
[[nodiscard]] inline BtiCondition accelerated_stress() {
  return {Volts{1.2}, Celsius{110.0}};
}
/// No. 1: passive recovery, 20 °C and 0 V.
[[nodiscard]] inline BtiCondition recovery_no1() {
  return {Volts{0.0}, Celsius{20.0}};
}
/// No. 2: active recovery, 20 °C and −0.3 V.
[[nodiscard]] inline BtiCondition recovery_no2() {
  return {Volts{-0.3}, Celsius{20.0}};
}
/// No. 3: accelerated recovery, 110 °C and 0 V.
[[nodiscard]] inline BtiCondition recovery_no3() {
  return {Volts{0.0}, Celsius{110.0}};
}
/// No. 4: accelerated + active recovery, 110 °C and −0.3 V.
[[nodiscard]] inline BtiCondition recovery_no4() {
  return {Volts{-0.3}, Celsius{110.0}};
}

}  // namespace paper_conditions

/// Decomposition of the threshold-voltage shift into the paper's
/// recoverable and (quasi-)permanent parts.
struct BtiBreakdown {
  Volts recoverable{0.0};   // trapped-charge component (de-trappable)
  Volts unlocked{0.0};      // permanent-precursor, still annealable
  Volts locked{0.0};        // locked-in permanent component
  [[nodiscard]] Volts total() const {
    return recoverable + unlocked + locked;
  }
};

}  // namespace dh::device
