// RejuvenationPlanner: turns active EM recovery into a design procedure —
// place reverse-current recovery intervals so a line's peak stress
// stays below void nucleation over its target lifetime.
#pragma once

#include "common/units.hpp"
#include "em/compact_em.hpp"

namespace dh::core {

struct EmSchedule {
  /// Reverse-current interval to insert after every `forward_interval` of
  /// operation so the line never reaches the critical stress.
  Seconds forward_interval{0.0};
  Seconds reverse_interval{0.0};
  /// Nucleation-time improvement factor vs no recovery (>= 1).
  double nucleation_margin_factor = 1.0;
};

struct EmPlanningInput {
  em::WireGeometry wire{};
  em::EmMaterialParams material{};
  AmpsPerM2 operating_density{0.0};
  Celsius temperature{85.0};
  Seconds lifetime{years(5.0)};
  /// Allowed fraction of critical stress at any time (safety margin).
  double stress_budget = 0.7;
};

/// Chooses the duty cycle of EM active recovery so the peak line stress
/// stays below `stress_budget * sigma_crit` across the whole lifetime.
/// Returns a zero-length reverse interval when the wire is already
/// immortal (Blech) or never reaches the budget within the lifetime.
[[nodiscard]] EmSchedule plan_em_recovery(const EmPlanningInput& input);

}  // namespace dh::core
