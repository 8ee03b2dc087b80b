#include "core/rejuvenation_planner.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/error.hpp"

namespace dh::core {

EmSchedule plan_em_recovery(const EmPlanningInput& input) {
  DH_REQUIRE(input.stress_budget > 0.0 && input.stress_budget < 1.0,
             "stress budget must be in (0,1)");
  EmSchedule out;
  const Kelvin t = to_kelvin(input.temperature);
  const double rho = input.wire.resistivity_at(t);
  const double j_abs = std::abs(input.operating_density.value());
  if (j_abs == 0.0) {
    out.nucleation_margin_factor = 1.0;
    return out;
  }
  // Blech immortality: back-stress alone holds the line below critical.
  const double blech = j_abs * input.wire.length.value();
  if (blech < input.material.blech_threshold(rho) * input.stress_budget) {
    out.nucleation_margin_factor = 1e9;  // effectively immortal
    return out;
  }
  const double g =
      input.material.driving_force(rho, AmpsPerM2{j_abs});
  const double kappa = input.material.kappa(t);
  // Peak stress under an effective (duty-averaged) drive at end of life:
  //   sigma = 2*G_eff*sqrt(kappa*T/pi)  (semi-infinite growth, the worst
  //   case for a long line).
  const double sigma_life =
      2.0 * g * std::sqrt(kappa * input.lifetime.value() / std::numbers::pi);
  const double sigma_max =
      input.stress_budget * input.material.critical_stress.value();
  if (sigma_life <= sigma_max) {
    out.nucleation_margin_factor = sigma_max / sigma_life;
    return out;  // never reaches the budget: no recovery intervals needed
  }
  const double duty = sigma_max / sigma_life;  // G_eff/G required
  // Forward interval chosen so the within-period stress ripple stays below
  // 10% of the budget.
  const double ripple_target = 0.1 * sigma_max;
  const double tf =
      std::numbers::pi / kappa * std::pow(ripple_target / (2.0 * g), 2.0);
  out.forward_interval = Seconds{std::max(tf, 60.0)};
  out.reverse_interval =
      Seconds{out.forward_interval.value() * (1.0 - duty) / (1.0 + duty)};
  // Nucleation time scales as 1/G_eff^2.
  out.nucleation_margin_factor = 1.0 / (duty * duty);
  return out;
}

}  // namespace dh::core
