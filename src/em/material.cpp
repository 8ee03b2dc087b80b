#include "em/material.hpp"

#include <cmath>

#include "common/arrhenius.hpp"
#include "common/constants.hpp"
#include "common/error.hpp"

namespace dh::em {

double EmMaterialParams::diffusivity(Kelvin t) const {
  return d0_m2_per_s * boltzmann_factor(diffusion_ea, t);
}

double EmMaterialParams::kappa(Kelvin t) const {
  const double kt_j = constants::kBoltzmannJ * t.value();
  return diffusivity(t) * bulk_modulus_pa * atomic_volume_m3 / kt_j;
}

double EmMaterialParams::driving_force(double resistivity_ohm_m,
                                       AmpsPerM2 j) const {
  return constants::kElementaryCharge * z_eff * resistivity_ohm_m *
         j.value() / atomic_volume_m3;
}

double EmMaterialParams::fix_rate(Kelvin t) const {
  return 1.0 / fix_tau0_s * boltzmann_factor(fix_ea, t);
}

double EmMaterialParams::blech_threshold(double resistivity_ohm_m) const {
  DH_REQUIRE(resistivity_ohm_m > 0.0, "resistivity must be positive");
  return 2.0 * critical_stress.value() * atomic_volume_m3 /
         (constants::kElementaryCharge * z_eff * resistivity_ohm_m);
}

EmMaterialParams paper_calibrated_em_material() { return EmMaterialParams{}; }

}  // namespace dh::em
