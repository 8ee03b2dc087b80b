// Electromigration material/kinetics parameters (Korhonen model inputs).
//
// Defaults are set inside copper-literature ranges and chosen so that at
// the paper's accelerated condition — 230 C and 7.96 MA/cm^2 — the void
// nucleation time lands near the ~6 h mark of Fig. 5 and void growth
// produces ~0.4 Ohm/h of liner-shunted resistance rise. Derivation in
// DESIGN.md §5.
#pragma once

#include "common/units.hpp"

namespace dh::em {

struct EmMaterialParams {
  /// Effective charge number Z* of the electron wind (dimensionless).
  double z_eff = 1.0;
  /// Diffusivity prefactor D0 (m^2/s) and activation energy.
  double d0_m2_per_s = 3.4e-8;
  ElectronVolts diffusion_ea{0.90};
  /// Effective bulk modulus B of the confined line (Pa).
  double bulk_modulus_pa = 1.0e11;
  /// Atomic volume Omega (m^3).
  double atomic_volume_m3 = 1.182e-29;
  /// Critical tensile stress for void nucleation.
  Pascals critical_stress{4.0e8};
  /// Void length at which the line is considered mechanically broken
  /// (liner can no longer carry the current).
  Meters break_void_length{60e-9};
  /// Void-immobilization ("permanent component") kinetics: mobile void
  /// length converts first-order into unhealable length with rate
  /// 1/tau(T) = (1/fix_tau0) * exp(-fix_ea/kT). At 230 C the default
  /// gives tau ~ 24 h.
  double fix_tau0_s = 7.65e-7;
  ElectronVolts fix_ea{1.10};
  /// Fraction of the vacancy flux that grows the current-constricting
  /// slit void (the remainder spreads as distributed porosity with no
  /// resistance signature). Healing refills the slit first, at full
  /// efficiency — one of the two reasons active recovery outpaces growth.
  double slit_efficiency = 0.35;
  /// Current-crowding thermal resistance at the void constriction (K/W):
  /// the liner shunt dissipates I^2*dR locally and raises the local
  /// diffusivity — the second reason recovery under reverse current is
  /// fast (and a real effect in Cu interconnect healing experiments).
  double void_crowding_theta_k_per_w = 1550.0;

  /// Atomic diffusivity at temperature t (m^2/s).
  [[nodiscard]] double diffusivity(Kelvin t) const;
  /// Korhonen effective diffusivity kappa = Da*B*Omega/kT (m^2/s).
  [[nodiscard]] double kappa(Kelvin t) const;
  /// EM driving force G = e*Z*rho(T)*j / Omega (Pa/m); needs the wire's
  /// resistivity at temperature.
  [[nodiscard]] double driving_force(double resistivity_ohm_m,
                                     AmpsPerM2 j) const;
  /// First-order immobilization rate at temperature t (1/s).
  [[nodiscard]] double fix_rate(Kelvin t) const;
  /// Critical Blech product 2*sigma_c*Omega/(e*Z*rho): below this j*L the
  /// back-stress alone suppresses EM (immortal wire).
  [[nodiscard]] double blech_threshold(double resistivity_ohm_m) const;
};

/// Parameters used for the Fig. 5-7 reproductions.
[[nodiscard]] EmMaterialParams paper_calibrated_em_material();

}  // namespace dh::em
