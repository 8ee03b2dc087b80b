// Capture/emission trap-ensemble model of the recoverable BTI component.
//
// The mainstream physical picture of BTI (which the paper cites via
// Mahapatra and Grasser) is an ensemble of oxide/interface traps with
// widely distributed capture and emission time constants. We discretize
// the ensemble over the *emission* activation energy Ea. Each bin i has
//
//   capture  rate  rc_i = 1/tau0c * exp(-(Ea_i + delta_ce)/kT) * exp( V/V0c)   (V > 0)
//   emission rate  re_i = 1/tau0e * exp(- Ea_i            /kT) * exp(|V|/V0e)  (V < 0)
//
// so that a *negative* gate bias accelerates emission (the paper's
// "activated" recovery) and temperature accelerates both (the paper's
// "accelerated" recovery) — exactly the four quadrants of Fig. 2a.
// During stress, emission is field-suppressed by exp(-V/V0e).
//
// Over a constant-condition interval each bin relaxes analytically toward
// its equilibrium occupancy, which makes the update unconditionally stable
// for arbitrarily long steps.
#pragma once

#include <cstddef>
#include <vector>

#include "device/bti_types.hpp"

namespace dh::device {

/// Piecewise-constant trap density over emission activation energy.
/// `breakpoints` has N+1 increasing entries (eV); `segment_weights` has N
/// entries and is normalized to sum to 1 on construction.
struct TrapDensity {
  std::vector<double> breakpoints;
  std::vector<double> segment_weights;
};

struct TrapEnsembleParams {
  TrapDensity density;
  double tau0_capture_s = 1e-10;   // capture attempt time
  double tau0_emission_s = 1e-10;  // emission attempt time
  double v0_capture = 0.075;       // V per e-fold of capture acceleration
  double v0_emission = 0.075;      // V per e-fold of emission acceleration
  double v0_suppress = 0.075;      // V per e-fold of emission suppression under stress
  double delta_ce_ev = 0.3962;     // capture barrier excess over emission barrier
  Volts dvth_max{0.052};           // Vth shift with every trap occupied
  std::size_t bins = 240;
};

class TrapEnsemble {
 public:
  explicit TrapEnsemble(TrapEnsembleParams params);

  /// Advance the ensemble for `dt` under a constant condition.
  void apply(const BtiCondition& condition, Seconds dt);

  /// Reset to the fresh (all traps empty) state.
  void reset();

  /// Vth shift contributed by currently occupied traps.
  [[nodiscard]] Volts delta_vth() const;

  /// Weighted fraction of traps occupied, in [0, 1].
  [[nodiscard]] double occupied_fraction() const;

  [[nodiscard]] const TrapEnsembleParams& params() const { return params_; }

 private:
  TrapEnsembleParams params_;
  std::vector<double> centers_;  // bin center emission energies (eV)
  std::vector<double> weights_;  // normalized bin weights (sum = 1)
  std::vector<double> occupancy_;
};

}  // namespace dh::device
