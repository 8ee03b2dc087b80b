// Compact BTI model for system-scale simulation.
//
// The paper's stated future work is "high-level compact models that
// capture the accurate device and circuit level BTI/EM recovery
// information while being able to apply at the architectural and system
// level". This is that model: a two-pool (fast/slow) first-order
// abstraction of the trap ensemble plus the same precursor-locking
// permanent dynamics, cheap enough to step once per scheduling quantum for
// hundreds of cores over years of simulated lifetime. Its fidelity
// against the full ensemble is quantified by bench/ablation_compact_models.
#pragma once

#include <cstddef>
#include <span>

#include "device/bti_types.hpp"

namespace dh::ckpt {
class Serializer;
class Deserializer;
}  // namespace dh::ckpt

namespace dh::device {

struct CompactBtiParams {
  // Saturation levels of the two recoverable pools (V of Vth shift) at the
  // reference stress condition.
  double fast_sat_v = 0.012;
  double slow_sat_v = 0.040;
  // Capture time constants at the reference stress condition.
  double fast_tau_stress_s = 600.0;     // ~10 min
  double slow_tau_stress_s = 3.6e5;     // ~100 h
  // Emission time constants at the reference *active accelerated* recovery
  // condition (110 C, -0.3 V).
  double fast_tau_recover_s = 300.0;
  double slow_tau_recover_s = 1.5e4;
  // Reference conditions the taus are quoted at.
  BtiCondition stress_ref{Volts{1.2}, Celsius{110.0}};
  BtiCondition recover_ref{Volts{-0.3}, Celsius{110.0}};
  // Arrhenius activation energy for both pools' kinetics.
  ElectronVolts kinetics_ea{0.55};
  // Voltage acceleration (per e-fold) for capture/emission.
  double v0 = 0.25;
  // Permanent precursor dynamics (same structure as the full model).
  double gen_rate_ref_v_per_s = 2.55e-7;
  double gen_v0 = 0.1;  // strong voltage acceleration of generation
  ElectronVolts gen_ea{0.80};  // generation activation energy
  double k_lock_per_v_s = 0.041;
  double anneal_rate_ref_per_s = 2.8e-4;  // at recover_ref
  double p_max_v = 0.040;
};

/// The coefficients of one advance under a fixed (params, condition, dt):
/// pool targets and decays, and the precursor substep schedule. They do
/// not depend on device state, so they are computed once per
/// (params, condition, dt) (`CompactBti::prepare`) and devices advance as
/// a batch.
struct CompactBtiStep {
  enum class Kind { kNone, kStress, kRecover };
  Kind kind = Kind::kNone;  // kNone: dt == 0, the state is left as is
  // Recoverable pools: x <- target + (x - target) * decay.
  double fast_target = 0.0;
  double fast_decay = 1.0;
  double slow_target = 0.0;
  double slow_decay = 1.0;
  // Stress: `substeps` forward-Euler steps of length `h` of precursor
  // generation (`gen_v_per_s` at zero occupancy) and locking.
  double gen_v_per_s = 0.0;
  double k_lock_per_v_s = 0.0;
  double p_max_v = 0.0;
  double h = 0.0;
  int substeps = 0;
  // Recovery: annealing factors of the unlocked and locked precursors.
  double pu_decay = 1.0;
  double pl_decay = 1.0;
};

/// The factors of a step that depend on (params, gate bias) alone
/// (`CompactBti::bias_factors`), so a caller whose biases are fixed
/// computes them once.
struct CompactBtiBias {
  bool stress = false;       // the bias stresses (> 0 V)
  double accel_v = 1.0;      // capture (stress) or emission voltage factor
  double gen_accel_v = 1.0;  // stress: precursor-generation voltage factor
  double sat_scale = 1.0;    // stress: pool saturation scale
};

class CompactBti {
 public:
  explicit CompactBti(CompactBtiParams params = {});

  /// Advance this device by `dt` under `condition` (a batch of one).
  void apply(const BtiCondition& condition, Seconds dt);
  void reset();

  /// Coefficients of `apply(condition, dt)` for devices with `params`:
  /// the (temperature, dt) part below applied to
  /// `bias_factors(params, condition.gate_bias)` and the Arrhenius
  /// factors at the condition's temperature.
  [[nodiscard]] static CompactBtiStep prepare(const CompactBtiParams& params,
                                              const BtiCondition& condition,
                                              Seconds dt);
  /// The bias-only part of `prepare`.
  [[nodiscard]] static CompactBtiBias bias_factors(
      const CompactBtiParams& params, Volts gate_bias);
  /// The (temperature, dt) part of `prepare`. `kinetics_af` is
  /// `arrhenius_acceleration(params.kinetics_ea, T, ref)` with ref the
  /// temperature of `stress_ref` under a stressing bias, else of
  /// `recover_ref`; `gen_af` is the `gen_ea` factor against `stress_ref`,
  /// read only under a stressing bias.
  [[nodiscard]] static CompactBtiStep prepare(const CompactBtiParams& params,
                                              const CompactBtiBias& bias,
                                              double kinetics_af,
                                              double gen_af, Seconds dt);

  /// Apply `steps[i]` to `devices[i]`, each step prepared from its
  /// device's params; the devices are distinct. Each device ends
  /// bit-identical to its own `apply`. The precursor substeps of up to 64
  /// stressed devices run in lockstep, so their serial Euler chains
  /// overlap: the lanes are ordered by descending substep count and each
  /// substep runs over the prefix of lanes that still have one to go.
  static void advance(std::span<const CompactBtiStep> steps,
                      std::span<CompactBti* const> devices);
  /// The same kernel with one `step` shared by every device. A stressed
  /// device whose precursor state bit-equals that of the device before it
  /// shares its chain, which is computed once.
  static void advance(const CompactBtiStep& step,
                      std::span<CompactBti* const> devices);

  [[nodiscard]] Volts delta_vth() const;
  [[nodiscard]] BtiBreakdown breakdown() const;

  [[nodiscard]] const CompactBtiParams& params() const { return params_; }

  /// Checkpoint support: bit-exact snapshot of the pool states (params
  /// are construction inputs and not serialized).
  void save_state(ckpt::Serializer& s) const;
  void load_state(ckpt::Deserializer& d);

 private:
  /// The kernel: device i takes `steps[i * stride]` (stride 0 shares one
  /// step across the batch).
  static void advance_lanes(const CompactBtiStep* steps, std::size_t stride,
                            std::span<CompactBti* const> devices);

  CompactBtiParams params_;
  double fast_ = 0.0;
  double slow_ = 0.0;
  double pu_ = 0.0;
  double pl_ = 0.0;
};

}  // namespace dh::device
