// A processor core for the lifetime simulator: compact BTI wearout state,
// alpha-power fmax model, and a power model feeding the thermal grid and
// PDN.
#pragma once

#include <span>

#include "common/units.hpp"
#include "device/compact_bti.hpp"
#include "device/ring_oscillator.hpp"

namespace dh::sched {

/// Per-step action assigned to a core by the recovery policy.
enum class CoreAction {
  kRun,               // execute workload (BTI stress scaled by utilization)
  kIdle,              // power-gated: passive recovery only
  kBtiActiveRecovery, // assist circuitry BTI mode: negative bias applied
};

[[nodiscard]] const char* to_string(CoreAction a);

struct CoreParams {
  Volts vdd{0.90};
  Volts active_recovery_bias{-0.30};  // from the assist circuitry
  device::RingOscillatorParams ro{
      .stages = 75,
      .vdd = Volts{0.90},
      .vth0 = Volts{0.32},
      .alpha = 1.3,
      .fresh_frequency = Hertz{2.0e9},
  };
  Watts dynamic_power_peak{1.2};  // at utilization 1
  Watts leakage_ref{0.20};
  Celsius leakage_t_ref{45.0};
  double leakage_t_efold_k = 30.0;  // leakage e-folds per 30 K
  device::CompactBtiParams bti{};
};

class Core {
 public:
  explicit Core(CoreParams params);

  /// Advance one scheduling quantum. `utilization` applies to kRun.
  /// `step_all` on this core alone.
  void step(CoreAction action, double utilization, Celsius temperature,
            Seconds dt);

  /// Advance every core one quantum: core i as `step(actions[i],
  /// utilization[i], temperatures[i], dt)`, bit for bit, but with all the
  /// cores' BTI precursor chains in lockstep (CompactBti::advance). A
  /// running core is stressed for its utilized fraction, then relaxes.
  /// Throws before any core moves when a utilization is outside [0, 1].
  static void step_all(std::span<Core> cores,
                       std::span<const CoreAction> actions,
                       std::span<const double> utilization,
                       std::span<const Celsius> temperatures, Seconds dt);

  [[nodiscard]] Volts delta_vth() const { return bti_.delta_vth(); }
  [[nodiscard]] device::BtiBreakdown bti_breakdown() const {
    return bti_.breakdown();
  }

  /// Maximum clock frequency the aged core sustains.
  [[nodiscard]] Hertz fmax() const;
  /// Fractional frequency degradation vs fresh (the guardband driver).
  [[nodiscard]] double degradation() const;

  /// Power drawn under the given action/utilization/temperature.
  [[nodiscard]] Watts power(CoreAction action, double utilization,
                            Celsius temperature) const;
  /// Supply current corresponding to `power`.
  [[nodiscard]] Amps supply_current(CoreAction action, double utilization,
                                    Celsius temperature) const;

  [[nodiscard]] const CoreParams& params() const { return params_; }

  /// Checkpoint support: the BTI state is the core's only mutable state
  /// (the ring oscillator is a pure function of params).
  void save_state(ckpt::Serializer& s) const;
  void load_state(ckpt::Deserializer& d);

 private:
  /// The BTI step of phase `phase` of this core's quantum: 0 is the
  /// stressed part of a run, or all of an idle or recovery quantum; 1 is
  /// the relaxed part of a run.
  [[nodiscard]] device::CompactBtiStep phase_step(int phase, CoreAction action,
                                                  double utilization,
                                                  Celsius temperature,
                                                  Seconds dt) const;

  CoreParams params_;
  device::CompactBti bti_;
  device::RingOscillator ro_;
};

}  // namespace dh::sched
