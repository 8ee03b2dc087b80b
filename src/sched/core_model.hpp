// A processor core for the lifetime simulator: compact BTI wearout state,
// alpha-power fmax model, and a power model feeding the thermal grid and
// PDN.
#pragma once

#include <cstdint>
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

  /// Fractional frequency degradation vs fresh (the guardband driver).
  [[nodiscard]] double degradation() const;

  /// Power drawn under the given action/utilization/temperature. The
  /// leakage factor is memoized on the exact bits of (temperature, ΔVth),
  /// so `power` and `supply_current` are not reentrant per Core: threads
  /// sharing one Core must not call them concurrently.
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
  /// The two BTI steps of this core's quantum: `first` is the stressed
  /// part of a run, or all of an idle or recovery quantum; `second` is
  /// the relaxed part of a run.
  void quantum_steps(CoreAction action, double utilization,
                     Celsius temperature, Seconds dt,
                     device::CompactBtiStep& first,
                     device::CompactBtiStep& second) const;
  /// Leakage power at `temperature` and the present ΔVth.
  [[nodiscard]] double leakage(Celsius temperature) const;

  CoreParams params_;
  device::CompactBti bti_;
  device::RingOscillator ro_;
  // The bias factors of the three gate biases a core applies: vdd while
  // running, 0 V while relaxed or idle, and the active-recovery bias.
  device::CompactBtiBias run_bias_;
  device::CompactBtiBias rest_bias_;
  device::CompactBtiBias recovery_bias_;
  // The stress and recovery reference temperatures are bit-equal, so one
  // kinetics Arrhenius factor serves both.
  bool shared_kinetics_ = false;
  // One-entry leakage memo. A quantum's `power` call sees the temperature
  // and ΔVth of the previous quantum's `supply_current` call.
  struct LeakMemo {
    bool valid = false;
    std::uint64_t temperature_bits = 0;
    std::uint64_t dvth_bits = 0;
    double leak_w = 0.0;
  };
  mutable LeakMemo leak_memo_;
};

}  // namespace dh::sched
