// Lifetime simulator of a many-core system with BTI+EM wearout, thermal
// coupling, a PDN, sensors, and a pluggable recovery policy — the
// quantitative version of the paper's Fig. 12.
//
// Each scheduling quantum:
//   1. workloads produce per-core demand,
//   2. the policy (given sensor observations) assigns actions and decides
//      whether the assist circuitry runs the grid in EM recovery mode,
//   3. demand of non-running cores migrates to running ones,
//   4. the power map feeds the thermal grid (steady-state per quantum —
//      thermal time constants are far below the quantum),
//   5. cores age/recover at their tile temperatures (compact BTI),
//   6. the PDN ages at its per-segment current densities (compact EM),
//   7. metrics are recorded.
#pragma once

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/time_series.hpp"
#include "common/units.hpp"
#include "em/material.hpp"
#include "pdn/aging_pdn.hpp"
#include "sched/core_model.hpp"
#include "sched/policy.hpp"
#include "sched/workload.hpp"
#include "thermal/thermal_grid.hpp"

namespace dh::sched {

struct SystemParams {
  std::size_t rows = 4;
  std::size_t cols = 4;
  CoreParams core{};
  WorkloadParams workload{};
  thermal::ThermalGridParams thermal{};  // rows/cols overridden to match
  pdn::PdnParams pdn{};                  // rows/cols overridden to match
  em::EmMaterialParams em_material{};
  Seconds quantum{hours(6.0)};
  Volts sensor_noise{0.0005};
  std::uint64_t seed = 42;
};

/// Quanta in which a physical invariant of the simulated state failed.
/// `SystemSimulator::step` checks them every quantum and counts, as these
/// states still occur in the PDN model (DESIGN.md §10); a non-finite
/// temperature or Vth shift throws instead.
struct InvariantViolations {
  /// The worst IR drop was outside [0, VDD): a drop of VDD is a tile cut
  /// off from every pad, more than VDD is no physical state.
  std::size_t ir_drop = 0;
  /// A core ran on a tile the PDN's last solve left unpowered.
  std::size_t unpowered_core = 0;
  /// A segment's |j| exceeded 40 MA/cm^2: one decade above the compact
  /// EM model's reference density (`AgingPdn::kJRefMaPerCm2`), and above
  /// the 12 MA/cm^2 of fig11's densest layer. The bound stands until the
  /// compact models' calibrated envelope is measured.
  std::size_t current_density = 0;
};

struct SystemSummary {
  /// Worst fractional fmax degradation ever observed across cores — the
  /// timing guardband a designer must provision.
  double guardband_fraction = 0.0;
  /// Degradation at end of life (after any final recovery).
  double final_degradation = 0.0;
  Seconds time_to_failure{-1.0};  // first PDN failure; negative = survived
  double mean_throughput = 0.0;   // delivered / demanded core-utilization
  double availability = 0.0;      // fraction of demand served
  double energy_joules = 0.0;
  double mean_temperature_c = 0.0;
  /// Quanta spent with active recovery in flight (see
  /// SystemSimulator::recovery_quanta).
  std::size_t recovery_quanta = 0;
  InvariantViolations invariant_violations{};
  pdn::AgingPdnStats pdn_stats{};
};

class SystemSimulator {
 public:
  SystemSimulator(SystemParams params,
                  std::unique_ptr<RecoveryPolicy> policy);

  /// Advance one scheduling quantum. Throws dh::Error, naming the tile or
  /// core, if a temperature or Vth shift comes out non-finite.
  void step();

  /// Run until `lifetime` has elapsed: ceil(lifetime / quantum) steps in
  /// total, counted from time zero, so repeated calls compose. Throws
  /// dh::Error for a non-positive or non-finite lifetime, or one whose
  /// step count does not fit a size_t.
  void run(Seconds lifetime);

  /// Checkpoint support: serialize the complete mutable state (cores,
  /// workloads, thermal grid, PDN wire states, RNG stream, accumulators,
  /// traces, policy state, and solver counters/caches) such that
  /// load_state + run(T') is bit-identical to an uninterrupted run(T+T').
  void save_state(ckpt::Serializer& s) const;
  /// Restore from save_state output. Throws dh::Error when the snapshot
  /// was produced by a simulator with different parameters (grid size,
  /// quantum, seed, policy).
  void load_state(ckpt::Deserializer& d);

  /// Atomic whole-file checkpoint (snapshot container, kind
  /// "system_sim") — see ckpt::write_snapshot for the format guarantees.
  void save_checkpoint(const std::string& path) const;
  /// Restore from a checkpoint file; validates magic, version, kind, and
  /// CRC before any state is touched.
  void load_checkpoint(const std::string& path);

  [[nodiscard]] Seconds now() const { return Seconds{now_s_}; }
  [[nodiscard]] const Core& core(std::size_t i) const;
  [[nodiscard]] const RecoveryPolicy& policy() const { return *policy_; }

  /// Quanta in which active recovery was in flight (any core in BTI
  /// active recovery, or the grid in EM recovery mode) — makes schedules
  /// like Fig. 4's 1h:1h duty cycle directly auditable. Stamped on every
  /// `sim/quantum` trace event, so tools/trace_report reproduces it
  /// exactly from a recorded trace.
  [[nodiscard]] std::size_t recovery_quanta() const {
    return recovery_quanta_;
  }

  /// Max fractional degradation across cores vs time.
  [[nodiscard]] const TimeSeries& degradation_trace() const {
    return degradation_trace_;
  }
  /// Worst PDN IR drop vs time.
  [[nodiscard]] const TimeSeries& ir_drop_trace() const {
    return ir_drop_trace_;
  }
  /// Hottest tile temperature vs time.
  [[nodiscard]] const TimeSeries& temperature_trace() const {
    return temperature_trace_;
  }

  [[nodiscard]] SystemSummary summary() const;

 private:
  SystemParams params_;
  std::unique_ptr<RecoveryPolicy> policy_;
  std::vector<Core> cores_;
  std::vector<Workload> workloads_;
  thermal::ThermalGrid thermal_;
  pdn::AgingPdn pdn_;
  Rng rng_;
  double now_s_ = 0.0;
  double demanded_acc_ = 0.0;
  double delivered_acc_ = 0.0;
  double energy_j_ = 0.0;
  double temp_acc_ = 0.0;
  std::size_t steps_ = 0;
  std::size_t recovery_quanta_ = 0;
  InvariantViolations violations_;
  bool was_recovering_ = false;  // edge detector for recovery_enter events
  double guardband_ = 0.0;
  double first_failure_s_ = -1.0;
  /// Last accepted per-core sensor reading — the substitute when a read
  /// comes back non-finite or beyond kSensorSaneLimitV (a broken sensor,
  /// or noise far outside the sensor's range).
  std::vector<double> last_good_sensor_;
  // Per-quantum scratch of step(), one entry per core: sized once here
  // rather than allocated every quantum. Not part of the state.
  std::vector<double> demand_;
  std::vector<CoreObservation> obs_;
  std::vector<double> util_;
  std::vector<double> power_;
  std::vector<Celsius> temps_;
  std::vector<double> loads_;
  TimeSeries degradation_trace_{"max_degradation", "frac"};
  TimeSeries ir_drop_trace_{"worst_ir_drop", "V"};
  TimeSeries temperature_trace_{"max_temp", "C"};
};

}  // namespace dh::sched
