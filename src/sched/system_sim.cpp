#include "sched/system_sim.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "common/ckpt/serialize.hpp"
#include "common/ckpt/snapshot.hpp"
#include "common/error.hpp"
#include "common/obs/metrics.hpp"
#include "common/obs/profile.hpp"
#include "common/obs/trace.hpp"

namespace dh::sched {

namespace {

thermal::ThermalGridParams match_thermal(thermal::ThermalGridParams t,
                                         std::size_t rows,
                                         std::size_t cols) {
  t.rows = rows;
  t.cols = cols;
  return t;
}

pdn::PdnParams match_pdn(pdn::PdnParams p, std::size_t rows,
                         std::size_t cols) {
  p.rows = rows;
  p.cols = cols;
  p.pad_nodes.clear();  // default corner pads for the matched size
  return p;
}

/// A sensor reading beyond this magnitude is physically impossible (Vth
/// shifts top out at tens of mV) and is rejected in favour of the last
/// good value. Far above the default sensor noise plus the worst-case
/// shift, so a healthy sensor never trips it.
constexpr double kSensorSaneLimitV = 0.5;

/// The current-density check's bound (InvariantViolations).
constexpr double kMaxCurrentDensityMaPerCm2 =
    10.0 * pdn::AgingPdn::kJRefMaPerCm2;

/// The named error of a non-finite state value, which no legitimate run
/// produces.
[[noreturn]] void throw_non_finite(const char* quantity, const char* unit,
                                   std::size_t index, double value,
                                   std::size_t quantum) {
  throw Error("SystemSimulator: non-finite " + std::string(quantity) +
              " at " + unit + " " + std::to_string(index) + " in quantum " +
              std::to_string(quantum) + " (" + std::to_string(value) + ")");
}

}  // namespace

SystemSimulator::SystemSimulator(SystemParams params,
                                 std::unique_ptr<RecoveryPolicy> policy)
    : params_(params),
      policy_(std::move(policy)),
      thermal_(match_thermal(params.thermal, params.rows, params.cols)),
      pdn_(match_pdn(params.pdn, params.rows, params.cols),
           params.em_material),
      rng_(params.seed) {
  DH_REQUIRE(policy_ != nullptr, "a recovery policy is required");
  DH_REQUIRE(params_.rows >= 2 && params_.cols >= 2,
             "system needs at least a 2x2 core grid");
  // run() divides the lifetime by the quantum and casts to a step count:
  // a negative quantum wraps to ~2^64 steps, a zero one casts infinity.
  DH_REQUIRE(std::isfinite(params_.quantum.value()) &&
                 params_.quantum.value() > 0.0,
             "SystemParams::quantum must be positive and finite");
  const std::size_t n = params_.rows * params_.cols;
  cores_.reserve(n);
  workloads_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    cores_.emplace_back(params_.core);
    WorkloadParams w = params_.workload;
    // De-phase cores so the array is not in lockstep.
    w.phase = Seconds{w.period.value() * static_cast<double>(i) /
                      static_cast<double>(n)};
    workloads_.emplace_back(w);
  }
  last_good_sensor_.assign(n, 0.0);
  demand_.resize(n);
  obs_.resize(n);
  util_.resize(n);
  power_.resize(n);
  temps_.resize(n);
  loads_.resize(n);
}

const Core& SystemSimulator::core(std::size_t i) const {
  DH_REQUIRE(i < cores_.size(), "core index out of range");
  return cores_[i];
}

void SystemSimulator::step() {
  DH_PROF_SCOPE("sim.step");
  const std::size_t n = cores_.size();
  const Seconds dt = params_.quantum;

  // 1. Demand.
  for (std::size_t i = 0; i < n; ++i) {
    demand_[i] = workloads_[i].sample(Seconds{now_s_}, rng_);
  }

  // 2. Observations + policy.
  for (std::size_t i = 0; i < n; ++i) {
    const double noise = rng_.normal(0.0, params_.sensor_noise.value());
    double sensed = cores_[i].delta_vth().value() + noise;
    if (!std::isfinite(sensed) || std::abs(sensed) > kSensorSaneLimitV) {
      // Graceful degradation: hold the last good reading for this core
      // rather than feeding garbage into the policy's hysteresis.
      static obs::Counter& rejected =
          obs::registry().counter("sensor.rejected");
      rejected.add();
      sensed = last_good_sensor_[i];
    } else {
      sensed = std::max(0.0, sensed);
      last_good_sensor_[i] = sensed;
    }
    obs_[i].sensed_dvth = Volts{sensed};
    obs_[i].temperature = thermal_.temperature(i);
    obs_[i].demanded_utilization = demand_[i];
  }
  PolicyDecision decision = policy_->decide(obs_, Seconds{now_s_}, dt, rng_);
  DH_REQUIRE(decision.actions.size() == n,
             "policy returned wrong action count");

  // 3. Workload migration: demand of non-running cores spreads across the
  // running ones (capped at full utilization).
  std::fill(util_.begin(), util_.end(), 0.0);
  double displaced = 0.0;
  std::size_t running = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (decision.actions[i] == CoreAction::kRun) {
      util_[i] = demand_[i];
      ++running;
    } else {
      displaced += demand_[i];
    }
  }
  if (running > 0 && displaced > 0.0) {
    // Fill headroom evenly (single pass; remaining demand is dropped and
    // shows up as lost availability).
    const double share = displaced / static_cast<double>(running);
    for (std::size_t i = 0; i < n; ++i) {
      if (decision.actions[i] == CoreAction::kRun) {
        const double add = std::min(share, 1.0 - util_[i]);
        util_[i] += add;
        displaced -= add;
      }
    }
  }

  // 4. Thermal.
  for (std::size_t i = 0; i < n; ++i) {
    power_[i] = cores_[i]
                    .power(decision.actions[i], util_[i],
                           thermal_.temperature(i))
                    .value();
  }
  thermal_.set_power_map(power_);
  thermal_.solve_steady();

  // 5. Core aging at tile temperature, all cores in one lockstep batch.
  // The compact-BTI evaluation count is batched into one add so the
  // per-core loop carries no telemetry.
  static obs::Counter& bti_evals =
      obs::registry().counter("bti.compact.evals");
  bti_evals.add(n);
  for (std::size_t i = 0; i < n; ++i) {
    temps_[i] = thermal_.temperature(i);
    if (!std::isfinite(temps_[i].value())) {
      throw_non_finite("temperature", "tile", i, temps_[i].value(),
                       steps_ + 1);
    }
  }
  Core::step_all(cores_, decision.actions, util_, temps_, dt);
  double delivered = 0.0;
  double demanded = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dvth = cores_[i].delta_vth().value();
    if (!std::isfinite(dvth)) {
      throw_non_finite("Vth shift", "core", i, dvth, steps_ + 1);
    }
    demanded += demand_[i];
    if (decision.actions[i] == CoreAction::kRun) {
      // Throughput delivered scales with the aged clock.
      delivered += util_[i] * (1.0 - cores_[i].degradation());
    }
    energy_j_ += power_[i] * dt.value();
  }
  demanded_acc_ += demanded;
  delivered_acc_ += std::min(delivered, demanded);

  // 6. PDN aging.
  for (std::size_t i = 0; i < n; ++i) {
    loads_[i] = cores_[i]
                    .supply_current(decision.actions[i], util_[i],
                                    thermal_.temperature(i))
                    .value();
  }
  pdn_.step(loads_, thermal_.max_temperature(), dt,
            decision.em_recovery_mode);
  // The PDN state's physical invariants (InvariantViolations), counted.
  const pdn::AgingPdnStats pdn_stats = pdn_.stats();
  const double vdd = pdn_.grid().params().vdd.value();
  const bool bad_drop =
      !(pdn_stats.worst_drop_v >= 0.0 && pdn_stats.worst_drop_v < vdd);
  bool unpowered_core = false;
  for (std::size_t i = 0; i < n; ++i) {
    if (decision.actions[i] == CoreAction::kRun && !pdn_.grid().powered(i)) {
      unpowered_core = true;
    }
  }
  const bool bad_j =
      !(pdn_stats.max_current_density <=
        mega_amps_per_cm2(kMaxCurrentDensityMaPerCm2).value());
  static obs::Counter& drop_violations =
      obs::registry().counter("sim.invariant_violations.ir_drop");
  static obs::Counter& unpowered_violations =
      obs::registry().counter("sim.invariant_violations.unpowered_core");
  static obs::Counter& j_violations =
      obs::registry().counter("sim.invariant_violations.current_density");
  const auto count = [](bool violated, std::size_t& quanta,
                        obs::Counter& counter) {
    if (!violated) return;
    ++quanta;
    counter.add();
  };
  count(bad_drop, violations_.ir_drop, drop_violations);
  count(unpowered_core, violations_.unpowered_core, unpowered_violations);
  count(bad_j, violations_.current_density, j_violations);

  // 7. Metrics. Simulated time is derived from the integer step count so
  // multi-year runs accumulate no floating-point drift (repeated
  // `now_s_ += dt` loses ~1 ulp per step and makes run(lifetime) execute
  // one step too many or too few).
  ++steps_;
  now_s_ = static_cast<double>(steps_) * dt.value();
  if (first_failure_s_ < 0.0 && pdn_.failed()) {
    first_failure_s_ = now_s_;
  }
  double worst_deg = 0.0;
  for (const auto& c : cores_) {
    worst_deg = std::max(worst_deg, c.degradation());
  }
  guardband_ = std::max(guardband_, worst_deg);
  temp_acc_ += thermal_.mean_temperature().value();
  const double ir_drop_v = pdn_stats.worst_drop_v;
  const double max_temp_c = thermal_.max_temperature().value();
  degradation_trace_.append(Seconds{now_s_}, worst_deg);
  ir_drop_trace_.append(Seconds{now_s_}, ir_drop_v);
  temperature_trace_.append(Seconds{now_s_}, max_temp_c);

  // Telemetry: the per-quantum policy action and health picture. The
  // recovery_quanta definition (any core in BTI active recovery, or the
  // grid in EM recovery mode) is shared verbatim by the member counter,
  // the trace fields, and trace_report's reconstruction.
  std::size_t recovery_cores = 0;
  std::size_t running_cores = 0;
  for (const CoreAction a : decision.actions) {
    if (a == CoreAction::kBtiActiveRecovery) ++recovery_cores;
    if (a == CoreAction::kRun) ++running_cores;
  }
  const bool recovering =
      recovery_cores > 0 || decision.em_recovery_mode;
  if (recovering) ++recovery_quanta_;
  if (obs::trace_enabled()) {
    if (recovering && !was_recovering_) {
      obs::trace_event_at(
          "sim", "recovery_enter", now_s_,
          {{"recovery_cores", static_cast<double>(recovery_cores)},
           {"em_recovery", decision.em_recovery_mode ? 1.0 : 0.0}});
    }
    obs::trace_event_at(
        "sim", "quantum", now_s_,
        {{"worst_deg", worst_deg},
         {"ir_drop_v", ir_drop_v},
         {"max_temp_c", max_temp_c},
         {"running_cores", static_cast<double>(running_cores)},
         {"recovery_cores", static_cast<double>(recovery_cores)},
         {"em_recovery", decision.em_recovery_mode ? 1.0 : 0.0},
         {"demand", demanded},
         {"violation.ir_drop", bad_drop ? 1.0 : 0.0},
         {"violation.unpowered_core", unpowered_core ? 1.0 : 0.0},
         {"violation.current_density", bad_j ? 1.0 : 0.0}});
  }
  was_recovering_ = recovering;
}

void SystemSimulator::run(Seconds lifetime) {
  DH_REQUIRE(std::isfinite(lifetime.value()) && lifetime.value() > 0.0,
             "lifetime must be positive and finite");
  // Run exactly ceil(lifetime / quantum) steps total (absolute target, so
  // repeated run() calls compose). The 1e-9 slack keeps an exact multiple
  // from rounding up on floating-point noise in the division.
  const double steps =
      std::ceil(lifetime.value() / params_.quantum.value() - 1e-9);
  // The cast below is undefined for a value at or above SIZE_MAX + 1
  // (what the limit rounds to as a double).
  DH_REQUIRE(steps < static_cast<double>(
                         std::numeric_limits<std::size_t>::max()),
             "lifetime spans more quanta than a size_t step count holds");
  const auto target = static_cast<std::size_t>(steps);
  while (steps_ < target) step();
}

void SystemSimulator::save_state(ckpt::Serializer& s) const {
  s.begin_section("SSIM");
  // Configuration digest: enough to refuse a snapshot produced by a
  // different simulator before any state is disturbed.
  s.write_u64(params_.rows);
  s.write_u64(params_.cols);
  s.write_f64(params_.quantum.value());
  s.write_u64(params_.seed);
  s.write_string(policy_->name());
  // Scalar accumulators.
  s.write_f64(demanded_acc_);
  s.write_f64(delivered_acc_);
  s.write_f64(energy_j_);
  s.write_f64(temp_acc_);
  s.write_f64(guardband_);
  s.write_f64(first_failure_s_);
  s.write_u64(steps_);
  s.write_u64(recovery_quanta_);
  s.write_u64(violations_.ir_drop);
  s.write_u64(violations_.unpowered_core);
  s.write_u64(violations_.current_density);
  s.write_bool(was_recovering_);
  s.write_f64_vec(last_good_sensor_);
  ckpt::save_engine(s, rng_.engine());
  for (const Core& c : cores_) c.save_state(s);
  for (const Workload& w : workloads_) w.save_state(s);
  policy_->save_state(s);
  thermal_.save_state(s);
  pdn_.save_state(s);
  degradation_trace_.save_state(s);
  ir_drop_trace_.save_state(s);
  temperature_trace_.save_state(s);
}

void SystemSimulator::load_state(ckpt::Deserializer& d) {
  d.expect_section("SSIM");
  const auto mismatch = [](const std::string& what) {
    throw Error("checkpoint was created by a different simulator "
                "configuration: " +
                what + " differs — refusing to restore");
  };
  if (d.read_u64() != params_.rows) mismatch("core-grid rows");
  if (d.read_u64() != params_.cols) mismatch("core-grid cols");
  if (d.read_f64() != params_.quantum.value()) mismatch("quantum");
  if (d.read_u64() != params_.seed) mismatch("seed");
  if (d.read_string() != policy_->name()) mismatch("policy");
  demanded_acc_ = d.read_f64();
  delivered_acc_ = d.read_f64();
  energy_j_ = d.read_f64();
  temp_acc_ = d.read_f64();
  guardband_ = d.read_f64();
  first_failure_s_ = d.read_f64();
  steps_ = static_cast<std::size_t>(d.read_u64());
  recovery_quanta_ = static_cast<std::size_t>(d.read_u64());
  violations_.ir_drop = static_cast<std::size_t>(d.read_u64());
  violations_.unpowered_core = static_cast<std::size_t>(d.read_u64());
  violations_.current_density = static_cast<std::size_t>(d.read_u64());
  was_recovering_ = d.read_bool();
  now_s_ = static_cast<double>(steps_) * params_.quantum.value();
  last_good_sensor_ = d.read_f64_vec();
  DH_REQUIRE(last_good_sensor_.size() == cores_.size(),
             "checkpoint sensor-state length does not match core count");
  ckpt::load_engine(d, rng_.engine());
  for (Core& c : cores_) c.load_state(d);
  for (Workload& w : workloads_) w.load_state(d);
  policy_->load_state(d);
  thermal_.load_state(d);
  pdn_.load_state(d);
  degradation_trace_.load_state(d);
  ir_drop_trace_.load_state(d);
  temperature_trace_.load_state(d);
}

void SystemSimulator::save_checkpoint(const std::string& path) const {
  ckpt::Serializer s;
  save_state(s);
  ckpt::write_snapshot(path, "system_sim", s.buffer());
}

void SystemSimulator::load_checkpoint(const std::string& path) {
  ckpt::Deserializer d{ckpt::read_snapshot(path, "system_sim")};
  load_state(d);
  if (!d.exhausted()) {
    throw Error("checkpoint '" + path + "' has " +
                std::to_string(d.remaining()) +
                " trailing byte(s) after the simulator state — snapshot "
                "and build disagree on the layout");
  }
}

SystemSummary SystemSimulator::summary() const {
  SystemSummary s;
  s.guardband_fraction = guardband_;
  s.final_degradation = degradation_trace_.empty()
                            ? 0.0
                            : degradation_trace_.back_value();
  s.time_to_failure = Seconds{first_failure_s_};
  s.mean_throughput =
      steps_ == 0 ? 0.0
                  : delivered_acc_ / static_cast<double>(steps_);
  s.availability =
      demanded_acc_ > 0.0 ? delivered_acc_ / demanded_acc_ : 1.0;
  s.energy_joules = energy_j_;
  s.mean_temperature_c =
      steps_ == 0 ? 0.0 : temp_acc_ / static_cast<double>(steps_);
  s.recovery_quanta = recovery_quanta_;
  s.invariant_violations = violations_;
  s.pdn_stats = pdn_.stats();
  return s;
}

}  // namespace dh::sched
