#include "sched/core_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/ckpt/serialize.hpp"
#include "common/error.hpp"

namespace dh::sched {

const char* to_string(CoreAction a) {
  switch (a) {
    case CoreAction::kRun:
      return "run";
    case CoreAction::kIdle:
      return "idle";
    case CoreAction::kBtiActiveRecovery:
      return "bti-recovery";
  }
  return "?";
}

Core::Core(CoreParams params)
    : params_(params), bti_(params.bti), ro_(params.ro) {}

void Core::step(CoreAction action, double utilization, Celsius temperature,
                Seconds dt) {
  step_all({this, 1}, {&action, 1}, {&utilization, 1}, {&temperature, 1}, dt);
}

device::CompactBtiStep Core::phase_step(int phase, CoreAction action,
                                        double utilization,
                                        Celsius temperature,
                                        Seconds dt) const {
  using device::CompactBti;
  switch (action) {
    case CoreAction::kRun: {
      // Devices see stress for the utilized fraction of the quantum and
      // passive recovery for the rest (signal-probability averaging).
      const Seconds part{phase == 0 ? dt.value() * utilization
                                    : dt.value() * (1.0 - utilization)};
      if (!(part.value() > 0.0)) return {};
      const Volts bias = phase == 0 ? params_.vdd : Volts{0.0};
      return CompactBti::prepare(params_.bti, {bias, temperature}, part);
    }
    case CoreAction::kIdle:
      if (phase != 0) return {};
      return CompactBti::prepare(params_.bti, {Volts{0.0}, temperature}, dt);
    case CoreAction::kBtiActiveRecovery:
      if (phase != 0) return {};
      return CompactBti::prepare(
          params_.bti, {params_.active_recovery_bias, temperature}, dt);
  }
  return {};
}

void Core::step_all(std::span<Core> cores, std::span<const CoreAction> actions,
                    std::span<const double> utilization,
                    std::span<const Celsius> temperatures, Seconds dt) {
  DH_REQUIRE(actions.size() == cores.size() &&
                 utilization.size() == cores.size() &&
                 temperatures.size() == cores.size(),
             "one action, utilization and temperature per core");
  for (const double u : utilization) {
    DH_REQUIRE(u >= 0.0 && u <= 1.0, "utilization must be in [0,1]");
  }
  // Cores per batch: sixteen lanes already hide a chain's divide
  // latency. The steps are thread-local scratch, not a local array,
  // because a lone core (Core::step) would otherwise pay to initialise
  // all sixteen on every call.
  constexpr std::size_t kBlock = 16;
  thread_local device::CompactBtiStep steps[kBlock];
  device::CompactBti* devices[kBlock];
  for (std::size_t first = 0; first < cores.size(); first += kBlock) {
    const std::size_t n = std::min(kBlock, cores.size() - first);
    for (std::size_t i = 0; i < n; ++i) devices[i] = &cores[first + i].bti_;
    for (const int phase : {0, 1}) {
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t c = first + i;
        steps[i] = cores[c].phase_step(phase, actions[c], utilization[c],
                                       temperatures[c], dt);
      }
      device::CompactBti::advance(std::span{steps, n}, std::span{devices, n});
    }
  }
}

Hertz Core::fmax() const {
  return ro_.frequency(bti_.delta_vth());
}

double Core::degradation() const {
  return ro_.degradation(bti_.delta_vth());
}

Watts Core::power(CoreAction action, double utilization,
                  Celsius temperature) const {
  // Exponential leakage growth, capped: past ~2 e-folds real designs
  // throttle (and the exponential alone would make the thermal solve
  // diverge in pathological configurations).
  const double leak_scale = std::min(
      8.0, std::exp((temperature.value() - params_.leakage_t_ref.value()) /
                    params_.leakage_t_efold_k));
  // BTI raises Vth, which suppresses subthreshold leakage slightly.
  const double vth_scale =
      std::exp(-bti_.delta_vth().value() / 0.050);
  const double leak =
      params_.leakage_ref.value() * leak_scale * vth_scale;
  switch (action) {
    case CoreAction::kRun:
      return Watts{params_.dynamic_power_peak.value() * utilization + leak};
    case CoreAction::kIdle:
      return Watts{0.05 * leak};  // power-gated: residual rail leakage
    case CoreAction::kBtiActiveRecovery:
      return Watts{0.08 * leak};  // cross-coupled rails, tiny assist current
  }
  return Watts{leak};
}

Amps Core::supply_current(CoreAction action, double utilization,
                          Celsius temperature) const {
  return Amps{power(action, utilization, temperature).value() /
              params_.vdd.value()};
}

void Core::save_state(ckpt::Serializer& s) const {
  s.begin_section("CORE");
  bti_.save_state(s);
}

void Core::load_state(ckpt::Deserializer& d) {
  d.expect_section("CORE");
  bti_.load_state(d);
}

}  // namespace dh::sched
