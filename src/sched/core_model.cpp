#include "sched/core_model.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "common/arrhenius.hpp"
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
    : params_(params),
      bti_(params.bti),
      ro_(params.ro),
      run_bias_(device::CompactBti::bias_factors(params.bti, params.vdd)),
      rest_bias_(device::CompactBti::bias_factors(params.bti, Volts{0.0})),
      recovery_bias_(device::CompactBti::bias_factors(
          params.bti, params.active_recovery_bias)),
      shared_kinetics_(
          std::bit_cast<std::uint64_t>(
              params.bti.stress_ref.temperature.value()) ==
          std::bit_cast<std::uint64_t>(
              params.bti.recover_ref.temperature.value())) {}

void Core::step(CoreAction action, double utilization, Celsius temperature,
                Seconds dt) {
  step_all({this, 1}, {&action, 1}, {&utilization, 1}, {&temperature, 1}, dt);
}

void Core::quantum_steps(CoreAction action, double utilization,
                         Celsius temperature, Seconds dt,
                         device::CompactBtiStep& first,
                         device::CompactBtiStep& second) const {
  using device::CompactBti;
  using device::CompactBtiBias;
  const device::CompactBtiParams& p = params_.bti;
  const Kelvin t = to_kelvin(temperature);
  // The kinetics Arrhenius factor against stress_ref (slot 0) and
  // recover_ref (slot 1), each computed on first use; with bit-equal
  // reference temperatures slot 0 serves both, and its value is the one
  // slot 1 would hold.
  double kinetics_af[2];
  bool have_af[2] = {false, false};
  const auto prepare = [&](const CompactBtiBias& bias, Seconds part) {
    if (part.value() == 0.0) return device::CompactBtiStep{};
    const std::size_t k = bias.stress || shared_kinetics_ ? 0 : 1;
    if (!have_af[k]) {
      const Celsius ref = k == 0 ? p.stress_ref.temperature
                                 : p.recover_ref.temperature;
      kinetics_af[k] = arrhenius_acceleration(p.kinetics_ea, t,
                                              to_kelvin(ref));
      have_af[k] = true;
    }
    const double gen_af =
        bias.stress ? arrhenius_acceleration(
                          p.gen_ea, t, to_kelvin(p.stress_ref.temperature))
                    : 1.0;
    return CompactBti::prepare(p, bias, kinetics_af[k], gen_af, part);
  };
  first = {};
  second = {};
  switch (action) {
    case CoreAction::kRun: {
      // Devices see stress for the utilized fraction of the quantum and
      // passive recovery for the rest (signal-probability averaging).
      const Seconds stressed{dt.value() * utilization};
      const Seconds relaxed{dt.value() * (1.0 - utilization)};
      if (stressed.value() > 0.0) first = prepare(run_bias_, stressed);
      if (relaxed.value() > 0.0) second = prepare(rest_bias_, relaxed);
      return;
    }
    case CoreAction::kIdle:
      first = prepare(rest_bias_, dt);
      return;
    case CoreAction::kBtiActiveRecovery:
      first = prepare(recovery_bias_, dt);
      return;
  }
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
  thread_local device::CompactBtiStep steps[2][kBlock];
  device::CompactBti* devices[kBlock];
  for (std::size_t first = 0; first < cores.size(); first += kBlock) {
    const std::size_t n = std::min(kBlock, cores.size() - first);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t c = first + i;
      devices[i] = &cores[c].bti_;
      cores[c].quantum_steps(actions[c], utilization[c], temperatures[c], dt,
                             steps[0][i], steps[1][i]);
    }
    for (const auto& phase : steps) {
      device::CompactBti::advance(std::span{phase, n}, std::span{devices, n});
    }
  }
}

double Core::degradation() const {
  return ro_.degradation(bti_.delta_vth());
}

double Core::leakage(Celsius temperature) const {
  const auto t_bits = std::bit_cast<std::uint64_t>(temperature.value());
  const double dvth = bti_.delta_vth().value();
  const auto dvth_bits = std::bit_cast<std::uint64_t>(dvth);
  LeakMemo& m = leak_memo_;
  if (m.valid && m.temperature_bits == t_bits && m.dvth_bits == dvth_bits) {
    return m.leak_w;
  }
  // Exponential leakage growth, capped: past ~2 e-folds real designs
  // throttle (and the exponential alone would make the thermal solve
  // diverge in pathological configurations).
  const double leak_scale = std::min(
      8.0, std::exp((temperature.value() - params_.leakage_t_ref.value()) /
                    params_.leakage_t_efold_k));
  // BTI raises Vth, which suppresses subthreshold leakage slightly.
  const double vth_scale = std::exp(-dvth / 0.050);
  m = {true, t_bits, dvth_bits,
       params_.leakage_ref.value() * leak_scale * vth_scale};
  return m.leak_w;
}

Watts Core::power(CoreAction action, double utilization,
                  Celsius temperature) const {
  const double leak = leakage(temperature);
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
