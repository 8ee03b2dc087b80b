#include "circuit/assist.hpp"

#include <array>
#include <cmath>

#include "common/error.hpp"

namespace dh::circuit {

const char* to_string(AssistMode mode) {
  switch (mode) {
    case AssistMode::kNormal:
      return "Normal";
    case AssistMode::kEmActiveRecovery:
      return "EM Active Recovery";
    case AssistMode::kBtiActiveRecovery:
      return "BTI Active Recovery";
  }
  return "?";
}

namespace {

/// Gate states for the ten devices per mode (true = device ON).
/// Order: P1 (VDD->gA), P3 (VDD->gB), P2 (gB->loadVdd), P4 (gA->loadVdd),
///        N1 (loadVss->hA), N3 (loadVss->hB), N2 (hA->VSS), N4 (hB->VSS),
///        Pb (VDD->loadVss), Nb (loadVdd->VSS).
constexpr std::array<bool, 10> gate_states(AssistMode m) {
  switch (m) {
    case AssistMode::kNormal:
      //        P1     P3     P2     P4     N1     N3     N2     N4   Pb Nb
      return {true, false, true, false, true, false, true, false, false,
              false};
    case AssistMode::kEmActiveRecovery:
      return {false, true, false, true, false, true, false, true, false,
              false};
    case AssistMode::kBtiActiveRecovery:
      return {false, false, false, false, false, false, false, false, true,
              true};
  }
  return {};
}

}  // namespace

struct AssistCircuit::Built {
  Circuit ckt;
  NodeId vdd, ga, gmid, gb, ha, hb, load_vdd, load_vss;
  VsourceId ammeter;  // 0 V source in series with the VDD grid
};

AssistCircuit::AssistCircuit(AssistCircuitParams params) : params_(params) {
  DH_REQUIRE(params_.load_units >= 1, "need at least one load unit");
  DH_REQUIRE(params_.vdd.value() > params_.vth,
             "supply must exceed the device threshold");
}

AssistCircuit::Built AssistCircuit::build(AssistMode dc_mode, bool transient,
                                          AssistMode to_mode,
                                          double t_switch) const {
  Built b;
  Circuit& c = b.ckt;
  b.vdd = c.add_node("vdd");
  b.ga = c.add_node("gA");
  b.gmid = c.add_node("gMid");
  b.gb = c.add_node("gB");
  b.ha = c.add_node("hA");
  b.hb = c.add_node("hB");
  b.load_vdd = c.add_node("loadVdd");
  b.load_vss = c.add_node("loadVss");

  const double vdd = params_.vdd.value();
  (void)c.add_voltage_source(b.vdd, Circuit::ground(), Waveform::dc(vdd));

  // VDD grid with a 0 V ammeter in series (gA -> gMid -> gB).
  b.ammeter = c.add_voltage_source(b.ga, b.gmid, Waveform::dc(0.0));
  c.add_resistor(b.gmid, b.gb, params_.vdd_grid);
  // VSS grid.
  c.add_resistor(b.ha, b.hb, params_.vss_grid);

  // Grid wire capacitance (needed for the switching-time study).
  c.add_capacitor(b.ga, Circuit::ground(), params_.grid_cap);
  c.add_capacitor(b.gb, Circuit::ground(), params_.grid_cap);
  c.add_capacitor(b.ha, Circuit::ground(), params_.grid_cap);
  c.add_capacitor(b.hb, Circuit::ground(), params_.grid_cap);

  // Pass devices. Gate drives are step waveforms when simulating a mode
  // transition, DC otherwise.
  const auto from_states = gate_states(dc_mode);
  const auto to_states = gate_states(to_mode);
  MosfetParams pfet;
  pfet.polarity = MosPolarity::kPmos;
  pfet.vth = params_.vth;
  pfet.beta = params_.pass_beta;
  MosfetParams nfet = pfet;
  nfet.polarity = MosPolarity::kNmos;
  MosfetParams p_bti = pfet;
  p_bti.beta = params_.bti_beta;
  MosfetParams n_bti = nfet;
  n_bti.beta = params_.bti_beta;

  // Device table: {params, drain, source, on-gate-voltage, off-gate-voltage}.
  struct Dev {
    const MosfetParams* p;
    NodeId d, s;
  };
  const std::array<Dev, 10> devs = {{
      {&pfet, b.ga, b.vdd},        // P1: VDD -> gA
      {&pfet, b.gb, b.vdd},        // P3: VDD -> gB
      {&pfet, b.load_vdd, b.gb},   // P2: gB -> loadVdd
      {&pfet, b.load_vdd, b.ga},   // P4: gA -> loadVdd
      {&nfet, b.load_vss, b.ha},   // N1: loadVss -> hA
      {&nfet, b.load_vss, b.hb},   // N3: loadVss -> hB
      {&nfet, b.ha, Circuit::ground()},  // N2: hA -> VSS
      {&nfet, b.hb, Circuit::ground()},  // N4: hB -> VSS
      {&p_bti, b.load_vss, b.vdd},       // Pb: VDD -> loadVss
      {&n_bti, b.load_vdd, Circuit::ground()},  // Nb: loadVdd -> VSS
  }};
  for (std::size_t i = 0; i < devs.size(); ++i) {
    const bool is_pmos = devs[i].p->polarity == MosPolarity::kPmos;
    const double v_on = is_pmos ? 0.0 : vdd;
    const double v_off = is_pmos ? vdd : 0.0;
    const double v_from = from_states[i] ? v_on : v_off;
    const double v_to = to_states[i] ? v_on : v_off;
    const NodeId gate = c.add_node("gate" + std::to_string(i));
    const Waveform w = transient && v_from != v_to
                           ? Waveform::step(v_from, v_to, t_switch, 2e-10)
                           : Waveform::dc(v_from);
    (void)c.add_voltage_source(gate, Circuit::ground(), w);
    c.add_mosfet(*devs[i].p, gate, devs[i].d, devs[i].s);
  }

  // Load bank.
  const int n = params_.load_units;
  const bool active_from = dc_mode != AssistMode::kBtiActiveRecovery;
  const bool active_to = to_mode != AssistMode::kBtiActiveRecovery;
  c.add_capacitor(b.load_vdd, Circuit::ground(), params_.load_rail_cap);
  c.add_capacitor(b.load_vss, Circuit::ground(), params_.load_rail_cap);
  for (int u = 0; u < n; ++u) {
    c.add_resistor(b.load_vdd, b.load_vss, params_.load_leak_per_unit);
    c.add_capacitor(b.load_vdd, b.load_vss, params_.load_cap);
  }
  // Activity-equivalent load: present while the load operates. For a
  // transition involving BTI mode the activity stops/starts with the
  // switch; we approximate with a switch element driven by the mode.
  if (active_from || active_to) {
    const double r_act =
        params_.load_active_per_unit.value() / static_cast<double>(n);
    if (active_from && active_to) {
      c.add_resistor(b.load_vdd, b.load_vss, Ohms{r_act});
    } else {
      // Activity ramps with the mode change: model as a resistor in
      // series with a switch-like FET is overkill here — use two
      // resistors gated by complementary step sources feeding a
      // current-free gate is unnecessary; instead approximate with the
      // 'from' state for DC and accept the step for transient studies.
      const NodeId act = c.add_node("act_gate");
      const double on_v = params_.vdd.value();
      const Waveform w =
          transient
              ? Waveform::step(active_from ? on_v : 0.0,
                               active_to ? on_v : 0.0, t_switch, 2e-10)
              : Waveform::dc(active_from ? on_v : 0.0);
      (void)c.add_voltage_source(act, Circuit::ground(), w);
      MosfetParams act_fet;
      act_fet.polarity = MosPolarity::kNmos;
      act_fet.vth = params_.vth;
      // Sized so the on-resistance matches the activity load.
      act_fet.beta = 1.0 / (r_act * (params_.vdd.value() - params_.vth));
      c.add_mosfet(act_fet, act, b.load_vdd, b.load_vss);
    }
  }
  return b;
}

AssistOperating AssistCircuit::solve(AssistMode mode) const {
  Built b = build(mode, false, mode, 0.0);
  const DcSolution sol = b.ckt.solve_dc();
  AssistOperating op;
  op.mode = mode;
  op.load_vdd = sol.voltage(b.load_vdd);
  op.load_vss = sol.voltage(b.load_vss);
  // Ammeter measures current gA -> gMid; positive = Normal direction
  // (into the grid from the VDD header at A).
  op.grid_current = sol.branch_current(b.ammeter.index);
  return op;
}

TransientResult AssistCircuit::transition(AssistMode from, AssistMode to,
                                          Seconds t_switch, Seconds t_end,
                                          Seconds dt) const {
  Built b = build(from, true, to, t_switch.value());
  const std::vector<Probe> probes = {
      {Probe::Kind::kVsourceCurrent, b.ammeter.index, "grid_current"},
      {Probe::Kind::kNodeVoltage, b.load_vdd, "load_vdd"},
      {Probe::Kind::kNodeVoltage, b.load_vss, "load_vss"},
      {Probe::Kind::kNodeVoltage, b.ga, "gA"},
      {Probe::Kind::kNodeVoltage, b.gb, "gB"},
  };
  return b.ckt.solve_transient(t_end.value(), dt.value(), probes);
}

Seconds AssistCircuit::switching_time(AssistMode from, AssistMode to,
                                      double settle_band) const {
  const bool slow = from == AssistMode::kBtiActiveRecovery ||
                    to == AssistMode::kBtiActiveRecovery;
  const Seconds t_switch{slow ? 20e-9 : 2e-9};
  const Seconds t_end{slow ? 1.5e-6 : 80e-9};
  const Seconds dt{slow ? 2e-9 : 5e-11};
  const TransientResult tr = transition(from, to, t_switch, t_end, dt);
  // A mode switch is complete when every observable (grid current, load
  // pins, grid nodes) has settled within `settle_band` of its final value,
  // measured relative to each trace's full swing. Traces that barely move
  // are ignored.
  double settled_at = t_switch.value();
  for (const auto& trace : tr.traces) {
    // The grid ends float through cut-off devices when the grid is parked
    // (BTI mode); their milli-volt drift is not a functional observable.
    if (trace.name() == "gA" || trace.name() == "gB") continue;
    const double swing = trace.max_value() - trace.min_value();
    if (swing < 1e-6) continue;
    const double band = settle_band * swing;
    const double final_v = trace.back_value();
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const double t = trace.time_at(i).value();
      if (t < t_switch.value()) continue;
      if (std::abs(trace.value_at(i) - final_v) > band) {
        settled_at = std::max(settled_at, t);
      }
    }
  }
  return Seconds{settled_at - t_switch.value()};
}

double AssistCircuit::normalized_load_delay(AssistMode mode) const {
  const AssistOperating op = solve(mode);
  const double v_eff = op.effective_supply();
  const double vdd = params_.vdd.value();
  DH_REQUIRE(v_eff > params_.vth,
             "load supply collapsed below threshold — resize the headers");
  const double a = params_.ro_alpha;
  const double d_ideal = vdd / std::pow(vdd - params_.vth, a);
  const double d_eff = v_eff / std::pow(v_eff - params_.vth, a);
  return d_eff / d_ideal;
}

Volts AssistCircuit::bti_recovery_bias() const {
  const AssistOperating op = solve(AssistMode::kBtiActiveRecovery);
  // With VDD/VSS swapped, a held-input device sees a negative gate-source
  // bias equal to the swapped supply span.
  return Volts{-(op.load_vss - op.load_vdd)};
}

}  // namespace dh::circuit
