// Modified nodal analysis circuit simulator: DC operating point via
// damped Newton-Raphson with gmin continuation, DC sweeps by
// continuation from point to point, and backward-Euler
// transient analysis, sized for the small dense circuits in this project
// (the Fig. 8 assist circuitry and the SRAM cell's inverter curves).
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "circuit/mosfet.hpp"
#include "circuit/waveform.hpp"
#include "common/time_series.hpp"
#include "common/units.hpp"

namespace dh::circuit {

/// Node handle; 0 is ground.
using NodeId = std::size_t;

/// Handle to a voltage source (for branch-current probing).
struct VsourceId {
  std::size_t index;
};

struct DcSolution {
  std::vector<double> x;  // node voltages then branch currents
  std::size_t node_count = 0;
  [[nodiscard]] double voltage(NodeId n) const;
  [[nodiscard]] double branch_current(std::size_t branch) const;
};

/// Probe request for transient analysis.
struct Probe {
  enum class Kind { kNodeVoltage, kVsourceCurrent } kind;
  std::size_t target;  // NodeId or VsourceId.index
  std::string label;
};

struct TransientResult {
  std::vector<TimeSeries> traces;  // one per probe, same order
  [[nodiscard]] const TimeSeries& trace(const std::string& label) const;
};

class Circuit {
 public:
  Circuit() = default;

  [[nodiscard]] static NodeId ground() { return 0; }
  [[nodiscard]] NodeId add_node(std::string name);
  [[nodiscard]] NodeId node(const std::string& name) const;
  [[nodiscard]] std::size_t node_count() const { return node_names_.size(); }

  void add_resistor(NodeId a, NodeId b, Ohms r);
  void add_capacitor(NodeId a, NodeId b, Farads c);
  VsourceId add_voltage_source(NodeId plus, NodeId minus, Waveform w);
  void add_mosfet(const MosfetParams& params, NodeId gate, NodeId drain,
                  NodeId source);

  /// DC operating point at source time `t` (waveforms evaluated at t).
  [[nodiscard]] DcSolution solve_dc(double t = 0.0) const;

  /// DC sweep: the voltage of `probe` with `source` held at each of
  /// `values` in turn (every other source at its t = 0 value). The first
  /// point is `solve_dc`'s gmin ladder; each later one starts Newton at
  /// the floor gmin from the previous point's solution (SPICE's DC-sweep
  /// continuation) and falls back to the ladder if that start does not
  /// converge. Throws dh::Error, before any solve, if `source` or
  /// `probe` is not part of the circuit.
  [[nodiscard]] std::vector<double> solve_dc_sweep(
      VsourceId source, std::span<const double> values, NodeId probe) const;

  /// Backward-Euler transient from a DC initial point at t=0. Throws
  /// dh::Error, before any solve, if a probe names a node or voltage
  /// source the circuit does not have.
  [[nodiscard]] TransientResult solve_transient(
      double t_end, double dt, const std::vector<Probe>& probes) const;

 private:
  struct Resistor {
    NodeId a, b;
    double g;
  };
  struct Capacitor {
    NodeId a, b;
    double c;
  };
  struct Vsource {
    NodeId p, n;
    Waveform w;
  };
  struct Mosfet {
    MosfetParams params;
    NodeId g, d, s;
  };

  [[nodiscard]] std::size_t unknown_count() const {
    return node_count() - 1 + vsources_.size();
  }
  /// Every source's value at time t, in source order.
  [[nodiscard]] std::vector<double> source_values(double t) const;
  void assemble(std::vector<double>& x_guess,
                std::span<const double> source_v, double gmin,
                const std::vector<double>* x_prev, double dt,
                class AssembleOut& out) const;
  [[nodiscard]] std::optional<std::vector<double>> newton_solve(
      std::vector<double> x0, std::span<const double> source_v, double gmin,
      const std::vector<double>* x_prev, double dt) const;
  /// DC operating point by gmin continuation from 0 V; nullopt if no
  /// level converges.
  [[nodiscard]] std::optional<std::vector<double>> gmin_ladder(
      std::span<const double> source_v) const;

  std::vector<std::string> node_names_{"0"};
  std::vector<Resistor> resistors_;
  std::vector<Capacitor> capacitors_;
  std::vector<Vsource> vsources_;
  std::vector<Mosfet> mosfets_;
};

}  // namespace dh::circuit
