#include "circuit/mna.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"

namespace dh::circuit {
namespace {

TEST(Mna, VoltageDivider) {
  Circuit c;
  const NodeId vin = c.add_node("vin");
  const NodeId mid = c.add_node("mid");
  (void)c.add_voltage_source(vin, Circuit::ground(), Waveform::dc(10.0));
  c.add_resistor(vin, mid, Ohms{1000.0});
  c.add_resistor(mid, Circuit::ground(), Ohms{3000.0});
  const DcSolution sol = c.solve_dc();
  EXPECT_NEAR(sol.voltage(mid), 7.5, 1e-6);
  EXPECT_NEAR(sol.voltage(vin), 10.0, 1e-6);
}

TEST(Mna, VoltageSourceBranchCurrent) {
  Circuit c;
  const NodeId vin = c.add_node("vin");
  const VsourceId vs =
      c.add_voltage_source(vin, Circuit::ground(), Waveform::dc(5.0));
  c.add_resistor(vin, Circuit::ground(), Ohms{100.0});
  const DcSolution sol = c.solve_dc();
  // Branch current flows out of the + terminal through the circuit:
  // MNA convention gives the current INTO the + terminal as positive, so
  // a sourcing supply reads negative.
  EXPECT_NEAR(sol.branch_current(vs.index), -0.05, 1e-6);
}

TEST(Mna, SuperpositionOfSources) {
  Circuit c;
  const NodeId a = c.add_node("a");
  const NodeId b = c.add_node("b");
  const NodeId d = c.add_node("d");
  (void)c.add_voltage_source(a, Circuit::ground(), Waveform::dc(2.0));
  (void)c.add_voltage_source(d, Circuit::ground(), Waveform::dc(3.0));
  c.add_resistor(a, b, Ohms{1000.0});
  c.add_resistor(d, b, Ohms{1000.0});
  c.add_resistor(b, Circuit::ground(), Ohms{1000.0});
  const DcSolution sol = c.solve_dc();
  // Each source alone sees a 1k : 500 divider: v(b) = 2/3 + 3/3.
  EXPECT_NEAR(sol.voltage(b), 5.0 / 3.0, 1e-6);
}

TEST(Mna, CapacitorOpenAtDc) {
  Circuit c;
  const NodeId a = c.add_node("a");
  const NodeId b = c.add_node("b");
  (void)c.add_voltage_source(a, Circuit::ground(), Waveform::dc(1.0));
  c.add_resistor(a, b, Ohms{1000.0});
  c.add_capacitor(b, Circuit::ground(), Farads{1e-9});
  const DcSolution sol = c.solve_dc();
  // No DC path through the cap: node b floats to the source voltage.
  EXPECT_NEAR(sol.voltage(b), 1.0, 1e-6);
}

TEST(Mna, DiodeConnectedMosfetSettles) {
  Circuit c;
  const NodeId vdd = c.add_node("vdd");
  const NodeId d = c.add_node("d");
  (void)c.add_voltage_source(vdd, Circuit::ground(), Waveform::dc(1.0));
  c.add_resistor(vdd, d, Ohms{10000.0});
  MosfetParams m;  // NMOS, vth 0.3
  c.add_mosfet(m, d, d, Circuit::ground());
  const DcSolution sol = c.solve_dc();
  // Gate-drain tied: settles a bit above threshold.
  EXPECT_GT(sol.voltage(d), 0.3);
  EXPECT_LT(sol.voltage(d), 0.6);
}

TEST(Mna, CmosInverterTransfersLogic) {
  Circuit c;
  const NodeId vdd = c.add_node("vdd");
  const NodeId in = c.add_node("in");
  const NodeId out = c.add_node("out");
  (void)c.add_voltage_source(vdd, Circuit::ground(), Waveform::dc(1.0));
  const VsourceId vin =
      c.add_voltage_source(in, Circuit::ground(), Waveform::dc(0.0));
  MosfetParams n;
  MosfetParams p;
  p.polarity = MosPolarity::kPmos;
  c.add_mosfet(p, in, out, vdd);
  c.add_mosfet(n, in, out, Circuit::ground());
  (void)vin;
  // Input low -> output high.
  EXPECT_GT(c.solve_dc().voltage(out), 0.95);
}

TEST(Mna, RcTransientTimeConstant) {
  Circuit c;
  const NodeId a = c.add_node("a");
  const NodeId b = c.add_node("b");
  (void)c.add_voltage_source(a, Circuit::ground(),
                             Waveform::step(0.0, 1.0, 1e-6, 1e-9));
  c.add_resistor(a, b, Ohms{1000.0});
  c.add_capacitor(b, Circuit::ground(), Farads{1e-9});  // tau = 1 us
  const std::vector<Probe> probes = {
      {Probe::Kind::kNodeVoltage, b, "vb"}};
  const TransientResult tr = c.solve_transient(6e-6, 1e-8, probes);
  const auto& vb = tr.trace("vb");
  // After one tau past the step: 1 - 1/e.
  EXPECT_NEAR(vb.sample(Seconds{2e-6}), 1.0 - std::exp(-1.0), 0.02);
  // After five tau: settled.
  EXPECT_NEAR(vb.back_value(), 1.0, 0.01);
}

TEST(Mna, TransientTraceLabels) {
  Circuit c;
  const NodeId a = c.add_node("a");
  (void)c.add_voltage_source(a, Circuit::ground(), Waveform::dc(1.0));
  c.add_resistor(a, Circuit::ground(), Ohms{1.0});
  const TransientResult tr = c.solve_transient(
      1e-6, 1e-7, {{Probe::Kind::kNodeVoltage, a, "va"}});
  EXPECT_NO_THROW((void)tr.trace("va"));
  EXPECT_THROW((void)tr.trace("nope"), Error);

  // A probe past the last node or voltage source is rejected before any
  // solve; one at the last valid index is fine.
  using K = Probe::Kind;
  EXPECT_NO_THROW(
      (void)c.solve_transient(1e-6, 1e-7, {{K::kVsourceCurrent, 0, "i"}}));
  for (const Probe& bad : {Probe{K::kNodeVoltage, c.node_count(), "v"},
                           Probe{K::kNodeVoltage, 99, "v"},
                           Probe{K::kVsourceCurrent, 1, "i"}}) {
    EXPECT_THROW((void)c.solve_transient(1e-6, 1e-7, {bad}), Error);
  }
}

TEST(Mna, InvalidElementsRejected) {
  Circuit c;
  const NodeId a = c.add_node("a");
  EXPECT_THROW(c.add_resistor(a, Circuit::ground(), Ohms{0.0}), Error);
  EXPECT_THROW(c.add_resistor(a, 99, Ohms{1.0}), Error);
  EXPECT_THROW(c.add_capacitor(a, Circuit::ground(), Farads{-1.0}), Error);
  EXPECT_THROW((void)c.node("missing"), Error);
}

TEST(Mna, FloatingNodeHandledByGmin) {
  Circuit c;
  const NodeId a = c.add_node("a");
  const NodeId b = c.add_node("b");
  (void)c.add_voltage_source(a, Circuit::ground(), Waveform::dc(1.0));
  c.add_resistor(a, b, Ohms{100.0});
  // b has no other connection: gmin pulls it to the driven value.
  const DcSolution sol = c.solve_dc();
  EXPECT_NEAR(sol.voltage(b), 1.0, 1e-3);
}

TEST(Mna, KirchhoffCurrentBalance) {
  // Bridge of resistors: total current out of the source equals the sum
  // through the two parallel branches.
  Circuit c;
  const NodeId s = c.add_node("s");
  const NodeId x = c.add_node("x");
  const NodeId y = c.add_node("y");
  const VsourceId vs =
      c.add_voltage_source(s, Circuit::ground(), Waveform::dc(1.0));
  c.add_resistor(s, x, Ohms{100.0});
  c.add_resistor(s, y, Ohms{200.0});
  c.add_resistor(x, Circuit::ground(), Ohms{100.0});
  c.add_resistor(y, Circuit::ground(), Ohms{200.0});
  const DcSolution sol = c.solve_dc();
  const double i_src = -sol.branch_current(vs.index);
  const double i_x = (sol.voltage(s) - sol.voltage(x)) / 100.0;
  const double i_y = (sol.voltage(s) - sol.voltage(y)) / 200.0;
  EXPECT_NEAR(i_src, i_x + i_y, 1e-6);
}

}  // namespace
}  // namespace dh::circuit
