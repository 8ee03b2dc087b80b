#include "circuit/mna.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

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

/// A CMOS inverter whose input source is held at `vin`.
struct Inverter {
  Circuit c;
  VsourceId input{};
  NodeId out = 0;
};

Inverter make_inverter(double vin) {
  Inverter inv;
  const NodeId vdd = inv.c.add_node("vdd");
  const NodeId in = inv.c.add_node("in");
  inv.out = inv.c.add_node("out");
  (void)inv.c.add_voltage_source(vdd, Circuit::ground(), Waveform::dc(1.0));
  inv.input = inv.c.add_voltage_source(in, Circuit::ground(), Waveform::dc(vin));
  MosfetParams p;
  p.polarity = MosPolarity::kPmos;
  inv.c.add_mosfet(p, in, inv.out, vdd);
  inv.c.add_mosfet(MosfetParams{}, in, inv.out, Circuit::ground());
  return inv;
}

TEST(MnaSweep, OneValueSweepIsSolveDcBitForBit) {
  // The first point of a sweep is solve_dc's gmin ladder from 0 V.
  for (const double vin : {0.0, 0.37, 0.5, 1.0}) {
    const Inverter inv = make_inverter(vin);
    const double v = inv.c.solve_dc().voltage(inv.out);
    const std::vector<double> sweep =
        inv.c.solve_dc_sweep(inv.input, std::vector<double>{vin}, inv.out);
    ASSERT_EQ(sweep.size(), 1u);
    EXPECT_EQ(sweep[0], v) << "vin " << vin;
  }
}

TEST(MnaSweep, WarmStartsAgreeWithPerPointSolves) {
  // Continuation from the previous point, in either direction, lands on
  // the per-point operating point to well inside Newton's 1e-9 V
  // tolerance, through the inverter's high-gain transition too.
  std::vector<double> up;
  for (int i = 0; i <= 100; ++i) up.push_back(i / 100.0);
  const std::vector<double> down(up.rbegin(), up.rend());
  for (const std::vector<double>& values : {up, down}) {
    const Inverter inv = make_inverter(0.0);
    const std::vector<double> sweep =
        inv.c.solve_dc_sweep(inv.input, values, inv.out);
    ASSERT_EQ(sweep.size(), values.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
      const Inverter point = make_inverter(values[i]);
      EXPECT_NEAR(sweep[i], point.c.solve_dc().voltage(point.out), 1e-9)
          << "vin " << values[i];
    }
  }
}

TEST(MnaSweep, FailedWarmStartFallsBackToTheLadder) {
  // Newton limits a node's update to 0.5 V per iteration and gives up
  // after 200. From the +60 V point, the -60 V point is 240 damped
  // iterations away, so its warm start fails; the ladder from 0 V needs
  // 120 and converges. The point is then solve_dc's, bit for bit.
  Circuit c;
  const NodeId a = c.add_node("a");
  const NodeId b = c.add_node("b");
  const VsourceId vs =
      c.add_voltage_source(a, Circuit::ground(), Waveform::dc(0.0));
  c.add_resistor(a, b, Ohms{1000.0});
  c.add_resistor(b, Circuit::ground(), Ohms{3000.0});
  const std::vector<double> sweep =
      c.solve_dc_sweep(vs, std::vector<double>{60.0, -60.0}, b);
  ASSERT_EQ(sweep.size(), 2u);
  Circuit ref;
  const NodeId ra = ref.add_node("a");
  const NodeId rb = ref.add_node("b");
  (void)ref.add_voltage_source(ra, Circuit::ground(), Waveform::dc(-60.0));
  ref.add_resistor(ra, rb, Ohms{1000.0});
  ref.add_resistor(rb, Circuit::ground(), Ohms{3000.0});
  EXPECT_EQ(sweep[1], ref.solve_dc().voltage(rb));
  EXPECT_NEAR(sweep[0], 45.0, 1e-6);
  EXPECT_NEAR(sweep[1], -45.0, 1e-6);
}

TEST(MnaSweep, RejectsAForeignSourceOrProbe) {
  const Inverter inv = make_inverter(0.0);
  const std::vector<double> values{0.0, 0.5};
  const auto message = [&](VsourceId source, NodeId probe) {
    try {
      (void)inv.c.solve_dc_sweep(source, values, probe);
    } catch (const Error& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  EXPECT_NE(message(VsourceId{2}, inv.out).find("source 2"),
            std::string::npos);
  EXPECT_NE(message(inv.input, 4).find("probe node 4"), std::string::npos);
  EXPECT_EQ(inv.c.solve_dc_sweep(inv.input, values, Circuit::ground()),
            (std::vector<double>{0.0, 0.0}));
}

}  // namespace
}  // namespace dh::circuit
