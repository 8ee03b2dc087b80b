#include "circuit/mna.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/math/linalg.hpp"

namespace dh::circuit {

namespace {

constexpr int kMaxNewtonIterations = 200;
constexpr double kAbsTol = 1e-9;
constexpr double kRelTol = 1e-6;
constexpr double kMaxStepV = 0.5;    // Newton damping limit on node voltages
constexpr double kGminFloor = 1e-12;  // permanent leak to ground for robustness

}  // namespace

double DcSolution::voltage(NodeId n) const {
  if (n == 0) return 0.0;
  DH_REQUIRE(n - 1 < node_count, "node id out of range");
  return x[n - 1];
}

double DcSolution::branch_current(std::size_t branch) const {
  DH_REQUIRE(node_count - 1 + branch < x.size(),
             "branch index out of range");
  return x[node_count - 1 + branch];
}

const TimeSeries& TransientResult::trace(const std::string& label) const {
  for (const auto& t : traces) {
    if (t.name() == label) return t;
  }
  throw Error("no transient trace named '" + label + "'");
}

NodeId Circuit::add_node(std::string name) {
  node_names_.push_back(std::move(name));
  return node_names_.size() - 1;
}

NodeId Circuit::node(const std::string& name) const {
  for (std::size_t i = 0; i < node_names_.size(); ++i) {
    if (node_names_[i] == name) return i;
  }
  throw Error("no node named '" + name + "'");
}

void Circuit::add_resistor(NodeId a, NodeId b, Ohms r) {
  DH_REQUIRE(r.value() > 0.0, "resistance must be positive");
  DH_REQUIRE(a < node_count() && b < node_count(), "resistor node invalid");
  resistors_.push_back({a, b, 1.0 / r.value()});
}

void Circuit::add_capacitor(NodeId a, NodeId b, Farads c) {
  DH_REQUIRE(c.value() > 0.0, "capacitance must be positive");
  DH_REQUIRE(a < node_count() && b < node_count(), "capacitor node invalid");
  capacitors_.push_back({a, b, c.value()});
}

VsourceId Circuit::add_voltage_source(NodeId plus, NodeId minus, Waveform w) {
  DH_REQUIRE(plus < node_count() && minus < node_count(),
             "voltage source node invalid");
  vsources_.push_back({plus, minus, std::move(w)});
  return VsourceId{vsources_.size() - 1};
}

void Circuit::add_mosfet(const MosfetParams& params, NodeId gate,
                         NodeId drain, NodeId source) {
  DH_REQUIRE(gate < node_count() && drain < node_count() &&
                 source < node_count(),
             "mosfet node invalid");
  mosfets_.push_back({params, gate, drain, source});
}

// ---- Assembly -------------------------------------------------------------

class AssembleOut {
 public:
  explicit AssembleOut(std::size_t n_unknowns)
      : g(n_unknowns, n_unknowns, 0.0), rhs(n_unknowns, 0.0) {}

  // Node index -> unknown index (ground excluded).
  [[nodiscard]] bool grounded(NodeId n) const { return n == 0; }
  [[nodiscard]] std::size_t idx(NodeId n) const { return n - 1; }

  void add_conductance(NodeId a, NodeId b, double cond) {
    if (!grounded(a)) g(idx(a), idx(a)) += cond;
    if (!grounded(b)) g(idx(b), idx(b)) += cond;
    if (!grounded(a) && !grounded(b)) {
      g(idx(a), idx(b)) -= cond;
      g(idx(b), idx(a)) -= cond;
    }
  }
  /// Current `i` flows out of node a into node b (through the element).
  void add_current(NodeId a, NodeId b, double i) {
    if (!grounded(a)) rhs[idx(a)] -= i;
    if (!grounded(b)) rhs[idx(b)] += i;
  }
  /// Transconductance: current out of `a` into `b` controlled by the
  /// voltage of node `ctrl`: i = gm * v(ctrl).
  void add_transconductance(NodeId a, NodeId b, NodeId ctrl, double gm) {
    if (grounded(ctrl)) return;
    if (!grounded(a)) g(idx(a), idx(ctrl)) += gm;
    if (!grounded(b)) g(idx(b), idx(ctrl)) -= gm;
  }

  math::Matrix g;
  std::vector<double> rhs;
};

void Circuit::assemble(std::vector<double>& x_guess,
                       std::span<const double> source_v, double gmin,
                       const std::vector<double>* x_prev, double dt,
                       AssembleOut& out) const {
  auto v_of = [&](NodeId n) { return n == 0 ? 0.0 : x_guess[n - 1]; };
  auto v_prev_of = [&](NodeId n) {
    return (n == 0 || x_prev == nullptr) ? 0.0 : (*x_prev)[n - 1];
  };

  // gmin leak on every non-ground node.
  for (std::size_t n = 1; n < node_count(); ++n) {
    out.g(n - 1, n - 1) += gmin;
  }

  for (const auto& r : resistors_) out.add_conductance(r.a, r.b, r.g);

  for (const auto& c : capacitors_) {
    if (x_prev == nullptr) continue;  // DC: capacitor is open
    const double geq = c.c / dt;
    out.add_conductance(c.a, c.b, geq);
    const double v0 = v_prev_of(c.a) - v_prev_of(c.b);
    // Companion current source geq*v0 from b to a (it fights change).
    out.add_current(c.a, c.b, -geq * v0);
  }

  for (const auto& m : mosfets_) {
    const MosfetEval e =
        evaluate_mosfet(m.params, v_of(m.g), v_of(m.d), v_of(m.s));
    // Linearized: i(v) = ids + d_vg*dvg + d_vd*dvd + d_vs*dvs.
    // Current flows drain -> source through the device.
    const double ieq = e.ids - e.d_vg * v_of(m.g) - e.d_vd * v_of(m.d) -
                       e.d_vs * v_of(m.s);
    out.add_current(m.d, m.s, ieq);
    out.add_transconductance(m.d, m.s, m.g, e.d_vg);
    out.add_transconductance(m.d, m.s, m.d, e.d_vd);
    out.add_transconductance(m.d, m.s, m.s, e.d_vs);
  }

  const std::size_t nn = node_count() - 1;
  for (std::size_t k = 0; k < vsources_.size(); ++k) {
    const auto& vs = vsources_[k];
    const std::size_t br = nn + k;
    if (vs.p != 0) {
      out.g(vs.p - 1, br) += 1.0;
      out.g(br, vs.p - 1) += 1.0;
    }
    if (vs.n != 0) {
      out.g(vs.n - 1, br) -= 1.0;
      out.g(br, vs.n - 1) -= 1.0;
    }
    out.rhs[br] += source_v[k];
  }
}

std::vector<double> Circuit::source_values(double t) const {
  std::vector<double> v;
  v.reserve(vsources_.size());
  for (const auto& vs : vsources_) v.push_back(vs.w.value(t));
  return v;
}

std::optional<std::vector<double>> Circuit::newton_solve(
    std::vector<double> x0, std::span<const double> source_v, double gmin,
    const std::vector<double>* x_prev, double dt) const {
  const std::size_t n = unknown_count();
  std::vector<double> x = std::move(x0);
  x.resize(n, 0.0);
  const std::size_t nn = node_count() - 1;
  for (int iter = 0; iter < kMaxNewtonIterations; ++iter) {
    AssembleOut out(n);
    assemble(x, source_v, gmin, x_prev, dt, out);
    std::vector<double> x_new;
    try {
      x_new = math::solve_dense(out.g, out.rhs);
    } catch (const Error&) {
      return std::nullopt;  // singular system at this gmin level
    }
    // Damping: limit the node-voltage update.
    double max_dv = 0.0;
    for (std::size_t i = 0; i < nn; ++i) {
      max_dv = std::max(max_dv, std::abs(x_new[i] - x[i]));
    }
    double scale = 1.0;
    if (max_dv > kMaxStepV) scale = kMaxStepV / max_dv;
    bool converged = true;
    for (std::size_t i = 0; i < n; ++i) {
      const double dx = (x_new[i] - x[i]) * scale;
      if (std::abs(dx) > kAbsTol + kRelTol * std::abs(x[i])) {
        converged = false;
      }
      x[i] += dx;
    }
    if (converged && scale == 1.0) return x;
  }
  return std::nullopt;
}

std::optional<std::vector<double>> Circuit::gmin_ladder(
    std::span<const double> source_v) const {
  // gmin continuation: start leaky, tighten, reusing each stage's solution.
  const double gmin_levels[] = {1e-3, 1e-5, 1e-7, 1e-9, 0.0};
  std::vector<double> x(unknown_count(), 0.0);
  bool have_solution = false;
  for (const double gmin : gmin_levels) {
    const double g = std::max(gmin, kGminFloor);
    auto sol = newton_solve(x, source_v, g, nullptr, 0.0);
    if (sol) {
      x = std::move(*sol);
      have_solution = true;
    } else if (!have_solution) {
      continue;  // try the next (tighter) level from scratch anyway
    }
  }
  if (!have_solution) return std::nullopt;
  return x;
}

DcSolution Circuit::solve_dc(double t) const {
  DH_REQUIRE(node_count() >= 2, "circuit has no nodes");
  auto x = gmin_ladder(source_values(t));
  if (!x) throw ConvergenceError("DC operating point failed to converge");
  DcSolution out;
  out.x = std::move(*x);
  out.node_count = node_count();
  return out;
}

std::vector<double> Circuit::solve_dc_sweep(VsourceId source,
                                            std::span<const double> values,
                                            NodeId probe) const {
  DH_REQUIRE(node_count() >= 2, "circuit has no nodes");
  if (source.index >= vsources_.size()) {
    throw Error("DC sweep source " + std::to_string(source.index) +
                " is not a voltage source of the circuit, which has " +
                std::to_string(vsources_.size()));
  }
  if (probe >= node_count()) {
    throw Error("DC sweep probe node " + std::to_string(probe) +
                " is not a node of the circuit, which has " +
                std::to_string(node_count()));
  }
  std::vector<double> source_v = source_values(0.0);
  std::vector<double> out;
  out.reserve(values.size());
  std::optional<std::vector<double>> x;
  for (const double v : values) {
    source_v[source.index] = v;
    // Continuation: from the previous point's solution straight at the
    // floor gmin; the ladder only for the first point or a failed start.
    if (x) x = newton_solve(std::move(*x), source_v, kGminFloor, nullptr, 0.0);
    if (!x) x = gmin_ladder(source_v);
    if (!x) {
      throw ConvergenceError("DC sweep failed to converge at source value " +
                             std::to_string(v));
    }
    out.push_back(probe == 0 ? 0.0 : (*x)[probe - 1]);
  }
  return out;
}

TransientResult Circuit::solve_transient(
    double t_end, double dt, const std::vector<Probe>& probes) const {
  DH_REQUIRE(t_end > 0.0 && dt > 0.0 && dt < t_end,
             "transient window/step invalid");
  TransientResult result;
  for (const auto& p : probes) {
    const bool node = p.kind == Probe::Kind::kNodeVoltage;
    const std::size_t limit = node ? node_count() : vsources_.size();
    if (p.target >= limit) {
      throw Error("probe '" + p.label + "' targets " +
                  (node ? "node " : "voltage source ") +
                  std::to_string(p.target) + ", but the circuit has " +
                  std::to_string(limit));
    }
    result.traces.emplace_back(p.label, node ? "V" : "A");
  }
  DcSolution ic = solve_dc(0.0);
  std::vector<double> x = ic.x;
  const std::size_t nn = node_count() - 1;
  auto record = [&](double time) {
    for (std::size_t p = 0; p < probes.size(); ++p) {
      double v = 0.0;
      if (probes[p].kind == Probe::Kind::kNodeVoltage) {
        v = probes[p].target == 0 ? 0.0 : x[probes[p].target - 1];
      } else {
        v = x[nn + probes[p].target];
      }
      result.traces[p].append(Seconds{time}, v);
    }
  };
  record(0.0);
  double t = 0.0;
  std::vector<double> x_prev = x;
  while (t < t_end - 0.5 * dt) {
    t += dt;
    x_prev = x;
    const std::vector<double> source_v = source_values(t);
    auto sol = newton_solve(x, source_v, kGminFloor, &x_prev, dt);
    if (!sol) {
      // Retry once with a leakier gmin before giving up.
      sol = newton_solve(x, source_v, 1e-6, &x_prev, dt);
      if (!sol) {
        throw ConvergenceError("transient step failed to converge at t=" +
                               std::to_string(t));
      }
    }
    x = std::move(*sol);
    record(t);
  }
  return result;
}

}  // namespace dh::circuit
