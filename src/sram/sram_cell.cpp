#include "sram/sram_cell.hpp"

#include <algorithm>
#include <cmath>

#include "circuit/mna.hpp"
#include "common/error.hpp"
#include "common/math/interp.hpp"

namespace dh::sram {

SramCell::SramCell(SramCellParams params)
    : params_(params),
      left_pmos_(params.bti),
      right_pmos_(params.bti) {
  DH_REQUIRE(params_.vdd.value() > params_.pmos_vth,
             "supply must exceed the PMOS threshold");
}

void SramCell::step(CellMode mode, bool stored_bit, Celsius temperature,
                    Seconds dt) {
  switch (mode) {
    case CellMode::kHold: {
      // The PMOS on the "1" side conducts: |Vsg| = VDD (NBTI stress).
      const device::BtiCondition stressed{params_.vdd, temperature};
      const device::BtiCondition resting{Volts{0.0}, temperature};
      stressed_pmos(stored_bit).apply(stressed, dt);
      resting_pmos(stored_bit).apply(resting, dt);
      break;
    }
    case CellMode::kRecoveryBoost: {
      const device::BtiCondition boost{params_.recovery_bias, temperature};
      left_pmos_.apply(boost, dt);
      right_pmos_.apply(boost, dt);
      break;
    }
  }
}

Volts SramCell::left_pmos_dvth() const { return left_pmos_.delta_vth(); }
Volts SramCell::right_pmos_dvth() const { return right_pmos_.delta_vth(); }

std::vector<double> inverter_vtc(const SramCellParams& params,
                                 Volts pmos_dvth, Volts nmos_dvth,
                                 const std::vector<double>& vin) {
  circuit::Circuit c;
  const auto vdd = c.add_node("vdd");
  const auto in = c.add_node("in");
  const auto o = c.add_node("out");
  (void)c.add_voltage_source(vdd, circuit::Circuit::ground(),
                             circuit::Waveform::dc(params.vdd.value()));
  const circuit::VsourceId vin_source = c.add_voltage_source(
      in, circuit::Circuit::ground(), circuit::Waveform::dc(0.0));
  circuit::MosfetParams p;
  p.polarity = circuit::MosPolarity::kPmos;
  p.vth = params.pmos_vth + pmos_dvth.value();
  p.beta = params.pmos_beta;
  circuit::MosfetParams n;
  n.polarity = circuit::MosPolarity::kNmos;
  n.vth = params.nmos_vth + nmos_dvth.value();
  n.beta = params.nmos_beta;
  c.add_mosfet(p, in, o, vdd);
  c.add_mosfet(n, in, o, circuit::Circuit::ground());
  return c.solve_dc_sweep(vin_source, vin, o);
}

namespace {

/// Inverse of a monotonically *decreasing* tabulated VTC: interpolating
/// `x` over `f` gives y with f(y) = x (clamped).
struct InverseVtc {
  std::vector<double> f;  // reversed, forced strictly increasing
  std::vector<double> x;
};

InverseVtc invert_decreasing(const std::vector<double>& xs,
                             const std::vector<double>& fs) {
  // Reverse so the table is increasing in f.
  InverseVtc inv{{fs.rbegin(), fs.rend()}, {xs.rbegin(), xs.rend()}};
  // Enforce strictly increasing f for the interpolator.
  for (std::size_t i = 1; i < inv.f.size(); ++i) {
    if (inv.f[i] <= inv.f[i - 1]) inv.f[i] = inv.f[i - 1] + 1e-12;
  }
  return inv;
}

/// `math::interp_linear` over one table, bit for bit, for a run of
/// non-decreasing probes: the bracket is walked forward from the previous
/// probe's instead of searched.
class TableWalk {
 public:
  TableWalk(const std::vector<double>& xs, const std::vector<double>& ys)
      : xs_(xs), ys_(ys) {}

  double at(double x) {
    if (x <= xs_.front()) return ys_.front();
    if (x >= xs_.back()) return ys_.back();
    // hi: the first entry above x, as upper_bound finds it.
    while (xs_[hi_] <= x) ++hi_;
    const std::size_t lo = hi_ - 1;
    const double w = (x - xs_[lo]) / (xs_[hi_] - xs_[lo]);
    return ys_[lo] * (1.0 - w) + ys_[hi_] * w;
  }

 private:
  const std::vector<double>& xs_;
  const std::vector<double>& ys_;
  std::size_t hi_ = 1;
};

/// Largest square of side s that fits in the lobe where curve A
/// (y = f_a(x)) lies above the inverse of curve B. Both boundaries are
/// decreasing, so the square [x, x+s] x [y, y+s] fits iff
/// f_a(x+s) - f_b^{-1}(x) >= s.
double lobe_square(const std::vector<double>& vin,
                   const std::vector<double>& f_a,
                   const std::vector<double>& f_b) {
  const double vmax = vin.back();
  const InverseVtc inv_b = invert_decreasing(vin, f_b);
  auto fits = [&](double s) {
    // The probes x and x + s rise with k, so each table is walked once.
    TableWalk top_of(vin, f_a);
    TableWalk bottom_of(inv_b.f, inv_b.x);
    for (int k = 0; k <= 160; ++k) {
      const double x = (vmax - s) * k / 160.0;
      const double top = top_of.at(x + s);
      const double bottom = bottom_of.at(x);
      if (top - bottom >= s) return true;
    }
    return false;
  };
  double lo = 0.0;
  double hi = vmax;
  if (!fits(1e-6)) return 0.0;
  for (int iter = 0; iter < 40; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (fits(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

double snm_from_vtcs(const std::vector<double>& vin,
                     const std::vector<double>& vtc1,
                     const std::vector<double>& vtc2) {
  DH_REQUIRE(vin.size() == vtc1.size() && vin.size() == vtc2.size() &&
                 vin.size() >= 4,
             "VTC tables must match and have >= 4 points");
  // The butterfly has two lobes; the hold SNM is the side of the largest
  // square embedded in the *smaller* lobe. Lobe 1: curve A above B's
  // inverse; lobe 2: the mirror case with the roles swapped.
  const double lobe1 = lobe_square(vin, vtc1, vtc2);
  const double lobe2 = lobe_square(vin, vtc2, vtc1);
  return std::min(lobe1, lobe2);
}

namespace {

double cell_snm(const SramCellParams& params, Volts left_dvth,
                Volts right_dvth) {
  const auto vin = math::linspace(0.0, params.vdd.value(), 41);
  // In the cross-coupled pair, the inverter driving Q uses the left
  // PMOS and the one driving Qb uses the right PMOS. PBTI on the NMOS
  // devices is second order for hold SNM and held fresh here.
  const auto f1 = inverter_vtc(params, left_dvth, Volts{0.0}, vin);
  const auto f2 = inverter_vtc(params, right_dvth, Volts{0.0}, vin);
  return snm_from_vtcs(vin, f1, f2);
}

}  // namespace

Volts SramCell::hold_snm() const {
  return Volts{cell_snm(params_, left_pmos_.delta_vth(),
                        right_pmos_.delta_vth())};
}

Volts SramCell::fresh_snm() const {
  return Volts{cell_snm(params_, Volts{0.0}, Volts{0.0})};
}

}  // namespace dh::sram
