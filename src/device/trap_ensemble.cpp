#include "device/trap_ensemble.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/arrhenius.hpp"
#include "common/error.hpp"

namespace dh::device {

TrapEnsemble::TrapEnsemble(TrapEnsembleParams params)
    : params_(std::move(params)) {
  const auto& bp = params_.density.breakpoints;
  const auto& sw = params_.density.segment_weights;
  DH_REQUIRE(bp.size() >= 2, "trap density needs at least one segment");
  DH_REQUIRE(sw.size() + 1 == bp.size(),
             "segment weights must match breakpoints");
  DH_REQUIRE(std::is_sorted(bp.begin(), bp.end()),
             "density breakpoints must be increasing");
  DH_REQUIRE(params_.bins >= sw.size(), "need at least one bin per segment");
  const double total =
      std::accumulate(sw.begin(), sw.end(), 0.0);
  DH_REQUIRE(total > 0.0, "trap density must have positive total weight");

  const double lo = bp.front();
  const double hi = bp.back();
  const double dE = (hi - lo) / static_cast<double>(params_.bins);
  centers_.resize(params_.bins);
  weights_.resize(params_.bins);
  for (std::size_t i = 0; i < params_.bins; ++i) {
    const double e0 = lo + dE * static_cast<double>(i);
    const double e1 = e0 + dE;
    centers_[i] = 0.5 * (e0 + e1);
    // Integrate the piecewise-constant density over [e0, e1].
    double w = 0.0;
    for (std::size_t s = 0; s < sw.size(); ++s) {
      const double seg_lo = bp[s];
      const double seg_hi = bp[s + 1];
      const double overlap =
          std::max(0.0, std::min(e1, seg_hi) - std::max(e0, seg_lo));
      if (overlap > 0.0 && seg_hi > seg_lo) {
        w += sw[s] / total * overlap / (seg_hi - seg_lo);
      }
    }
    weights_[i] = w;
  }
  occupancy_.assign(params_.bins, 0.0);
}

void TrapEnsemble::apply(const BtiCondition& condition, Seconds dt) {
  DH_REQUIRE(dt.value() >= 0.0, "time step must be non-negative");
  if (dt.value() == 0.0) return;
  const Kelvin t = to_kelvin(condition.temperature);
  const double kT = thermal_energy_ev(t);
  const double v = condition.gate_bias.value();
  const double v_stress = std::max(v, 0.0);
  const double v_recover = std::max(-v, 0.0);

  const double capture_gain =
      v_stress > 0.0 ? std::exp(v_stress / params_.v0_capture) : 0.0;
  const double emission_gain = std::exp(v_recover / params_.v0_emission -
                                        v_stress / params_.v0_suppress);

  for (std::size_t i = 0; i < centers_.size(); ++i) {
    const double ea_e = centers_[i];
    const double ea_c = ea_e + params_.delta_ce_ev;
    const double rc =
        capture_gain > 0.0
            ? capture_gain / params_.tau0_capture_s * std::exp(-ea_c / kT)
            : 0.0;
    const double re =
        emission_gain / params_.tau0_emission_s * std::exp(-ea_e / kT);
    const double rate = rc + re;
    if (rate <= 0.0) continue;
    const double n_eq = rc / rate;
    const double decay = std::exp(-dt.value() * rate);
    occupancy_[i] = n_eq + (occupancy_[i] - n_eq) * decay;
  }
}

void TrapEnsemble::reset() {
  std::fill(occupancy_.begin(), occupancy_.end(), 0.0);
}

Volts TrapEnsemble::delta_vth() const {
  return params_.dvth_max * occupied_fraction();
}

double TrapEnsemble::occupied_fraction() const {
  double acc = 0.0;
  for (std::size_t i = 0; i < weights_.size(); ++i) {
    acc += weights_[i] * occupancy_[i];
  }
  return acc;
}

}  // namespace dh::device
