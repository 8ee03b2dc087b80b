#include "sram/sram_array.hpp"

#include <algorithm>
#include <cmath>

#include "common/arrhenius.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"

namespace dh::sram {

SramArray::SramArray(SramArrayParams params)
    : params_(params),
      stress_bias_(
          device::CompactBti::bias_factors(params.cell.bti, params.cell.vdd)),
      rest_bias_(device::CompactBti::bias_factors(params.cell.bti, Volts{0.0})),
      recover_bias_(device::CompactBti::bias_factors(
          params.cell.bti, params.cell.recovery_bias)),
      rng_(params.seed) {
  DH_REQUIRE(params_.cells >= 1, "array needs at least one cell");
  DH_REQUIRE(params_.p_one >= 0.0 && params_.p_one <= 1.0,
             "p_one must be a probability");
  cells_.reserve(params_.cells);
  bits_.reserve(params_.cells);
  for (std::size_t i = 0; i < params_.cells; ++i) {
    cells_.emplace_back(params_.cell);
    bits_.push_back(rng_.bernoulli(params_.p_one));
  }
}

void SramArray::step(Celsius temperature, Seconds dt,
                     double boost_fraction) {
  DH_REQUIRE(boost_fraction >= 0.0 && boost_fraction <= 1.0,
             "boost fraction must be in [0,1]");
  // Checked, and the steps prepared, before any bit is drawn, so a
  // rejected step leaves the array (its data stream included) unchanged.
  DH_REQUIRE(std::isfinite(dt.value()) && dt.value() >= 0.0,
             "time step must be finite and non-negative");
  DH_REQUIRE(std::isfinite(temperature.value()),
             "temperature must be finite");
  // The PMOS devices of all cells share params, so a phase is one batch
  // per condition: the stressed and the resting pull-ups while holding,
  // then every pull-up during the boost. A whole day's batches cost less
  // than one pool job, so they run serially.
  using device::CompactBti;
  using device::CompactBtiStep;
  const device::CompactBtiParams& bti = params_.cell.bti;
  const Seconds hold{dt.value() * (1.0 - boost_fraction)};
  const Seconds boost{dt.value() * boost_fraction};
  // `CompactBti::prepare(bti, condition, part)` from the bias factors
  // fixed at construction: only the Arrhenius factors depend on the day.
  const Kelvin t = to_kelvin(temperature);
  const auto prepare = [&](const device::CompactBtiBias& bias,
                           Seconds part) {
    if (part.value() == 0.0) return CompactBtiStep{};
    const Kelvin stress_ref = to_kelvin(bti.stress_ref.temperature);
    const double kinetics_af = arrhenius_acceleration(
        bti.kinetics_ea, t,
        bias.stress ? stress_ref : to_kelvin(bti.recover_ref.temperature));
    const double gen_af =
        bias.stress ? arrhenius_acceleration(bti.gen_ea, t, stress_ref)
                    : 1.0;
    return CompactBti::prepare(bti, bias, kinetics_af, gen_af, part);
  };
  const CompactBtiStep stress = prepare(stress_bias_, hold);
  const CompactBtiStep rest = prepare(rest_bias_, hold);
  const CompactBtiStep recover = prepare(recover_bias_, boost);
  // Data re-randomization draws from one shared stream; draw order is
  // part of the array's deterministic behaviour.
  if (params_.pattern == DataPattern::kFlipping) {
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      bits_[i] = rng_.bernoulli(params_.p_one);
    }
  }
  std::vector<CompactBti*> batch;
  batch.reserve(2 * cells_.size());
  if (hold.value() > 0.0) {
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      batch.push_back(&cells_[i].stressed_pmos(bits_[i]));
    }
    CompactBti::advance(stress, batch);
    batch.clear();
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      batch.push_back(&cells_[i].resting_pmos(bits_[i]));
    }
    CompactBti::advance(rest, batch);
    batch.clear();
  }
  if (boost.value() > 0.0) {
    for (SramCell& c : cells_) {
      batch.push_back(&c.left_pmos_);
      batch.push_back(&c.right_pmos_);
    }
    CompactBti::advance(recover, batch);
  }
}

SramArrayHealth SramArray::scan_health() const {
  // The per-cell SNM is a butterfly-curve circuit solve — the expensive
  // part — so it fans out over the pool; the reduction runs serially in
  // index order so the mean is bit-identical at any thread count.
  const std::vector<double> snm =
      parallel_map(cells_.size(), [&](std::size_t i) {
        return cells_[i].hold_snm().value();
      });
  SramArrayHealth h;
  h.worst_snm = Volts{1e9};
  double acc = 0.0;
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    h.worst_snm = std::min(h.worst_snm, Volts{snm[i]});
    acc += snm[i];
    h.worst_pmos_dvth =
        std::max({h.worst_pmos_dvth, cells_[i].left_pmos_dvth(),
                  cells_[i].right_pmos_dvth()});
  }
  h.mean_snm = Volts{acc / static_cast<double>(cells_.size())};
  return h;
}

SramArrayHealth SramArray::worst_cell_health() const {
  // The hold SNM is governed by the *asymmetry* between the two pull-ups;
  // find the most asymmetric cell and compute only its SNM.
  const SramCell* worst = &cells_.front();
  double worst_asym = -1.0;
  SramArrayHealth h;
  for (const auto& c : cells_) {
    const double asym = std::abs(c.left_pmos_dvth().value() -
                                 c.right_pmos_dvth().value());
    if (asym > worst_asym) {
      worst_asym = asym;
      worst = &c;
    }
    h.worst_pmos_dvth = std::max(
        {h.worst_pmos_dvth, c.left_pmos_dvth(), c.right_pmos_dvth()});
  }
  h.worst_snm = worst->hold_snm();
  h.mean_snm = h.worst_snm;  // proxy scan does not average
  return h;
}

const SramCell& SramArray::cell(std::size_t i) const {
  DH_REQUIRE(i < cells_.size(), "cell index out of range");
  return cells_[i];
}

}  // namespace dh::sram
