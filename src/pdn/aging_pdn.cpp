#include "pdn/aging_pdn.hpp"

#include <algorithm>
#include <cmath>

#include "common/ckpt/serialize.hpp"
#include "common/error.hpp"
#include "common/obs/metrics.hpp"

namespace dh::pdn {

AgingPdn::AgingPdn(PdnParams pdn_params, em::EmMaterialParams material)
    : grid_(std::move(pdn_params)), material_(material) {
  const auto& wire = grid_.params().segment_wire;
  segment_em_.reserve(grid_.segment_count());
  for (std::size_t s = 0; s < grid_.segment_count(); ++s) {
    em::CompactEmParams p;
    p.wire = wire;
    p.material = material_;
    // Reference the pool kinetics to a hot high-load condition so the
    // Prony time constants straddle the lifetime-relevant range.
    p.j_ref = mega_amps_per_cm2(kJRefMaPerCm2);
    p.t_ref = Celsius{105.0};
    segment_em_.emplace_back(p);
  }
  segment_r_ = grid_.fresh_segment_resistances(Celsius{20.0});
  immortal_.assign(grid_.segment_count(), false);
}

void AgingPdn::step(std::span<const double> load_amps, Celsius temperature,
                    Seconds dt, bool em_recovery_mode) {
  last_temp_ = temperature;
  // Refresh aged resistances at this temperature.
  for (std::size_t s = 0; s < grid_.segment_count(); ++s) {
    segment_r_[s] = segment_em_[s]
                        .resistance(temperature)
                        .value();
  }
  last_ = grid_.solve(load_amps, segment_r_);

  const double rho =
      grid_.params().segment_wire.resistivity_at(to_kelvin(temperature));
  const double blech_crit = material_.blech_threshold(rho);
  const double seg_len = grid_.params().segment_wire.length.value();

  // Every segment shares one CompactEmParams, so one prepare serves them
  // all; it runs at the first mortal segment, as each step's own would.
  em::CompactEm::StepCoeffs coeffs;
  std::size_t stepped = 0;
  for (std::size_t s = 0; s < grid_.segment_count(); ++s) {
    double current = last_.segment_current[s];
    if (em_recovery_mode) current = -current;
    const AmpsPerM2 j = grid_.current_density(current);
    // Blech immortality filter (physical, and saves work).
    const double blech = std::abs(j.value()) * seg_len;
    immortal_[s] = blech < blech_crit;
    if (immortal_[s] && !segment_em_[s].void_open()) continue;
    if (stepped == 0) {
      coeffs = segment_em_[s].prepare(to_kelvin(temperature), dt);
    }
    segment_em_[s].step(j, coeffs);
    ++stepped;
  }
  // Batched so the per-segment loop stays free of telemetry ops: one add
  // per grid step records exactly how many compact-EM evaluations ran.
  static obs::Counter& evals = obs::registry().counter("em.compact.evals");
  evals.add(stepped);
  elapsed_s_ += dt.value();
}

AgingPdnStats AgingPdn::stats() const {
  AgingPdnStats st;
  st.worst_drop_v = last_.worst_drop_v;
  st.solver_factorizations = grid_.solve_stats().factorizations;
  double max_current = 0.0;
  for (const double current : last_.segment_current) {
    max_current = std::max(max_current, std::abs(current));
  }
  st.max_current_density = grid_.current_density(max_current).value();
  for (std::size_t s = 0; s < segment_em_.size(); ++s) {
    const auto& em = segment_em_[s];
    st.max_void_len_m = std::max(st.max_void_len_m, em.void_length().value());
    if (em.void_open() || em.void_length().value() > 0.0) {
      ++st.nucleated_segments;
    }
    if (em.broken()) ++st.broken_segments;
    if (immortal_[s]) ++st.immortal_segments;
  }
  return st;
}

bool AgingPdn::failed(double drop_limit_fraction) const {
  if (last_.node_voltage.empty()) return false;
  const auto st = stats();
  if (st.broken_segments > 0) return true;
  return last_.worst_drop_v >
         drop_limit_fraction * grid_.params().vdd.value();
}

void AgingPdn::save_state(ckpt::Serializer& s) const {
  s.begin_section("APDN");
  s.write_u64(segment_em_.size());
  for (const auto& em : segment_em_) em.save_state(s);
  s.write_f64_vec(segment_r_);
  s.write_bool_vec(immortal_);
  s.write_f64_vec(last_.node_voltage);
  s.write_f64_vec(last_.segment_current);
  s.write_f64(last_.worst_drop_v);
  s.write_u64(last_.worst_node);
  s.write_f64(last_temp_.value());
  s.write_f64(elapsed_s_);
  grid_.save_state(s);
}

void AgingPdn::load_state(ckpt::Deserializer& d) {
  d.expect_section("APDN");
  const std::uint64_t count = d.read_u64();
  DH_REQUIRE(count == segment_em_.size(),
             "PDN snapshot segment count does not match this grid");
  for (auto& em : segment_em_) em.load_state(d);
  segment_r_ = d.read_f64_vec();
  immortal_ = d.read_bool_vec();
  DH_REQUIRE(segment_r_.size() == segment_em_.size() &&
                 immortal_.size() == segment_em_.size(),
             "PDN snapshot per-segment vectors do not match this grid");
  last_.node_voltage = d.read_f64_vec();
  last_.segment_current = d.read_f64_vec();
  last_.worst_drop_v = d.read_f64();
  last_.worst_node = static_cast<std::size_t>(d.read_u64());
  last_temp_ = Celsius{d.read_f64()};
  elapsed_s_ = d.read_f64();
  grid_.load_state(d);
}

}  // namespace dh::pdn
