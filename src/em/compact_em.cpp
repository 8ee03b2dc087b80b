#include "em/compact_em.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>

#include "common/ckpt/serialize.hpp"
#include "common/constants.hpp"
#include "common/error.hpp"

namespace dh::em {

Seconds CompactEm::analytic_nucleation_time(const EmMaterialParams& material,
                                            const WireGeometry& wire,
                                            AmpsPerM2 j, Celsius t) {
  DH_REQUIRE(std::abs(j.value()) > 0.0,
             "nucleation time undefined at zero current");
  const Kelvin tk = to_kelvin(t);
  const double g =
      material.driving_force(wire.resistivity_at(tk), AmpsPerM2{
                                                          std::abs(j.value())});
  const double kappa = material.kappa(tk);
  const double ratio = material.critical_stress.value() / g;
  return Seconds{std::numbers::pi / 4.0 * ratio * ratio / kappa};
}

CompactEm::CompactEm(CompactEmParams params) : params_(params) {
  double tau_mid = params_.tau_ref.value();
  if (tau_mid <= 0.0) {
    tau_mid = analytic_nucleation_time(params_.material, params_.wire,
                                       params_.j_ref, params_.t_ref)
                  .value();
  }
  DH_REQUIRE(tau_mid > 0.0, "reference timescale must be positive");
  kappa_ref_ = params_.material.kappa(to_kelvin(params_.t_ref));
  taus_ = {tau_mid / params_.tau_spread, tau_mid,
           tau_mid * params_.tau_spread};
  // Each pool saturates to 2*G*sqrt(kappa*tau_k/pi)*gain; we store the
  // sqrt(tau) factors and apply G*sqrt(kappa) at step time.
  for (std::size_t k = 0; k < taus_.size(); ++k) {
    gains_[k] = 2.0 * params_.kernel_gain *
                std::sqrt(taus_[k] / std::numbers::pi);
  }
  reset();
}

void CompactEm::reset() {
  pools_ = {0.0, 0.0, 0.0};
  void_open_ = false;
  void_polarity_ = 0;
  void_mobile_m_ = 0.0;
  void_fixed_m_ = 0.0;
  broken_ = false;
}

namespace {

void require_condition(double temperature, double dt) {
  DH_REQUIRE(std::isfinite(temperature), "temperature must be finite");
  DH_REQUIRE(std::isfinite(dt) && dt >= 0.0,
             "time step must be finite and non-negative");
}

}  // namespace

CompactEm::StepCoeffs CompactEm::prepare(Kelvin t, Seconds dt) const {
  require_condition(t.value(), dt.value());
  StepCoeffs c;
  c.kelvin = t.value();
  if (dt.value() == 0.0) return c;
  c.dt_s = dt.value();
  const EmMaterialParams& m = params_.material;
  // The operation order of EmMaterialParams::kappa and driving_force, and
  // of the drift velocity D(T) e Z rho j / kT, with D(T) evaluated once.
  // D(T) throws for T <= 0 K.
  const double d = m.diffusivity(t);
  c.kt_j = constants::kBoltzmannJ * t.value();
  const double kappa = d * m.bulk_modulus_pa * m.atomic_volume_m3 / c.kt_j;
  const double rho = params_.wire.resistivity_at(t);
  c.ezr = constants::kElementaryCharge * m.z_eff * rho;
  c.sqrt_kappa = std::sqrt(kappa);
  // Temperature scales the pool kinetics through kappa (same Arrhenius as
  // the PDE).
  const double speedup = kappa / kappa_ref_;
  for (std::size_t k = 0; k < taus_.size(); ++k) {
    const double tau = taus_[k] / std::max(speedup, 1e-12);
    c.decay[k] = std::exp(-dt.value() / tau);
  }
  c.dezr = d * constants::kElementaryCharge * m.z_eff * rho;
  return c;
}

void CompactEm::reject_step(AmpsPerM2 j, Celsius temperature) {
  DH_REQUIRE(std::isfinite(j.value()), "current density must be finite");
  DH_REQUIRE(std::isfinite(temperature.value()),
             "temperature must be finite");
  // j and T are finite, so dt failed the inline test.
  detail::raise_requirement("std::isfinite(dt) && dt >= 0.0", __FILE__,
                            __LINE__,
                            "time step must be finite and non-negative");
}

CompactEm::StepCoeffs& CompactEm::fill_memo(Kelvin t, Seconds dt) {
  // A throwing prepare (T <= 0 K) leaves the slot as it was.
  StepCoeffs& c = memo_[memo_next_];
  c = prepare(t, dt);
  memo_next_ ^= 1;
  return c;
}

void CompactEm::step(AmpsPerM2 j, StepCoeffs& c) {
  DH_REQUIRE(std::isfinite(j.value()), "current density must be finite");
  if (c.dt_s == 0.0 || broken_) return;
  advance(j, c);
}

void CompactEm::advance(AmpsPerM2 j, StepCoeffs& c) {
  const double g = c.ezr * j.value() / params_.material.atomic_volume_m3;

  // Pool targets follow the signed driving force; while a void is open the
  // stressed end is a free surface, so targets collapse to 0.
  for (std::size_t k = 0; k < taus_.size(); ++k) {
    const double target = void_open_ ? 0.0 : g * c.sqrt_kappa * gains_[k];
    pools_[k] = target + (pools_[k] - target) * c.decay[k];
  }

  if (!void_open_) {
    const double sc = params_.material.critical_stress.value();
    const double stress = end_stress().value();
    if (std::abs(stress) >= sc) {
      void_open_ = true;
      void_polarity_ = stress > 0.0 ? 1 : -1;
      if (void_mobile_m_ <= 0.0) void_mobile_m_ = 0.5e-9;
    }
  }

  if (void_open_) {
    // Drift growth when the wind pushes atoms away from the void end;
    // healing when reversed.
    const double v = c.dezr * j.value() / c.kt_j;
    const double rate = static_cast<double>(void_polarity_) * v;
    // Growth feeds the slit with partial efficiency; healing refills it at
    // full efficiency (same physics as the PDE solver).
    void_mobile_m_ +=
        rate * (rate > 0.0 ? params_.material.slit_efficiency : 1.0) *
        c.dt_s;
    if (!c.has_fix) {
      c.fix_fraction =
          1.0 - std::exp(-params_.material.fix_rate(Kelvin{c.kelvin}) *
                         c.dt_s);
      c.has_fix = true;
    }
    const double converted = void_mobile_m_ * c.fix_fraction;
    if (converted > 0.0) {
      void_mobile_m_ -= converted;
      void_fixed_m_ += converted;
    }
    if (void_mobile_m_ <= 0.0) {
      void_mobile_m_ = 0.0;
      void_open_ = false;
      void_polarity_ = 0;
    }
    if (void_mobile_m_ + void_fixed_m_ >=
        params_.material.break_void_length.value()) {
      broken_ = true;
    }
  }
}

Pascals CompactEm::end_stress() const {
  return Pascals{pools_[0] + pools_[1] + pools_[2]};
}

Ohms CompactEm::resistance(Celsius t) const {
  if (broken_) return Ohms{std::numeric_limits<double>::infinity()};
  return params_.wire.resistance_with_void(
      to_kelvin(t), Meters{void_mobile_m_ + void_fixed_m_});
}

void CompactEm::save_state(ckpt::Serializer& s) const {
  s.begin_section("CPEM");
  for (const double p : pools_) s.write_f64(p);
  s.write_bool(void_open_);
  s.write_i64(void_polarity_);
  s.write_f64(void_mobile_m_);
  s.write_f64(void_fixed_m_);
  s.write_bool(broken_);
}

void CompactEm::load_state(ckpt::Deserializer& d) {
  d.expect_section("CPEM");
  for (double& p : pools_) p = d.read_f64();
  void_open_ = d.read_bool();
  void_polarity_ = static_cast<int>(d.read_i64());
  void_mobile_m_ = d.read_f64();
  void_fixed_m_ = d.read_f64();
  broken_ = d.read_bool();
}

}  // namespace dh::em
