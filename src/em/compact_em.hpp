// Compact per-segment EM model for system-scale simulation.
//
// The full Korhonen PDE is exact but too heavy to run for every segment of
// a power grid over years of simulated lifetime. This compact model
// approximates the cathode stress response with a small bank of
// first-order pools whose time constants straddle the nucleation
// timescale (a 3-term Prony approximation of the sqrt(t) kernel), and
// models the void phase as drift-velocity growth/healing with the same
// immobilization kinetics as the full solver. Accuracy against the PDE is
// quantified by bench/ablation_compact_models.
//
// Every transcendental of a step depends only on (params, temperature,
// dt), never on the current density or the state. `prepare` computes them
// once, and `step(j, coeffs)` applies them to any wire with the same
// params: a PDN steps all its segments at one (T, dt) on one prepare.
// `step(j, T, dt)` keeps them for its last two conditions, so a periodic
// forward/reverse recovery schedule, which alternates exactly two, pays
// for them once per condition instead of once per step. Its input checks
// and memo hit are inline: a caller that steps at fixed conditions folds
// them. Results are bit-identical to recomputing them (DESIGN.md §7).
#pragma once

#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "common/units.hpp"
#include "em/material.hpp"
#include "em/wire.hpp"

namespace dh::ckpt {
class Serializer;
class Deserializer;
}  // namespace dh::ckpt

namespace dh::em {

struct CompactEmParams {
  WireGeometry wire;
  EmMaterialParams material;
  /// Middle pool time constant; defaults to the analytic nucleation time
  /// at the reference condition below. <= 0 means "derive at
  /// construction".
  Seconds tau_ref{-1.0};
  AmpsPerM2 j_ref{7.96e10};
  Celsius t_ref{230.0};
  double tau_spread = 10.0;  // ratio between adjacent pool taus
  double kernel_gain = 0.79; // Prony fit gain for the sqrt(t) kernel
};

class CompactEm {
 public:
  /// The j-independent factors of one step at (temperature, dt). Each is
  /// a left prefix of the product it replaces, so applying j to it gives
  /// the bits the unfactored formula gives.
  struct StepCoeffs {
    double kelvin = 0.0;
    double dt_s = 0.0;  // 0: a step is a no-op, and nothing else is set
    double ezr = 0.0;   // e*Z*rho(T): G = ezr*j/Omega
    double sqrt_kappa = 0.0;
    std::array<double, 3> decay{};  // exp(-dt/tau_k(T))
    double dezr = 0.0;              // D(T)*e*Z*rho(T): v = dezr*j/kT
    double kt_j = 0.0;
    // 1 - exp(-fix(T)*dt), needed only while a void is open: the first
    // step that needs it fills it in, so wires sharing the coefficients
    // share it, and a condition with every void closed skips its two exps.
    bool has_fix = false;
    double fix_fraction = 0.0;
  };

  explicit CompactEm(CompactEmParams params);

  /// Coefficients of a step at (t, dt) for any wire with these params.
  /// Throws for a non-finite t, t <= 0 K, or a negative or non-finite dt.
  [[nodiscard]] StepCoeffs prepare(Kelvin t, Seconds dt) const;
  /// Step at the condition `c` was prepared for; `c` must come from
  /// `prepare` on a wire with equal params. Bit-identical to
  /// `step(j, T, dt)`.
  void step(AmpsPerM2 j, StepCoeffs& c);
  /// Step at (temperature, dt) on the memoized coefficients. Throws for a
  /// non-finite j, a non-finite temperature, or a negative or non-finite
  /// dt (named in that order), and leaves the wire as it was.
  void step(AmpsPerM2 j, Celsius temperature, Seconds dt) {
    if (!(std::isfinite(j.value()) && std::isfinite(temperature.value()) &&
          std::isfinite(dt.value()) && dt.value() >= 0.0)) [[unlikely]] {
      reject_step(j, temperature);
    }
    if (dt.value() == 0.0 || broken_) return;
    const Kelvin t = to_kelvin(temperature);
    const auto kelvin_bits = std::bit_cast<std::uint64_t>(t.value());
    const auto dt_bits = std::bit_cast<std::uint64_t>(dt.value());
    for (StepCoeffs& c : memo_) {
      if (std::bit_cast<std::uint64_t>(c.dt_s) == dt_bits &&
          std::bit_cast<std::uint64_t>(c.kelvin) == kelvin_bits) {
        advance(j, c);
        return;
      }
    }
    advance(j, fill_memo(t, dt));
  }
  void reset();

  /// Approximate tensile stress at the currently stressed end (signed:
  /// positive = void tendency at the forward-current cathode).
  [[nodiscard]] Pascals end_stress() const;
  [[nodiscard]] bool void_open() const { return void_open_; }
  [[nodiscard]] Meters void_length() const {
    return Meters{void_mobile_m_ + void_fixed_m_};
  }
  [[nodiscard]] Meters fixed_void_length() const {
    return Meters{void_fixed_m_};
  }
  [[nodiscard]] bool broken() const { return broken_; }
  /// Resistance at `t` with the void's liner shunt; +inf (open) once
  /// broken.
  [[nodiscard]] Ohms resistance(Celsius t) const;

  /// Analytic nucleation time under constant stress (pi/4*(sc/G)^2/kappa).
  [[nodiscard]] static Seconds analytic_nucleation_time(
      const EmMaterialParams& material, const WireGeometry& wire, AmpsPerM2 j,
      Celsius t);

  [[nodiscard]] const CompactEmParams& params() const { return params_; }

  /// Checkpoint support: bit-exact snapshot of the pool and void states
  /// (taus/gains/kappa_ref are derived from params at construction).
  void save_state(ckpt::Serializer& s) const;
  void load_state(ckpt::Deserializer& d);

 private:
  /// Throws the error of the first bad input of `step(j, T, dt)`: j, then
  /// T, else dt.
  [[noreturn]] static void reject_step(AmpsPerM2 j, Celsius temperature);
  /// `prepare(t, dt)` into the round-robin memo slot, on a memo miss.
  StepCoeffs& fill_memo(Kelvin t, Seconds dt);
  /// The step body, shared by both `step`s after their checks: `c` has
  /// dt_s > 0 and the wire is not broken.
  void advance(AmpsPerM2 j, StepCoeffs& c);

  CompactEmParams params_;
  std::array<double, 3> taus_{};   // pool time constants (s)
  std::array<double, 3> gains_{};  // pool saturation gains (Pa per unit G*sqrt..)
  std::array<double, 3> pools_{};  // pool states (Pa)
  double kappa_ref_ = 0.0;  // kappa at t_ref, the pool-kinetics reference
  bool void_open_ = false;
  int void_polarity_ = 0;  // +1: forward-current cathode end; -1: other end
  double void_mobile_m_ = 0.0;
  double void_fixed_m_ = 0.0;
  bool broken_ = false;
  // Derived from params_ alone, so neither snapshotted nor reset. A slot
  // with dt_s == 0 is empty: a zero dt returns before the lookup.
  std::array<StepCoeffs, 2> memo_{};
  std::size_t memo_next_ = 0;  // round-robin victim
};

}  // namespace dh::em
