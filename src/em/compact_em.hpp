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
#pragma once

#include <array>

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
  explicit CompactEm(CompactEmParams params);

  void step(AmpsPerM2 j, Celsius temperature, Seconds dt);
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
};

}  // namespace dh::em
