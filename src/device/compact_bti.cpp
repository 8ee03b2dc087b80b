#include "device/compact_bti.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "common/arrhenius.hpp"
#include "common/ckpt/serialize.hpp"
#include "common/error.hpp"

namespace dh::device {

namespace {

/// Decay factor of a first-order relaxation with time constant `tau` over
/// `dt` (exact update). A non-positive tau relaxes at once: factor 0, and
/// target + (x - target) * 0 is exactly the target for a finite x.
double relax_decay(double tau, double dt) {
  if (tau <= 0.0) return 0.0;
  return std::exp(-dt / tau);
}

double relax(double x, double target, double decay) {
  return target + (x - target) * decay;
}

/// One forward-Euler substep of permanent precursor generation (`g` at
/// zero occupancy) and second-order locking. The divide by p_max makes a
/// device's substeps one serial chain.
inline void precursor_substep(double g, double k_lock, double p_max, double h,
                              double& pu, double& pl) {
  const double saturation = std::max(0.0, 1.0 - (pu + pl) / p_max);
  const double lock_flux = k_lock * pu * pu;
  pu += h * (g * saturation - lock_flux);
  pl += h * lock_flux;
  pu = std::max(pu, 0.0);
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
/// Four lanes of doubles, one AVX2 register (GNU vector extension).
using Quad [[gnu::vector_size(32)]] = double;

/// The lockstep substeps of `lanes` chains under one shared stress step
/// (all have `substeps` to go), four lanes per `Quad` op so one divide
/// serves four chains. Substep-major, so the chains overlap. The lanes
/// take precursor_substep's operations in its order, with its two
/// std::max as the same selects, and the last lanes % 4 run
/// precursor_substep itself. AVX2 has no FMA to contract into, so every
/// lane keeps the bits of the baseline loop. The vectors are explicit
/// because GCC leaves a plain loop scalar at -O2 (the default build).
///
/// Two versions, chosen at load time by the CPU (function
/// multiversioning): on an AVX2 CPU this one runs the substeps and
/// returns true; the default one returns false and the caller runs its
/// own loop (plain x86-64 would run a `Quad` body lane by lane).
[[gnu::target("avx2")]]
bool avx2_shared_substeps(double g, double k_lock, double p_max, double h,
                          int substeps, std::size_t lanes, double* pu,
                          double* pl) {
  const std::size_t quads = lanes - lanes % 4;
  const Quad zero = {};
  for (int s = 0; s < substeps; ++s) {
    std::size_t j = 0;
    for (; j < quads; j += 4) {
      Quad u{};
      Quad l{};
      std::memcpy(&u, pu + j, sizeof u);
      std::memcpy(&l, pl + j, sizeof l);
      const Quad free_share = 1.0 - (u + l) / p_max;
      const Quad saturation = zero < free_share ? free_share : zero;
      const Quad lock_flux = k_lock * u * u;
      u += h * (g * saturation - lock_flux);
      l += h * lock_flux;
      u = u < zero ? zero : u;
      std::memcpy(pu + j, &u, sizeof u);
      std::memcpy(pl + j, &l, sizeof l);
    }
    for (; j < lanes; ++j) {
      precursor_substep(g, k_lock, p_max, h, pu[j], pl[j]);
    }
  }
  return true;
}

[[gnu::target("default")]]
bool avx2_shared_substeps(double, double, double, double, int, std::size_t,
                          double*, double*) {
  return false;
}
#else
/// No AVX2 version off x86-64: the caller runs its own loop.
constexpr bool avx2_shared_substeps(double, double, double, double, int,
                                    std::size_t, double*, double*) {
  return false;
}
#endif

/// Checks a step's dt; true when it is zero (the state is left as is).
bool empty_step(Seconds dt) {
  DH_REQUIRE(std::isfinite(dt.value()), "time step must be finite");
  DH_REQUIRE(dt.value() >= 0.0, "time step must be non-negative");
  return dt.value() == 0.0;
}

/// Devices whose precursor chains run in lockstep (local arrays).
constexpr std::size_t kChunk = 64;

/// Bit equality of two devices' precursor states. `==` would merge -0.0
/// with +0.0, which are different inputs to a chain.
bool same_precursors(double pu_a, double pl_a, double pu_b, double pl_b) {
  return std::bit_cast<std::uint64_t>(pu_a) ==
             std::bit_cast<std::uint64_t>(pu_b) &&
         std::bit_cast<std::uint64_t>(pl_a) ==
             std::bit_cast<std::uint64_t>(pl_b);
}

}  // namespace

CompactBti::CompactBti(CompactBtiParams params) : params_(params) {
  DH_REQUIRE(params_.fast_sat_v > 0.0 && params_.slow_sat_v > 0.0,
             "pool saturation levels must be positive");
}

void CompactBti::apply(const BtiCondition& condition, Seconds dt) {
  CompactBti* const self = this;
  advance(prepare(params_, condition, dt), {&self, 1});
}

CompactBtiStep CompactBti::prepare(const CompactBtiParams& params,
                                   const BtiCondition& condition,
                                   Seconds dt) {
  // Before any factor, so a zero dt (an SRAM day without boost) costs no
  // exp.
  if (empty_step(dt)) return {};
  const CompactBtiBias bias = bias_factors(params, condition.gate_bias);
  const Kelvin t = to_kelvin(condition.temperature);
  const Kelvin stress_ref = to_kelvin(params.stress_ref.temperature);
  const double kinetics_af = arrhenius_acceleration(
      params.kinetics_ea, t,
      bias.stress ? stress_ref : to_kelvin(params.recover_ref.temperature));
  const double gen_af =
      bias.stress ? arrhenius_acceleration(params.gen_ea, t, stress_ref)
                  : 1.0;
  return prepare(params, bias, kinetics_af, gen_af, dt);
}

CompactBtiBias CompactBti::bias_factors(const CompactBtiParams& params,
                                        Volts gate_bias) {
  CompactBtiBias bias;
  const double v = gate_bias.value();
  bias.stress = BtiCondition{gate_bias}.is_stress();
  if (bias.stress) {
    const double v_ref = params.stress_ref.gate_bias.value();
    bias.accel_v = std::exp((v - v_ref) / params.v0);
    // Saturation level scales strongly with overdrive (the trap ensemble
    // only fills up to a voltage-dependent energy cutoff; a cubic law
    // tracks the calibrated model well across 0.6-1.2 V).
    const double ratio = std::max(0.1, v / v_ref);
    bias.sat_scale = ratio * ratio * ratio;
    // Generation carries its own (stronger) voltage acceleration,
    // mirroring the full model's gen_v0.
    bias.gen_accel_v = std::exp((v - v_ref) / params.gen_v0);
  } else {
    const double v_ref = -params.recover_ref.gate_bias.value();
    bias.accel_v = std::exp((std::max(-v, 0.0) - v_ref) / params.v0);
  }
  return bias;
}

CompactBtiStep CompactBti::prepare(const CompactBtiParams& params,
                                   const CompactBtiBias& bias,
                                   double kinetics_af, double gen_af,
                                   Seconds dt) {
  CompactBtiStep step;
  if (empty_step(dt)) return step;
  const double accel = kinetics_af * bias.accel_v;

  if (bias.stress) {
    step.kind = CompactBtiStep::Kind::kStress;
    step.fast_target = params.fast_sat_v * bias.sat_scale;
    step.fast_decay =
        relax_decay(params.fast_tau_stress_s / accel, dt.value());
    step.slow_target = params.slow_sat_v * bias.sat_scale;
    step.slow_decay =
        relax_decay(params.slow_tau_stress_s / accel, dt.value());
    // Permanent precursor generation + second-order locking.
    step.gen_v_per_s = params.gen_rate_ref_v_per_s * gen_af * bias.gen_accel_v;
    step.k_lock_per_v_s = params.k_lock_per_v_s;
    step.p_max_v = params.p_max_v;
    const double substeps = std::ceil(dt.value() / 300.0);
    DH_REQUIRE(substeps <= std::numeric_limits<int>::max(),
               "time step needs more precursor substeps than an int holds");
    step.substeps = std::max(1, static_cast<int>(substeps));
    step.h = dt.value() / step.substeps;
  } else {
    step.kind = CompactBtiStep::Kind::kRecover;
    step.fast_decay =
        relax_decay(params.fast_tau_recover_s / accel, dt.value());
    step.slow_decay =
        relax_decay(params.slow_tau_recover_s / accel, dt.value());
    const double anneal = params.anneal_rate_ref_per_s * accel;
    step.pu_decay = std::exp(-dt.value() * anneal);
    step.pl_decay = std::exp(-dt.value() * anneal * 1e-3);
  }
  return step;
}

void CompactBti::advance(std::span<const CompactBtiStep> steps,
                         std::span<CompactBti* const> devices) {
  DH_REQUIRE(steps.size() == devices.size(),
             "one compact-BTI step per device is required");
  advance_lanes(steps.data(), 1, devices);
}

void CompactBti::advance(const CompactBtiStep& step,
                         std::span<CompactBti* const> devices) {
  advance_lanes(&step, 0, devices);
}

void CompactBti::advance_lanes(const CompactBtiStep* steps,
                               std::size_t stride,
                               std::span<CompactBti* const> devices) {
  // Lane j of a chunk holds the chain of chunk device order[j]. Running
  // the lanes substep-major lets independent chains overlap and the inner
  // loop vectorise; each device still sees exactly its own sequence of
  // operations.
  //
  // Under a shared step a chain is a pure function of (pu, pl), so a
  // stressed device whose state bit-equals the last lane's joins that lane
  // (member[k] takes lane member_lane[k]'s result). Static SRAM data makes
  // whole runs of equal states; only the previous lane is compared, so a
  // batch without equal neighbours pays one comparison per device. On an
  // AVX2 CPU two or more lanes of a shared step run in
  // `avx2_shared_substeps`; everything else runs the loop below.
  std::size_t order[kChunk];
  std::size_t member[kChunk];
  std::size_t member_lane[kChunk];
  int substeps[kChunk];
  double g[kChunk];
  double k_lock[kChunk];
  double p_max[kChunk];
  double h[kChunk];
  double pu[kChunk];
  double pl[kChunk];
  for (std::size_t first = 0; first < devices.size(); first += kChunk) {
    const std::size_t n = std::min(kChunk, devices.size() - first);
    const auto step_of = [&](std::size_t i) -> const CompactBtiStep& {
      return steps[(first + i) * stride];
    };
    std::size_t lanes = 0;
    std::size_t members = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const CompactBtiStep& step = step_of(i);
      if (step.kind == CompactBtiStep::Kind::kNone) continue;
      CompactBti& d = *devices[first + i];
      d.fast_ = relax(d.fast_, step.fast_target, step.fast_decay);
      d.slow_ = relax(d.slow_, step.slow_target, step.slow_decay);
      d.pu_ *= step.pu_decay;  // both decays are exactly 1 under stress
      d.pl_ *= step.pl_decay;
      if (step.kind != CompactBtiStep::Kind::kStress) continue;
      if (stride == 0 && lanes > 0) {  // lanes stay in opening order
        const CompactBti& last = *devices[first + order[lanes - 1]];
        if (same_precursors(d.pu_, d.pl_, last.pu_, last.pl_)) {
          member[members] = i;
          member_lane[members++] = lanes - 1;
          continue;
        }
      }
      // Insert by descending substep count, so the lanes still running
      // at any substep are a prefix (a shared step never moves a lane).
      std::size_t j = lanes++;
      for (; j > 0 && step_of(order[j - 1]).substeps < step.substeps; --j) {
        order[j] = order[j - 1];
      }
      order[j] = i;
    }
    for (std::size_t j = 0; j < lanes; ++j) {
      const CompactBtiStep& step = step_of(order[j]);
      const CompactBti& d = *devices[first + order[j]];
      substeps[j] = step.substeps;
      g[j] = step.gen_v_per_s;
      k_lock[j] = step.k_lock_per_v_s;
      p_max[j] = step.p_max_v;
      h[j] = step.h;
      pu[j] = d.pu_;
      pl[j] = d.pl_;
    }
    std::size_t live = lanes;
    int s = 0;
    if (stride == 0 && live > 1 &&
        avx2_shared_substeps(steps->gen_v_per_s, steps->k_lock_per_v_s,
                             steps->p_max_v, steps->h, steps->substeps,
                             lanes, pu, pl)) {
      live = 0;  // every lane has run its (equal) substep count
    }
    for (;; ++s) {
      while (live > 0 && substeps[live - 1] <= s) --live;
      if (live <= 1) break;
      for (std::size_t j = 0; j < live; ++j) {
        precursor_substep(g[j], k_lock[j], p_max[j], h[j], pu[j], pl[j]);
      }
    }
    if (live == 1) {
      // The longest chain (a lone device's whole chain) finishes alone,
      // in registers rather than round-tripping through the arrays.
      double u = pu[0];
      double l = pl[0];
      for (; s < substeps[0]; ++s) {
        precursor_substep(g[0], k_lock[0], p_max[0], h[0], u, l);
      }
      pu[0] = u;
      pl[0] = l;
    }
    for (std::size_t j = 0; j < lanes; ++j) {
      CompactBti& d = *devices[first + order[j]];
      d.pu_ = pu[j];
      d.pl_ = pl[j];
    }
    for (std::size_t k = 0; k < members; ++k) {
      CompactBti& d = *devices[first + member[k]];
      d.pu_ = pu[member_lane[k]];
      d.pl_ = pl[member_lane[k]];
    }
  }
}

void CompactBti::reset() {
  fast_ = slow_ = pu_ = pl_ = 0.0;
}

Volts CompactBti::delta_vth() const {
  return Volts{fast_ + slow_ + pu_ + pl_};
}

BtiBreakdown CompactBti::breakdown() const {
  return BtiBreakdown{
      .recoverable = Volts{fast_ + slow_},
      .unlocked = Volts{pu_},
      .locked = Volts{pl_},
  };
}

void CompactBti::save_state(ckpt::Serializer& s) const {
  s.begin_section("CBTI");
  s.write_f64(fast_);
  s.write_f64(slow_);
  s.write_f64(pu_);
  s.write_f64(pl_);
}

void CompactBti::load_state(ckpt::Deserializer& d) {
  d.expect_section("CBTI");
  fast_ = d.read_f64();
  slow_ = d.read_f64();
  pu_ = d.read_f64();
  pl_ = d.read_f64();
}

}  // namespace dh::device
