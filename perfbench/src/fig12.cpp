// fig12_lifetime: the Fig. 12 hot 4x4 chip under all five recovery
// policies back to back, two years each. Item = one SystemSimulator::step
// quantum; serial (the pool is never created).
//
// SystemSimulator::step is monolithic, so the traced variant replays the
// quantum loop from public calls only (Fig12Replay below) with a span
// around each layer. Its end-of-life digest must equal the simulator's
// bit for bit, or the layer split is refused.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <stdexcept>

#include "common/obs/metrics.hpp"
#include "harness.hpp"
#include "sched/system_sim.hpp"

namespace perfbench {
namespace {

using namespace dh;
using namespace dh::sched;

enum SpanName : std::uint16_t {
  kQuantum,
  kDemand,
  kPolicy,
  kCorePower,
  kThermal,
  kCoreStep,
  kSupply,
  kPdn,
};
const std::vector<std::string> kSpanNames = {
    "fig12.quantum", "sched.demand",     "sched.policy",
    "device.core_power", "thermal.solve", "device.core_step",
    "device.supply_current", "pdn.step"};

constexpr std::size_t kPolicies = 5;

/// The fig12_system_schedule bench's hot chip.
SystemParams hot_chip(std::uint64_t seed) {
  SystemParams p;
  p.rows = 4;
  p.cols = 4;
  p.quantum = hours(6.0);
  p.workload.kind = WorkloadKind::kDiurnal;
  p.workload.utilization = 0.80;
  p.workload.period = hours(24.0);
  p.core.dynamic_power_peak = Watts{2.2};
  p.thermal.ambient = Celsius{55.0};
  p.thermal.vertical_g_w_per_k = 0.07;
  p.seed = seed;
  return p;
}

/// The bench's five policies, in its order.
std::unique_ptr<RecoveryPolicy> make_policy(std::size_t k) {
  switch (k) {
    case 0:
      return make_no_recovery_policy();
    case 1:
      return make_passive_idle_policy();
    case 2:
      return make_periodic_active_policy({.period = hours(24.0),
                                          .bti_recovery_fraction = 0.25,
                                          .em_recovery_duty = 0.2});
    case 3:
      return make_adaptive_sensor_policy({.threshold = Volts{0.005},
                                          .release = Volts{0.002},
                                          .em_recovery_duty = 0.2});
    default:
      return make_dark_silicon_policy({.spares = 2,
                                       .rotation_period = hours(6.0),
                                       .em_recovery_duty = 0.2});
  }
}

/// ROADMAP invariants on one quantum's public outputs.
bool physical(double ir_drop_v, double vdd, double degradation,
              double max_temp_c) {
  return std::isfinite(ir_drop_v) && ir_drop_v >= 0.0 && ir_drop_v <= vdd &&
         std::isfinite(degradation) && std::isfinite(max_temp_c);
}

double ordered_sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

void add_summary(Digest& d, const SystemSummary& s, double ir_sum,
                 double temp_sum) {
  d.add(s.guardband_fraction)
      .add(s.final_degradation)
      .add(s.time_to_failure.value())
      .add(s.mean_throughput)
      .add(s.availability)
      .add(s.energy_joules)
      .add(s.mean_temperature_c)
      .add(static_cast<double>(s.recovery_quanta))
      .add(s.pdn_stats.worst_drop_v)
      .add(s.pdn_stats.max_void_len_m)
      .add(static_cast<double>(s.pdn_stats.nucleated_segments))
      .add(static_cast<double>(s.pdn_stats.broken_segments))
      .add(static_cast<double>(s.pdn_stats.solver_factorizations))
      .add(ir_sum)
      .add(temp_sum);
}

void add_simulator(Digest& d, const SystemSimulator& sim) {
  add_summary(d, sim.summary(), ordered_sum(sim.ir_drop_trace().raw_values()),
              ordered_sum(sim.temperature_trace().raw_values()));
}

/// SystemSimulator::step rebuilt from public calls, same RNG draw order,
/// same accumulator arithmetic. Fault injection is not replayed (the
/// benchmark never arms DH_FAULTS).
class Fig12Replay {
 public:
  Fig12Replay(const SystemParams& p, std::unique_ptr<RecoveryPolicy> policy)
      : params_(p),
        policy_(std::move(policy)),
        thermal_(matched_thermal(p)),
        pdn_(matched_pdn(p), p.em_material),
        rng_(p.seed) {
    const std::size_t n = p.rows * p.cols;
    for (std::size_t i = 0; i < n; ++i) {
      cores_.emplace_back(p.core);
      WorkloadParams w = p.workload;
      w.phase = Seconds{w.period.value() * static_cast<double>(i) /
                        static_cast<double>(n)};
      workloads_.emplace_back(w);
    }
    last_good_sensor_.assign(n, 0.0);
  }

  void step(SpanLog& log) {
    const std::size_t n = cores_.size();
    const Seconds dt = params_.quantum;
    const int root = log.open(kQuantum);

    int span = log.open(kDemand, root);
    std::vector<double> demand(n);
    for (std::size_t i = 0; i < n; ++i) {
      demand[i] = workloads_[i].sample(Seconds{now_s_}, rng_);
    }
    log.close(span);

    std::vector<CoreObservation> obs(n);
    for (std::size_t i = 0; i < n; ++i) {
      const double noise = rng_.normal(0.0, params_.sensor_noise.value());
      double sensed = cores_[i].delta_vth().value() + noise;
      if (!std::isfinite(sensed) || std::abs(sensed) > kSensorSaneLimitV) {
        sensed = last_good_sensor_[i];
      } else {
        sensed = std::max(0.0, sensed);
        last_good_sensor_[i] = sensed;
      }
      obs[i].sensed_dvth = Volts{sensed};
      obs[i].temperature = thermal_.temperature(i);
      obs[i].demanded_utilization = demand[i];
    }
    span = log.open(kPolicy, root);
    const PolicyDecision decision =
        policy_->decide(obs, Seconds{now_s_}, dt, rng_);
    log.close(span);

    std::vector<double> util(n, 0.0);
    double displaced = 0.0;
    std::size_t running = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (decision.actions[i] == CoreAction::kRun) {
        util[i] = demand[i];
        ++running;
      } else {
        displaced += demand[i];
      }
    }
    if (running > 0 && displaced > 0.0) {
      const double share = displaced / static_cast<double>(running);
      for (std::size_t i = 0; i < n; ++i) {
        if (decision.actions[i] == CoreAction::kRun) {
          const double add = std::min(share, 1.0 - util[i]);
          util[i] += add;
          displaced -= add;
        }
      }
    }

    span = log.open(kCorePower, root);
    std::vector<double> power(n);
    for (std::size_t i = 0; i < n; ++i) {
      power[i] = cores_[i]
                     .power(decision.actions[i], util[i],
                            thermal_.temperature(i))
                     .value();
    }
    log.close(span);
    span = log.open(kThermal, root);
    thermal_.set_power_map(power);
    thermal_.solve_steady();
    log.close(span);

    span = log.open(kCoreStep, root);
    for (std::size_t i = 0; i < n; ++i) {
      cores_[i].step(decision.actions[i], util[i], thermal_.temperature(i),
                     dt);
    }
    log.close(span);
    double delivered = 0.0;
    double demanded = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      demanded += demand[i];
      if (decision.actions[i] == CoreAction::kRun) {
        delivered += util[i] * (1.0 - cores_[i].degradation());
      }
      energy_j_ += power[i] * dt.value();
    }
    demanded_acc_ += demanded;
    delivered_acc_ += std::min(delivered, demanded);

    span = log.open(kSupply, root);
    std::vector<double> loads(n);
    for (std::size_t i = 0; i < n; ++i) {
      loads[i] = cores_[i]
                     .supply_current(decision.actions[i], util[i],
                                     thermal_.temperature(i))
                     .value();
    }
    log.close(span);
    span = log.open(kPdn, root);
    pdn_.step(loads, thermal_.max_temperature(), dt,
              decision.em_recovery_mode);
    log.close(span);

    ++steps_;
    now_s_ = static_cast<double>(steps_) * dt.value();
    if (first_failure_s_ < 0.0 && pdn_.failed()) first_failure_s_ = now_s_;
    worst_deg_ = 0.0;
    for (const auto& c : cores_) {
      worst_deg_ = std::max(worst_deg_, c.degradation());
    }
    guardband_ = std::max(guardband_, worst_deg_);
    temp_acc_ += thermal_.mean_temperature().value();
    ir_drop_v_ = pdn_.stats().worst_drop_v;
    max_temp_c_ = thermal_.max_temperature().value();
    ir_sum_ += ir_drop_v_;
    temp_sum_ += max_temp_c_;
    bool recovering = decision.em_recovery_mode;
    for (const CoreAction a : decision.actions) {
      if (a == CoreAction::kBtiActiveRecovery) recovering = true;
    }
    if (recovering) ++recovery_quanta_;
    log.close(root);
  }

  [[nodiscard]] bool last_physical() const {
    return physical(ir_drop_v_, params_.pdn.vdd.value(), worst_deg_,
                    max_temp_c_);
  }

  void add_to(Digest& d) const {
    SystemSummary s;
    s.guardband_fraction = guardband_;
    s.final_degradation = worst_deg_;
    s.time_to_failure = Seconds{first_failure_s_};
    s.mean_throughput = delivered_acc_ / static_cast<double>(steps_);
    s.availability =
        demanded_acc_ > 0.0 ? delivered_acc_ / demanded_acc_ : 1.0;
    s.energy_joules = energy_j_;
    s.mean_temperature_c = temp_acc_ / static_cast<double>(steps_);
    s.recovery_quanta = recovery_quanta_;
    s.pdn_stats = pdn_.stats();
    add_summary(d, s, ir_sum_, temp_sum_);
  }

 private:
  // Same limit as SystemSimulator's sensor sanity check.
  static constexpr double kSensorSaneLimitV = 0.5;

  static thermal::ThermalGridParams matched_thermal(const SystemParams& p) {
    thermal::ThermalGridParams t = p.thermal;
    t.rows = p.rows;
    t.cols = p.cols;
    return t;
  }
  static pdn::PdnParams matched_pdn(const SystemParams& p) {
    pdn::PdnParams g = p.pdn;
    g.rows = p.rows;
    g.cols = p.cols;
    g.pad_nodes.clear();
    return g;
  }

  SystemParams params_;
  std::unique_ptr<RecoveryPolicy> policy_;
  std::vector<Core> cores_;
  std::vector<sched::Workload> workloads_;
  thermal::ThermalGrid thermal_;
  pdn::AgingPdn pdn_;
  Rng rng_;
  std::vector<double> last_good_sensor_;
  double now_s_ = 0.0;
  std::size_t steps_ = 0;
  double demanded_acc_ = 0.0, delivered_acc_ = 0.0, energy_j_ = 0.0;
  double temp_acc_ = 0.0, guardband_ = 0.0, first_failure_s_ = -1.0;
  double worst_deg_ = 0.0, ir_drop_v_ = 0.0, max_temp_c_ = 0.0;
  double ir_sum_ = 0.0, temp_sum_ = 0.0;
  std::size_t recovery_quanta_ = 0;
};

bool simulator_physical(const SystemSimulator& sim, double vdd) {
  return physical(sim.ir_drop_trace().back_value(), vdd,
                  sim.degradation_trace().back_value(),
                  sim.temperature_trace().back_value());
}

class Fig12Lifetime final : public Workload {
 public:
  void set_up(const Options& o) override {
    quanta_ = o.tiny ? 120 : 2920;  // 30 days or 2 years of 6 h quanta
    // Warm-up on a throwaway simulator: lazy registry entries, solver
    // code and allocator pools, without touching any timed repetition.
    SystemSimulator warm{hot_chip(o.seed), make_policy(2)};
    for (int i = 0; i < 16; ++i) warm.step();
  }

  std::string run_rep(std::uint64_t seed, ItemLog& log,
                      const std::function<bool()>& stop,
                      SpanLog* spans) override {
    return study(seed, quanta_, log, stop, spans);
  }

  std::vector<Check> checks(const Options& o) override {
    const std::uint64_t seed = rep_seed(o.seed, 0);
    const std::size_t slice = o.tiny ? 20 : 240;  // 5 or 60 days
    const auto never = [] { return false; };
    ItemLog log;
    SpanLog spans(kSpanNames, 0);
    std::vector<Check> out;
    out.push_back({"fig12_replay_vs_simulator",
                   study(seed, slice, log, never, nullptr),
                   study(seed, slice, log, never, &spans)});
    out.push_back({"fig12_checkpoint_round_trip",
                   uninterrupted(seed, slice),
                   round_trip(seed, slice, o.work_dir)});
    return out;
  }

  Json trace(const Options& o) override {
    Json m;
    const double solves = counter_value("pdn.solve.calls");
    m.num("pdn.solves", solves);
    m.num("pdn.refactor_ratio",
          counter_value("pdn.solve.factorizations") / solves);
    m.num("pdn.cache_hit_ratio",
          counter_value("pdn.solve.cache_hits") / solves);
    m.num("pdn.cg_iters_per_solve",
          counter_value("pdn.solve.cg_iterations") / solves);
    m.num("pdn.fallback_refactorizations",
          counter_value("pdn.solve.fallback_refactorizations"));
    m.num("thermal.factorizations",
          counter_value("thermal.solve.factorizations"));
    m.num("sparse.cg_iters_p50", histogram_quantile("solver.cg_iters", 0.50));
    m.num("sparse.cg_iters_p95", histogram_quantile("solver.cg_iters", 0.95));
    m.num("device.bti_evals", counter_value("bti.compact.evals"));
    m.num("em.evals", counter_value("em.compact.evals"));
    pool_counts(m);

    checkpoint_costs(rep_seed(o.seed, 0), o.work_dir, m);

    // Layer split: replayed repetitions interleaved with untraced ones.
    SpanLog spans(kSpanNames, quanta_);
    refactorize_ms_ = 0.0;
    const Interleaved iv = run_interleaved(*this, o, spans);
    if (!iv.digests_match) {
      throw std::runtime_error(
          "fig12 replay digest differs from SystemSimulator: the layer "
          "split is invalid and is not published");
    }
    spans.write_csv(o.work_dir + "/spans_fig12_lifetime.csv");
    const double refactorize_us =
        1e3 * refactorize_ms_ / static_cast<double>(spans.items());
    m.num("sched.demand_us", spans.self_us_per_item(kDemand));
    m.num("sched.policy_us", spans.self_us_per_item(kPolicy));
    m.num("sched.other_us", spans.self_us_per_item(kQuantum));
    m.num("device.core_power_us",
          spans.self_us_per_item(kCorePower) + spans.self_us_per_item(kSupply));
    m.num("device.core_step_us", spans.self_us_per_item(kCoreStep));
    m.num("thermal.solve_us", spans.self_us_per_item(kThermal));
    m.num("pdn.step_us", spans.self_us_per_item(kPdn) - refactorize_us);
    m.num("pdn.refactorize_us", refactorize_us);
    m.num("pool.cpu_per_wall", iv.untraced_cpu_per_wall);
    m.num("obs.trace_overhead_frac", iv.trace_overhead_frac);
    return m;
  }

 private:
  /// All five policies over `quanta` quanta each; the digest of their
  /// end-of-life summaries, or "" when stopped early or an item threw.
  std::string study(std::uint64_t seed, std::size_t quanta, ItemLog& log,
                    const std::function<bool()>& stop, SpanLog* spans) {
    const SystemParams p = hot_chip(seed);
    const double vdd = p.pdn.vdd.value();
    obs::Histogram& refactorize =
        obs::registry().histogram("prof.pdn.refactorize", "ms");
    if (spans != nullptr) refactorize.reset();
    Digest d;
    for (std::size_t k = 0; k < kPolicies; ++k) {
      try {
        if (spans == nullptr) {
          SystemSimulator sim{p, make_policy(k)};
          for (std::size_t q = 0; q < quanta; ++q) {
            if (stop()) return "";
            const std::int64_t t0 = now_ns();
            sim.step();
            const std::int64_t t1 = now_ns();
            log.record(t0, t1, simulator_physical(sim, vdd));
          }
          add_simulator(d, sim);
        } else {
          Fig12Replay replay{p, make_policy(k)};
          for (std::size_t q = 0; q < quanta; ++q) {
            if (stop()) return "";
            const std::int64_t t0 = now_ns();
            replay.step(*spans);
            const std::int64_t t1 = now_ns();
            log.record(t0, t1, replay.last_physical());
            spans->end_item();
          }
          replay.add_to(d);
        }
      } catch (const std::exception&) {
        ++log.threw;
        return "";
      }
    }
    if (spans != nullptr) {
      const auto snap = refactorize.snapshot();
      refactorize_ms_ += snap.mean * static_cast<double>(snap.count);
    }
    return d.str();
  }

  static std::string uninterrupted(std::uint64_t seed, std::size_t slice) {
    Digest d;
    for (std::size_t k = 0; k < kPolicies; ++k) {
      SystemSimulator sim{hot_chip(seed), make_policy(k)};
      for (std::size_t q = 0; q < 2 * slice; ++q) sim.step();
      add_simulator(d, sim);
    }
    return d.str();
  }

  /// Save after `slice` quanta, restore into a fresh simulator, step on.
  static std::string round_trip(std::uint64_t seed, std::size_t slice,
                                const std::string& dir) {
    const std::string path = dir + "/fig12_round_trip.dhck";
    Digest d;
    for (std::size_t k = 0; k < kPolicies; ++k) {
      {
        SystemSimulator first{hot_chip(seed), make_policy(k)};
        for (std::size_t q = 0; q < slice; ++q) first.step();
        first.save_checkpoint(path);
      }
      SystemSimulator resumed{hot_chip(seed), make_policy(k)};
      resumed.load_checkpoint(path);
      for (std::size_t q = 0; q < slice; ++q) resumed.step();
      add_simulator(d, resumed);
    }
    std::filesystem::remove(path);
    return d.str();
  }

  /// save_checkpoint / load_checkpoint of one periodic-active simulator
  /// at end of life; medians of five of each.
  void checkpoint_costs(std::uint64_t seed, const std::string& dir,
                        Json& m) const {
    SystemSimulator sim{hot_chip(seed), make_policy(2)};
    for (std::size_t q = 0; q < quanta_; ++q) sim.step();
    const std::string path = dir + "/fig12_end_of_life.dhck";
    std::vector<float> save_ms, load_ms;
    const auto ms_since = [](std::int64_t t0) {
      return static_cast<float>(1e-6 * static_cast<double>(now_ns() - t0));
    };
    for (int i = 0; i < 5; ++i) {
      std::int64_t t0 = now_ns();
      sim.save_checkpoint(path);
      save_ms.push_back(ms_since(t0));
      SystemSimulator restored{hot_chip(seed), make_policy(2)};
      t0 = now_ns();
      restored.load_checkpoint(path);
      load_ms.push_back(ms_since(t0));
    }
    m.num("ckpt.save_ms", percentile(save_ms, 0.5));
    m.num("ckpt.load_ms", percentile(load_ms, 0.5));
    m.num("ckpt.bytes",
          static_cast<double>(std::filesystem::file_size(path)));
    std::filesystem::remove(path);
  }

  std::size_t quanta_ = 2920;
  double refactorize_ms_ = 0.0;  // prof.pdn.refactorize sum over traced reps
};

}  // namespace

std::unique_ptr<Workload> make_fig12_lifetime() {
  return std::make_unique<Fig12Lifetime>();
}

}  // namespace perfbench
