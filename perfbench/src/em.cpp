// em_population: the em_population_ttf Monte-Carlo study, scaled up. A
// repetition is one pass of 4000 wire pairs (10x the bench) in a single
// parallel_map on pool_threads() threads; each pair is one constant-stress and
// one 60:15-recovery TTF run of the same process draw (CompactEm::step at
// the paper's 230 C accelerated conditions). Item = one wire pair, timed
// inside its task.
#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "em/compact_em.hpp"
#include "em/em_sensor.hpp"
#include "harness.hpp"

namespace perfbench {
namespace {

using namespace dh;
using namespace dh::em;

enum SpanName : std::uint16_t { kPair, kConstant, kRecovery, kStep };
const std::vector<std::string> kSpanNames = {"em.pair", "em.ttf_constant",
                                             "em.ttf_recovery", "em.step"};

/// One TTF run, with its CompactEm::step calls optionally timed.
struct RunTiming {
  std::int64_t t0 = 0, t1 = 0, step_ns = 0;
  std::uint32_t steps = 0;
};

struct PairResult {
  double ttf[2] = {0.0, 0.0};  // constant stress, with recovery
  std::int64_t t0 = 0, t1 = 0;
  char threw = 0;
  RunTiming run[2];
};

double sample_ttf(bool recovery, Rng& r, RunTiming* timing) {
  static const WireGeometry wire = paper_wire();
  static const EmMaterialParams nominal = paper_calibrated_em_material();
  const Celsius t = paper_em_conditions::chamber();
  // Process spread: diffusivity and critical stress vary wire to wire.
  EmMaterialParams m = nominal;
  m.d0_m2_per_s *= r.lognormal(0.0, 0.25);
  m.critical_stress =
      Pascals{nominal.critical_stress.value() * r.lognormal(0.0, 0.10)};
  CompactEm em{CompactEmParams{.wire = wire, .material = m}};
  const auto step = [&](AmpsPerM2 j, Seconds dt) {
    if (timing == nullptr) {
      em.step(j, t, dt);
      return;
    }
    const std::int64_t s0 = now_ns();
    em.step(j, t, dt);
    timing->step_ns += now_ns() - s0;
    ++timing->steps;
  };
  const Seconds fwd = minutes(60.0);
  const Seconds rev = minutes(15.0);
  const double horizon = hours(400.0).value();
  double elapsed = 0.0;
  while (!em.broken() && elapsed < horizon) {
    step(paper_em_conditions::stress_density(), fwd);
    elapsed += fwd.value();
    if (recovery && !em.broken()) {
      step(paper_em_conditions::reverse_density(), rev);
      elapsed += rev.value();
    }
  }
  return em.broken() ? elapsed : horizon;
}

class EmPopulation final : public Workload {
 public:
  void set_up(const Options& o) override {
    pairs_ = o.tiny ? 64 : 4000;
    threads_ = pool_threads();
    set_global_thread_count(threads_);
    (void)pass(o.seed, 2 * threads_, false);
  }

  std::string run_rep(std::uint64_t seed, ItemLog& log,
                      const std::function<bool()>& stop,
                      SpanLog* spans) override {
    if (stop()) return "";
    const std::vector<PairResult> res = pass(seed, pairs_, spans != nullptr);
    for (const PairResult& p : res) {
      if (p.threw != 0) {
        ++log.threw;
        continue;
      }
      log.record(p.t0, p.t1,
                 std::isfinite(p.ttf[0]) && p.ttf[0] >= 0.0 &&
                     std::isfinite(p.ttf[1]) && p.ttf[1] >= 0.0);
      if (spans != nullptr) {
        const int root = spans->add({kPair, -1, 1, p.t0, p.t1});
        for (int k = 0; k < 2; ++k) {
          const RunTiming& r = p.run[k];
          const int run = spans->add(
              {static_cast<std::uint16_t>(k == 0 ? kConstant : kRecovery),
               static_cast<std::int16_t>(root), 1, r.t0, r.t1});
          spans->add({kStep, static_cast<std::int16_t>(run), r.steps, r.t0,
                      r.t0 + r.step_ns});
        }
        spans->end_item();
      }
    }
    return digest(res);
  }

  std::size_t concurrent_items() const override { return threads_; }

  std::vector<Check> checks(const Options& o) override {
    const std::uint64_t seed = rep_seed(o.seed, 0);
    const std::size_t slice = o.tiny ? 32 : 256;
    set_global_thread_count(1);
    const std::string one = digest(pass(seed, slice, false));
    set_global_thread_count(nproc());
    const std::string all = digest(pass(seed, slice, false));
    set_global_thread_count(threads_);
    return {{"em_threads_1_vs_nproc", one, all}};
  }

  Json trace(const Options& o) override {
    Json m;
    pool_counts(m);

    SpanLog spans(kSpanNames, 64);
    const Interleaved iv = run_interleaved(*this, o, spans);
    if (!iv.digests_match) {
      throw std::runtime_error("em traced and untraced digests differ");
    }
    spans.write_csv(o.work_dir + "/spans_em_population.csv");
    m.num("em.step_ns", spans.total_ns(kStep) /
                            static_cast<double>(spans.calls(kStep)));
    m.num("em.steps_per_pair", static_cast<double>(spans.calls(kStep)) /
                                   static_cast<double>(spans.items()));
    m.num("obs.trace_overhead_frac", iv.trace_overhead_frac);

    serial_baseline(*this, o, threads_, m);
    return m;
  }

 private:
  /// One parallel_map over `pairs` pairs; pair i draws from
  /// Rng::stream(seed, i), so results are thread-count independent.
  static std::vector<PairResult> pass(std::uint64_t seed, std::size_t pairs,
                                      bool timed) {
    return parallel_map(pairs, [seed, timed](std::size_t i) {
      PairResult p;
      p.t0 = now_ns();
      try {
        Rng r1 = Rng::stream(seed, i);
        Rng r2 = r1;  // identical process draw for the pair
        for (int k = 0; k < 2; ++k) {
          p.run[k].t0 = now_ns();
          p.ttf[k] = sample_ttf(k == 1, k == 0 ? r1 : r2,
                                timed ? &p.run[k] : nullptr);
          p.run[k].t1 = now_ns();
        }
      } catch (const std::exception&) {
        p.threw = 1;
      }
      p.t1 = now_ns();
      return p;
    });
  }

  static std::string digest(const std::vector<PairResult>& res) {
    double sum[2] = {0.0, 0.0};
    double least[2] = {INFINITY, INFINITY};
    for (const PairResult& p : res) {
      for (int k = 0; k < 2; ++k) {
        sum[k] += p.ttf[k];
        least[k] = std::min(least[k], p.ttf[k]);
      }
    }
    return Digest{}.add(sum[0]).add(sum[1]).add(least[0]).add(least[1]).str();
  }

  std::size_t pairs_ = 4000;
  std::size_t threads_ = 1;
};

}  // namespace

std::unique_ptr<Workload> make_em_population() {
  return std::make_unique<EmPopulation>();
}

}  // namespace perfbench
