// Benchmark harness binary, driven by perfbench/run.py. Modes:
//   setup  — set up the workload and report the time from launch to the
//            first timed item (run.py takes the median over processes);
//   run    — untraced timed section: the seed's repetition back to back
//            for --seconds, every item timed, rep 0 always completed;
//            every figure derives from each item's least-disturbed
//            latency over the repetitions (see timed_run);
//   check  — same-seed digest of rep 0 plus the workload's output checks;
//   trace  — the traced run: every per-layer metric of the workload.
// Each mode prints one JSON object on stdout.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <string>
#include <vector>

#include "common/obs/metrics.hpp"
#include "harness.hpp"

namespace {

using namespace perfbench;

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

int usage() {
  std::fprintf(stderr,
               "usage: dh_perfbench setup|run|check|trace --workload "
               "fig12_lifetime|sram_retention|em_population --seed N "
               "--seconds S [--tiny] [--work-dir DIR] [--t0-ns NS]\n");
  return 2;
}

Json fingerprint() {
  return Json{}
      .num("nproc", static_cast<double>(nproc()))
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .str("compiler", __VERSION__)
      .num("optimized", kOptimized ? 1.0 : 0.0)
      .num("effective_parallelism", effective_parallelism(nproc()));
}

/// The timed section repeats the seed's repetition back to back (the same
/// inputs every time) and keeps, for each item of the repetition, its
/// least-disturbed wall latency: the minimum over the repetitions. On a
/// shared 4-vCPU host, neighbours slow stretches of 5 s to minutes by up
/// to 50 %, CPU time included (an em_population pair takes ~24 us in a
/// quiet stretch and ~36 us in a loaded one), so any average over time,
/// or a percentile of per-second figures, follows the host's load: their
/// 10-run spread reached 0.1 to 0.26 of the median. An item takes 15 to
/// 150 us, short enough to meet a quiet moment in some repetition even in
/// a loaded stretch, and the per-item minima repeat within ~3 % run over
/// run. Every figure derives from them:
///   item_us_p50, item_us_p99 — percentiles over the repetition's items;
///   items_per_s — concurrent_items() / the mean minimum;
///   cpu_us_per_item — 1 / items_per_s times the cores the timed section
///     kept busy (process CPU time / wall time); printed but not bounded,
///     because CPU time leaves out the host's steal time.
/// Each completed repetition's digest must equal repetition 0's.
Json timed_run(Workload& w, const Options& o) {
  w.set_up(o);
  const std::uint64_t seed = rep_seed(o.seed, 0);
  const std::int64_t start = now_ns();
  const double cpu0 = cpu_seconds();
  const std::int64_t deadline =
      start + static_cast<std::int64_t>(o.seconds * 1e9);
  const std::function<bool()> never = [] { return false; };
  const std::function<bool()> past_deadline = [deadline] {
    return now_ns() >= deadline;
  };
  std::vector<float> best;  // least latency of each item, in item order
  std::uint64_t items = 0, threw = 0, violated = 0, reps = 0, mismatched = 0;
  std::string digest0;
  ItemLog rep;
  rep.latency_us.reserve(1 << 16);  // above any repetition's item count
  std::int64_t now = start;
  do {
    rep.latency_us.clear();
    rep.threw = rep.violated = 0;
    const std::string d =
        w.run_rep(seed, rep, reps == 0 ? never : past_deadline, nullptr);
    if (reps == 0) {
      digest0 = d;
      best = rep.latency_us;
    } else {
      if (!d.empty() && d != digest0) ++mismatched;
      if (rep.threw == 0) {  // items stay aligned with repetition 0's
        const std::size_t n = std::min(best.size(), rep.latency_us.size());
        for (std::size_t i = 0; i < n; ++i) {
          best[i] = std::min(best[i], rep.latency_us[i]);
        }
      }
    }
    items += rep.items();
    threw += rep.threw;
    violated += rep.violated;
    ++reps;
    now = now_ns();
  } while (now < deadline);
  const double wall_s = 1e-9 * static_cast<double>(now - start);
  const double cores_busy = (cpu_seconds() - cpu0) / wall_s;
  const auto per_rep = static_cast<double>(best.size());
  double best_sum_us = 0.0;
  for (const float b : best) best_sum_us += b;
  const double items_per_s =
      static_cast<double>(w.concurrent_items()) * 1e6 * per_rep / best_sum_us;
  return Json{}
      .num("setup_s", 1e-9 * static_cast<double>(start - o.t0_ns))
      .num("items", static_cast<double>(items))
      .num("threw", static_cast<double>(threw))
      .num("violated", static_cast<double>(violated))
      .num("reps", static_cast<double>(reps))
      .num("items_per_rep", per_rep)
      .num("rep_digests_mismatched", static_cast<double>(mismatched))
      .num("wall_s", wall_s)
      .num("cores_busy", cores_busy)
      .num("items_per_s", items_per_s)
      .num("item_us_p50", percentile(best, 0.50))
      .num("item_us_p99", percentile(best, 0.99))
      .num("cpu_us_per_item", 1e6 * cores_busy / items_per_s)
      .num("peak_rss_mb", peak_rss_mb())
      .str("digest0", digest0)
      .obj("fingerprint", fingerprint());
}

Json check_run(Workload& w, const Options& o) {
  w.set_up(o);
  ItemLog log;
  Json out;
  out.str("digest0", w.run_rep(rep_seed(o.seed, 0), log,
                               [] { return false; }, nullptr));
  Json checks;
  for (const Check& c : w.checks(o)) {
    checks.obj(c.name,
               Json{}.str("expected", c.expected).str("actual", c.actual));
  }
  return out.obj("checks", checks);
}

Json trace_run(Workload& w, const Options& o) {
  w.set_up(o);
  dh::obs::registry().reset_all();
  ItemLog log;
  const std::string digest0 = w.run_rep(rep_seed(o.seed, 0), log,
                                        [] { return false; }, nullptr);
  const auto items = static_cast<double>(log.items());
  Json metrics = w.trace(o);
  metrics.num("check.failed_fraction",
              static_cast<double>(log.violated + log.threw) / items);
  return Json{}
      .str("digest0", digest0)
      .num("items", items)
      .num("threw", static_cast<double>(log.threw))
      .obj("metrics", metrics)
      .obj("fingerprint", fingerprint());
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  o.t0_ns = now_ns();
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  std::string workload;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--tiny") {
      o.tiny = true;
    } else if (a == "--workload" && has_value) {
      workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      o.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--work-dir" && has_value) {
      o.work_dir = argv[++i];
    } else if (a == "--t0-ns" && has_value) {
      o.t0_ns = std::strtoll(argv[++i], nullptr, 10);
    } else {
      return usage();
    }
  }
  if (!kOptimized) {
    std::fprintf(stderr, "dh_perfbench: refusing to measure a build "
                         "without optimisation\n");
    return 3;
  }
  std::unique_ptr<Workload> w;
  if (workload == "fig12_lifetime") {
    w = make_fig12_lifetime();
  } else if (workload == "sram_retention") {
    w = make_sram_retention();
  } else if (workload == "em_population") {
    w = make_em_population();
  } else {
    return usage();
  }
  try {
    Json out;
    if (mode == "setup") {
      w->set_up(o);
      out.num("setup_s", 1e-9 * static_cast<double>(now_ns() - o.t0_ns));
    } else if (mode == "run") {
      out = timed_run(*w, o);
    } else if (mode == "check") {
      out = check_run(*w, o);
    } else if (mode == "trace") {
      out = trace_run(*w, o);
    } else {
      return usage();
    }
    std::printf("%s\n", out.dump().c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dh_perfbench %s %s: %s\n", mode.c_str(),
                 workload.c_str(), e.what());
    return 1;
  }
  return 0;
}
