// sram_retention: the sram_recovery_boost study — four data/recovery
// strategies on a 64-cell array at 95 C for a year, one SramArray::step
// per simulated day, with the pool at pool_threads(). As in the bench, the
// worst-cell health (an SNM circuit solve) is read at three months and at
// the end. Item = one array-day. Each step is one small parallel_for (64
// cheap cells), so pool overhead dominates.
#include <cmath>
#include <stdexcept>

#include "common/parallel.hpp"
#include "harness.hpp"
#include "sram/sram_array.hpp"

namespace perfbench {
namespace {

using namespace dh;
using namespace dh::sram;

enum SpanName : std::uint16_t { kDay, kStep, kHealth };
const std::vector<std::string> kSpanNames = {"sram.day", "sram.step",
                                             "sram.health"};

struct Strategy {
  DataPattern pattern;
  double boost_fraction;
};
// The bench's four strategies, in its order.
constexpr Strategy kStrategies[] = {
    {DataPattern::kStatic, 0.0},
    {DataPattern::kFlipping, 0.0},
    {DataPattern::kStatic, 0.10},
    {DataPattern::kFlipping, 0.10},
};

class SramRetention final : public Workload {
 public:
  void set_up(const Options& o) override {
    days_ = o.tiny ? 20 : 365;
    threads_ = pool_threads();
    set_global_thread_count(threads_);
    SramArray warm{SramArrayParams{}};
    for (int d = 0; d < 2; ++d) {
      warm.step(Celsius{95.0}, hours(24.0), 0.1);
      (void)warm.worst_cell_health();
    }
  }

  std::string run_rep(std::uint64_t seed, ItemLog& log,
                      const std::function<bool()>& stop,
                      SpanLog* spans) override {
    return study(seed, days_, log, stop, spans);
  }

  std::vector<Check> checks(const Options& o) override {
    const std::uint64_t seed = rep_seed(o.seed, 0);
    const std::size_t slice = o.tiny ? 5 : 30;
    return {{"sram_threads_1_vs_nproc", slice_at(1, seed, slice),
             slice_at(nproc(), seed, slice)}};
  }

  Json trace(const Options& o) override {
    Json m;
    pool_counts(m);

    SpanLog spans(kSpanNames, days_);
    const Interleaved iv = run_interleaved(*this, o, spans);
    if (!iv.digests_match) {
      throw std::runtime_error("sram traced and untraced digests differ");
    }
    spans.write_csv(o.work_dir + "/spans_sram_retention.csv");
    m.num("sram.step_us", spans.self_us_per_item(kStep));
    m.num("sram.health_us", spans.self_us_per_item(kHealth));
    m.num("obs.trace_overhead_frac", iv.trace_overhead_frac);

    serial_baseline(*this, o, threads_, m);
    return m;
  }

 private:
  std::string study(std::uint64_t seed, std::size_t days, ItemLog& log,
                    const std::function<bool()>& stop, SpanLog* spans) {
    Digest d;
    for (const Strategy& s : kStrategies) {
      SramArrayParams p;
      p.cells = 64;
      p.pattern = s.pattern;
      p.seed = seed;
      try {
        SramArray arr{p};
        for (std::size_t day = 0; day < days; ++day) {
          if (stop()) return "";
          const bool read = day == days / 4 || day + 1 == days;
          SramArrayHealth h;
          const std::int64_t t0 = now_ns();
          if (spans == nullptr) {
            arr.step(Celsius{95.0}, hours(24.0), s.boost_fraction);
            if (read) h = arr.worst_cell_health();
          } else {
            const int root = spans->open(kDay);
            int span = spans->open(kStep, root);
            arr.step(Celsius{95.0}, hours(24.0), s.boost_fraction);
            spans->close(span);
            if (read) {
              span = spans->open(kHealth, root);
              h = arr.worst_cell_health();
              spans->close(span);
            }
            spans->close(root);
            spans->end_item();
          }
          const std::int64_t t1 = now_ns();
          const double snm = h.worst_snm.value();
          log.record(t0, t1, !read || (std::isfinite(snm) && snm > 0.0));
          if (read) d.add(snm).add(h.worst_pmos_dvth.value());
        }
      } catch (const std::exception&) {
        ++log.threw;
        return "";
      }
    }
    return d.str();
  }

  std::string slice_at(std::size_t threads, std::uint64_t seed,
                       std::size_t days) {
    set_global_thread_count(threads);
    ItemLog log;
    const std::string d =
        study(seed, days, log, [] { return false; }, nullptr);
    set_global_thread_count(threads_);
    return d;
  }

  std::size_t days_ = 365;
  std::size_t threads_ = 1;
};

}  // namespace

std::unique_ptr<Workload> make_sram_retention() {
  return std::make_unique<SramRetention>();
}

}  // namespace perfbench
