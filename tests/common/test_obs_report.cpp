#include "common/obs/trace_report.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/obs/metrics.hpp"
#include "common/obs/trace.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/units.hpp"
#include "sched/policy.hpp"
#include "sched/system_sim.hpp"
#include "support/test_support.hpp"

namespace dh {
namespace {

TEST(ObsTraceReport, ReproducesRecoveryQuantaFromARecordedRun) {
  const std::string path =
      testing::TempDir() + "dh_obs_report_sim.jsonl";
  obs::set_trace_sink(std::make_unique<obs::JsonlTraceSink>(path));
  sched::SystemParams params;
  sched::SystemSimulator sim{params,
                             sched::make_periodic_active_policy()};
  // 10 days at 6 h quanta: several 48 h policy periods, so both BTI
  // recovery windows and EM duty cycles appear in the trace.
  constexpr int kQuanta = 40;
  for (int i = 0; i < kQuanta; ++i) sim.step();
  obs::set_trace_sink(nullptr);

  std::ifstream in(path);
  const obs::TraceReport report = obs::analyze_trace(in);
  EXPECT_EQ(report.malformed_lines, 0u);
  EXPECT_EQ(report.sim_quanta, static_cast<std::size_t>(kQuanta));
  // The acceptance bar: the offline reconstruction equals the live
  // counter exactly, and the schedule actually exercised recovery.
  EXPECT_EQ(report.sim_recovery_quanta, sim.recovery_quanta());
  EXPECT_GT(sim.recovery_quanta(), 0u);
  EXPECT_LT(sim.recovery_quanta(), static_cast<std::size_t>(kQuanta));

  const auto group = report.groups.find("sim/quantum");
  ASSERT_NE(group, report.groups.end());
  EXPECT_EQ(group->second.count, static_cast<std::size_t>(kQuanta));
  EXPECT_EQ(group->second.fields.count("worst_deg"), 1u);
}

TEST(ObsTraceReport, ReproducesInvariantViolationsFromARecordedRun) {
  const std::string path =
      testing::TempDir() + "dh_obs_report_invariants.jsonl";
  obs::set_trace_sink(std::make_unique<obs::JsonlTraceSink>(path));
  // A hot 3x3 chip on 0.1 um PDN segments violates all three checks
  // within its first days.
  sched::SystemParams params;
  params.rows = 3;
  params.cols = 3;
  params.quantum = hours(24.0);
  params.core.dynamic_power_peak = Watts{2.2};
  params.thermal.ambient = Celsius{55.0};
  params.thermal.vertical_g_w_per_k = 0.07;
  params.pdn.segment_wire.width = Meters{0.1e-6};
  sched::SystemSimulator sim{params, sched::make_no_recovery_policy()};
  for (int i = 0; i < 10; ++i) sim.step();
  obs::set_trace_sink(nullptr);

  std::ifstream in(path);
  const obs::TraceReport report = obs::analyze_trace(in);
  const sched::InvariantViolations v = sim.summary().invariant_violations;
  EXPECT_GT(v.unpowered_core, 0u);
  const auto& counts = report.sim_invariant_violations;
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts.at("ir_drop"), v.ir_drop);
  EXPECT_EQ(counts.at("unpowered_core"), v.unpowered_core);
  EXPECT_EQ(counts.at("current_density"), v.current_density);
  std::ostringstream os;
  obs::print_trace_report(os, report);
  EXPECT_NE(os.str().find("unpowered_core         " +
                          std::to_string(v.unpowered_core)),
            std::string::npos)
      << os.str();
}

TEST(ObsTraceReport, CountsMalformedLinesAndKeepsGoodOnes) {
  std::istringstream in(
      "{\"cat\":\"sim\",\"name\":\"quantum\",\"t_wall_ms\":1,"
      "\"f\":{\"recovery_cores\":2,\"em_recovery\":0}}\n"
      "this is not json\n"
      "{\"truncated\":\n"
      "{\"cat\":\"sim\",\"name\":\"quantum\",\"t_wall_ms\":2,"
      "\"f\":{\"recovery_cores\":0,\"em_recovery\":0}}\n");
  const obs::TraceReport report = obs::analyze_trace(in);
  EXPECT_EQ(report.total_events, 2u);
  EXPECT_EQ(report.malformed_lines, 2u);
  EXPECT_EQ(report.sim_quanta, 2u);
  EXPECT_EQ(report.sim_recovery_quanta, 1u);
}

TEST(ObsTraceReport, SummarisesFieldsAndWallSpan) {
  std::ostringstream trace;
  for (int i = 1; i <= 100; ++i) {
    trace << "{\"cat\":\"pool\",\"name\":\"job\",\"t_wall_ms\":" << i
          << ",\"f\":{\"ms\":" << i << "}}\n";
  }
  std::istringstream in(trace.str());
  const obs::TraceReport report = obs::analyze_trace(in);
  EXPECT_EQ(report.total_events, 100u);
  EXPECT_DOUBLE_EQ(report.wall_span_ms, 99.0);
  const auto group = report.groups.find("pool/job");
  ASSERT_NE(group, report.groups.end());
  const auto field = group->second.fields.find("ms");
  ASSERT_NE(field, group->second.fields.end());
  // Exact order statistics (the report keeps every sample).
  EXPECT_DOUBLE_EQ(field->second.min, 1.0);
  EXPECT_DOUBLE_EQ(field->second.max, 100.0);
  EXPECT_NEAR(field->second.p50, 50.0, 1.0);
  EXPECT_NEAR(field->second.p95, 95.0, 1.0);
}

TEST(ObsTraceReport, PercentilesMatchStatsPercentile) {
  // One sort per field: p50 and p95 come from the sorted values with
  // stats::percentile's interpolation, bit for bit, at sizes whose
  // percentile positions fall on and between order statistics.
  Rng rng{11};
  for (const int n : {1, 2, 3, 7, 20, 21, 101, 250}) {
    std::vector<double> values(static_cast<std::size_t>(n));
    std::ostringstream trace;
    for (int i = 0; i < n; ++i) {
      // Rounded to 1/8 so the sample has ties and prints exactly.
      values[i] = std::round(test::uniform(rng, -50.0, 50.0) * 8.0) / 8.0;
      trace << "{\"cat\":\"a\",\"name\":\"x\",\"t_wall_ms\":" << i
            << ",\"f\":{\"v\":" << values[i] << "}}\n";
    }
    std::istringstream in(trace.str());
    const obs::TraceReport report = obs::analyze_trace(in);
    const obs::TraceFieldSummary& f = report.groups.at("a/x").fields.at("v");
    EXPECT_EQ(f.p50, stats::percentile(values, 0.50)) << "n " << n;
    EXPECT_EQ(f.p95, stats::percentile(values, 0.95)) << "n " << n;
  }
}

TEST(ObsTraceReport, AttributesWallTimeToTheEarlierEventsCategory) {
  std::istringstream in(
      "{\"cat\":\"a\",\"name\":\"x\",\"t_wall_ms\":0}\n"
      "{\"cat\":\"b\",\"name\":\"y\",\"t_wall_ms\":10}\n"
      "{\"cat\":\"a\",\"name\":\"x\",\"t_wall_ms\":30}\n");
  const obs::TraceReport report = obs::analyze_trace(in);
  EXPECT_DOUBLE_EQ(report.category_wall_ms.at("a"), 10.0);
  EXPECT_DOUBLE_EQ(report.category_wall_ms.at("b"), 20.0);
}

TEST(ObsTraceReport, PrintedReportNamesTheRecoveryQuanta) {
  std::istringstream in(
      "{\"cat\":\"sim\",\"name\":\"quantum\",\"t_wall_ms\":1,"
      "\"f\":{\"recovery_cores\":0,\"em_recovery\":1}}\n");
  const obs::TraceReport report = obs::analyze_trace(in);
  std::ostringstream os;
  obs::print_trace_report(os, report);
  EXPECT_NE(os.str().find("recovery_quanta = 1"), std::string::npos);
}

TEST(ObsTraceReport, NumberWithTrailingGarbageIsMalformed) {
  // Regression for seed 24 of the mutation test below, which replaced a
  // t_sim_s value with "1e": a token that only starts with a number was
  // read as that number, so a corrupted record passed as a good one.
  std::istringstream in(
      "{\"cat\":\"sim\",\"name\":\"quantum\",\"t_wall_ms\":7.5,"
      "\"t_sim_s\":1e,\"f\":{\"em_recovery\":1}}\n"
      "{\"cat\":\"a\",\"name\":\"x\",\"t_wall_ms\":1-2}\n"
      "{\"cat\":\"a\",\"name\":\"x\",\"t_wall_ms\":1,\"f\":{\"v\":1.2.3}}\n"
      "{\"cat\":\"a\",\"name\":\"x\",\"t_wall_ms\":2,\"f\":{\"v\":-0.5e1}}\n");
  const obs::TraceReport report = obs::analyze_trace(in);
  EXPECT_EQ(report.malformed_lines, 3u);
  EXPECT_EQ(report.total_events, 1u);
  EXPECT_EQ(report.sim_quanta, 0u);
  EXPECT_DOUBLE_EQ(report.groups.at("a/x").fields.at("v").max, -5.0);
}

TEST(ObsTraceReport, NonFiniteFieldIsNullAndKeepsItsEvent) {
  // A NaN written as `nan` is not JSON, so the report used to drop the
  // whole quantum as malformed.
  const std::string path =
      testing::TempDir() + "dh_obs_report_nonfinite.jsonl";
  {
    obs::JsonlTraceSink sink(path);
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const obs::TraceField fields[] = {{"worst_deg", nan},
                                      {"recovery_cores", 2.0}};
    obs::TraceEvent e;
    e.category = "sim";
    e.name = "quantum";
    e.sim_time_s = std::numeric_limits<double>::infinity();
    e.has_sim_time = true;
    e.fields = fields;
    e.field_count = 2;
    sink.write(e);
  }
  std::ifstream in(path);
  const obs::TraceReport report = obs::analyze_trace(in);
  EXPECT_EQ(report.malformed_lines, 0u);
  EXPECT_EQ(report.sim_quanta, 1u);
  EXPECT_EQ(report.sim_recovery_quanta, 1u);
  const obs::TraceEventGroup& group = report.groups.at("sim/quantum");
  EXPECT_EQ(group.fields.count("worst_deg"), 0u);
  EXPECT_EQ(group.fields.count("t_sim_s"), 0u);
  EXPECT_DOUBLE_EQ(group.fields.at("recovery_cores").max, 2.0);
}

// Forwards to a JSONL sink with each t_wall_ms replaced by half the event
// index, so the recorded trace, and every mutation of it, is the same on
// every run.
class IndexClockSink : public obs::TraceSink {
 public:
  explicit IndexClockSink(const std::string& path) : out_(path) {}
  void write(const obs::TraceEvent& event) override {
    obs::TraceEvent e = event;
    e.wall_ms = 0.5 * static_cast<double>(n_++);
    out_.write(e);
  }
  void flush() override { out_.flush(); }

 private:
  obs::JsonlTraceSink out_;
  std::size_t n_ = 0;
};

// The trace of a short traced simulator run (2x2 chip, 12 quanta).
std::string record_short_trace() {
  const std::string path = testing::TempDir() + "dh_obs_report_fuzz.jsonl";
  obs::set_trace_sink(std::make_unique<IndexClockSink>(path));
  sched::SystemParams params;
  params.rows = params.cols = 2;
  sched::SystemSimulator sim{params, sched::make_periodic_active_policy()};
  for (int i = 0; i < 12; ++i) sim.step();
  obs::set_trace_sink(nullptr);
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

// Byte classes of a trace line, so flips and truncations land on each:
// structure, number, name, line end.
enum ByteClass : std::size_t {
  kStructure,
  kNumber,
  kName,
  kLineEnd,
  kClasses
};

ByteClass classify(char c) {
  if (c == '\n') return kLineEnd;
  if ((c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.') {
    return kNumber;
  }
  if (c == '{' || c == '}' || c == '"' || c == ',' || c == ':') {
    return kStructure;
  }
  return kName;
}

// One seeded mutation of a trace. For a number replaced by a special
// token, `malformed` is the count the report must give: 0 when the token
// is itself a finite JSON number, else 1.
struct Mutation {
  std::string text;
  std::optional<std::size_t> malformed;
};

// `seed % 5` picks the kind of mutation.
Mutation mutate_trace(const std::string& base, std::uint64_t seed) {
  Rng rng = Rng::stream(0x7ACE, seed);
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(
        test::uniform_int(rng, 0, static_cast<int>(n) - 1));
  };
  std::array<std::vector<std::size_t>, kClasses> at;
  for (std::size_t i = 0; i < base.size(); ++i) {
    at[classify(base[i])].push_back(i);
  }
  Mutation m{base, std::nullopt};
  std::string& out = m.text;
  switch (seed % 5) {
    case 0: {  // flip one bit of a byte of class (seed / 5) % kClasses
      const auto& offsets = at[(seed / 5) % kClasses];
      out[offsets[pick(offsets.size())]] ^=
          static_cast<char>(1 << test::uniform_int(rng, 0, 7));
      break;
    }
    case 1: {  // truncate just before a byte of class (seed / 5) % kClasses
      const auto& offsets = at[(seed / 5) % kClasses];
      out.resize(offsets[pick(offsets.size())]);
      break;
    }
    case 2:    // delete a brace, quote or comma
    case 3: {  // duplicate one
      static constexpr char kPunct[] = {'{', '}', '"', ','};
      const char c = kPunct[pick(4)];
      std::vector<std::size_t> hits;
      for (std::size_t i = 0; i < base.size(); ++i) {
        if (base[i] == c) hits.push_back(i);
      }
      const std::size_t i = hits[pick(hits.size())];
      if (seed % 5 == 2) {
        out.erase(i, 1);
      } else {
        out.insert(i, 1, c);
      }
      break;
    }
    default: {  // replace a t_wall_ms, t_sim_s or f value
      static constexpr const char* kTokens[] = {
          "nan", "1e999", "-1e999", "12345678901234567890",
          "-12345678901234567890", "1e", "1-2", "1.2.3", "--1", "0x10"};
      std::vector<std::size_t> starts;
      for (std::size_t i = 1; i < base.size(); ++i) {
        if (base[i - 1] == ':' && classify(base[i]) == kNumber) {
          starts.push_back(i);
        }
      }
      const std::size_t start = starts[pick(starts.size())];
      std::size_t end = start;
      while (end < base.size() &&
             (classify(base[end]) == kNumber || base[end] == 'e')) {
        ++end;
      }
      const std::size_t t = pick(std::size(kTokens));
      out.replace(start, end - start, kTokens[t]);
      m.malformed = t == 3 || t == 4 ? 0 : 1;
      break;
    }
  }
  return m;
}

std::size_t nonempty_lines(const std::string& text) {
  std::istringstream in(text);
  std::size_t n = 0;
  for (std::string line; std::getline(in, line);) n += line.empty() ? 0 : 1;
  return n;
}

// A report must account for every non-empty line, and its summaries must
// be ordered; printing it must not fail.
void expect_consistent_report(const obs::TraceReport& r,
                              const std::string& text,
                              const std::string& label) {
  EXPECT_EQ(r.total_events + r.malformed_lines, nonempty_lines(text))
      << label;
  std::size_t per_category = 0;
  for (const auto& [cat, n] : r.category_counts) per_category += n;
  EXPECT_EQ(per_category, r.total_events) << label;
  EXPECT_LE(r.sim_recovery_quanta, r.sim_quanta) << label;
  for (const auto& [key, group] : r.groups) {
    for (const auto& [field, f] : group.fields) {
      EXPECT_TRUE(f.min <= f.p50 && f.p50 <= f.p95 && f.p95 <= f.max)
          << label << " " << key << "." << field;
    }
  }
  std::ostringstream os;
  obs::print_trace_report(os, r);
  EXPECT_FALSE(os.str().empty()) << label;
}

// Deterministic mutation test of analyze_trace: every mutated trace ends
// in a consistent report with its malformed lines counted, never a crash
// or an exception. Run under ASan/UBSan via `ctest -L obs`.
TEST(ObsTraceReport, MutatedTracesEndInAConsistentReport) {
  const std::string base = record_short_trace();
  {
    std::istringstream in(base);
    const obs::TraceReport r = obs::analyze_trace(in);
    ASSERT_GT(r.total_events, 10u);
    ASSERT_EQ(r.malformed_lines, 0u);
  }
  for (std::uint64_t seed = 0; seed < 240; ++seed) {
    const Mutation m = mutate_trace(base, seed);
    const std::string label = "seed " + std::to_string(seed);
    std::istringstream in(m.text);
    const obs::TraceReport r = obs::analyze_trace(in);
    expect_consistent_report(r, m.text, label);
    if (m.malformed) {
      EXPECT_EQ(r.malformed_lines, *m.malformed) << label;
    }
  }

  const std::string huge(1 << 20, 'x');
  const struct {
    const char* label;
    std::string text;
    std::size_t malformed;
  } fixed[] = {
      {"1 MB name",
       base + "{\"cat\":\"big\",\"name\":\"" + huge +
           "\",\"t_wall_ms\":1}\n",
       0},
      {"1 MB junk line", "\n" + huge + "\n" + base, 1},
      {"1 MB of braces", std::string(1 << 20, '{') + "\n", 1},
      {"1 MB number",
       "{\"cat\":\"a\",\"name\":\"x\",\"t_wall_ms\":" +
           std::string(1 << 20, '9') + "}\n",
       1},
      {"empty file", "", 0},
  };
  for (const auto& c : fixed) {
    std::istringstream in(c.text);
    const obs::TraceReport r = obs::analyze_trace(in);
    expect_consistent_report(r, c.text, c.label);
    EXPECT_EQ(r.malformed_lines, c.malformed) << c.label;
  }
}

}  // namespace
}  // namespace dh
