#include "common/obs/trace_report.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "common/obs/bench_io.hpp"
#include "common/obs/metrics.hpp"
#include "common/obs/trace.hpp"
#include "common/units.hpp"
#include "sched/policy.hpp"
#include "sched/system_sim.hpp"

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

class ObsBenchDirTest : public testing::Test {
 protected:
  void SetUp() override {
    const char* prev = std::getenv("DH_BENCH_DIR");
    if (prev != nullptr) prev_ = prev;
  }
  void TearDown() override {
    if (prev_.empty()) {
      ::unsetenv("DH_BENCH_DIR");
    } else {
      ::setenv("DH_BENCH_DIR", prev_.c_str(), 1);
    }
  }

 private:
  std::string prev_;
};

TEST_F(ObsBenchDirTest, UnsetEnvKeepsRelativeFilename) {
  ::unsetenv("DH_BENCH_DIR");
  EXPECT_EQ(obs::json_output_path("BENCH_x.json"), "BENCH_x.json");
}

TEST_F(ObsBenchDirTest, RoutesIntoDhBenchDirAndCreatesIt) {
  const std::string dir = testing::TempDir() + "dh_bench_dir_test/nested";
  ::setenv("DH_BENCH_DIR", dir.c_str(), 1);
  const std::string path = obs::json_output_path("BENCH_x.json");
  EXPECT_EQ(path, dir + "/BENCH_x.json");
  // The directory must exist afterwards — prove it by writing the file.
  std::ofstream out(path);
  out << "{}\n";
  ASSERT_TRUE(out.good());
}

TEST_F(ObsBenchDirTest, UncreatableDirThrows) {
  // /proc is not writable: create_directories must fail loudly.
  ::setenv("DH_BENCH_DIR", "/proc/dh_bench_dir_test", 1);
  EXPECT_THROW((void)obs::json_output_path("BENCH_x.json"), Error);
}

}  // namespace
}  // namespace dh
