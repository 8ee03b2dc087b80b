// End-to-end fault-injection tests: every production fault site must be
// observable degrading gracefully — a recoverable fallback with a correct
// answer, or a structured dh::Error — never a crash or silent garbage.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "common/fault/fault.hpp"
#include "common/obs/bench_io.hpp"
#include "common/obs/metrics.hpp"
#include "common/obs/trace.hpp"
#include "sched/system_sim.hpp"

namespace dh {
namespace {

namespace fs = std::filesystem;

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::reset();
    dir_ = fs::temp_directory_path() /
           ("dh_fault_test_" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    fault::reset();
    fs::remove_all(dir_);
  }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

TEST_F(FaultInjectionTest, SensorFaultsDegradeToLastGoodReading) {
  obs::Counter& rejected = obs::registry().counter("sensor.rejected");
  const std::uint64_t before = rejected.value();

  fault::configure("sensor.nan:0.2:50,sensor.outlier:0.2:50");
  sched::SystemParams p;
  p.rows = p.cols = 2;
  p.seed = 5;
  sched::SystemSimulator sim{p, sched::make_adaptive_sensor_policy(
                                    {.threshold = Volts{0.004},
                                     .release = Volts{0.002},
                                     .em_recovery_duty = 0.2})};
  sim.run(days(30.0));

  EXPECT_GE(fault::injection_count("sensor.nan") +
                fault::injection_count("sensor.outlier"),
            1u);
  EXPECT_EQ(rejected.value() - before,
            fault::injection_count("sensor.nan") +
                fault::injection_count("sensor.outlier"));
  const auto s = sim.summary();
  EXPECT_TRUE(std::isfinite(s.guardband_fraction));
  EXPECT_TRUE(std::isfinite(s.availability));
  EXPECT_TRUE(std::isfinite(s.energy_joules));
  EXPECT_GE(s.guardband_fraction, 0.0);
}

TEST_F(FaultInjectionTest, SensorProbesDoNotPerturbFaultFreeRuns) {
  const auto run_summary = [] {
    sched::SystemParams p;
    p.rows = p.cols = 2;
    p.seed = 6;
    sched::SystemSimulator sim{p, sched::make_periodic_active_policy()};
    sim.run(days(20.0));
    return sim.summary();
  };
  fault::reset();  // disarmed
  const auto a = run_summary();
  fault::configure("some.unrelated.site:1:1");  // armed, different site
  const auto b = run_summary();
  EXPECT_EQ(a.guardband_fraction, b.guardband_fraction);
  EXPECT_EQ(a.energy_joules, b.energy_joules);
  EXPECT_EQ(a.recovery_quanta, b.recovery_quanta);
}

TEST_F(FaultInjectionTest, TraceWriteFaultSurfacesAsErrorAndCountsDrop) {
  obs::Counter& drops = obs::registry().counter("trace.drop");
  const std::uint64_t before = drops.value();

  obs::JsonlTraceSink sink{path("trace.jsonl")};
  obs::TraceEvent e;
  e.category = "test";
  e.name = "event";

  fault::configure("io.trace_write:1:1");
  try {
    sink.write(e);
    FAIL() << "expected dh::Error";
  } catch (const Error& err) {
    const std::string msg = err.what();
    EXPECT_NE(msg.find("injected"), std::string::npos);
    EXPECT_NE(msg.find("trace.jsonl"), std::string::npos);
  }
  EXPECT_EQ(drops.value() - before, 1u);

  // Cap reached: the sink keeps working afterwards.
  sink.write(e);
  sink.flush();
  std::ifstream in(path("trace.jsonl"));
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_NE(line.find("\"cat\":\"test\""), std::string::npos);
}

TEST_F(FaultInjectionTest, BenchWriteFaultNeverClobbersPublishedFile) {
  const std::string p = path("BENCH_x.json");
  obs::write_file_atomic(p, "{\"v\": 1}\n");

  fault::configure("io.bench_write:1:1");
  try {
    obs::write_file_atomic(p, "{\"v\": 2}\n");
    FAIL() << "expected dh::Error";
  } catch (const Error& err) {
    EXPECT_NE(std::string(err.what()).find("BENCH_x.json"),
              std::string::npos);
  }
  // The previously published artifact is intact — atomicity held.
  std::ifstream in(p);
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_EQ(content.str(), "{\"v\": 1}\n");
  EXPECT_FALSE(fs::exists(p + ".tmp"));

  // Cap reached: the next write goes through.
  obs::write_file_atomic(p, "{\"v\": 3}\n");
  std::ifstream in2(p);
  std::stringstream content2;
  content2 << in2.rdbuf();
  EXPECT_EQ(content2.str(), "{\"v\": 3}\n");
}

}  // namespace
}  // namespace dh
