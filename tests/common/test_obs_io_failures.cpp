// The telemetry I/O paths under real failures: a trace sink on a full
// device must end in a dh::Error naming the path, never a crash or a
// silently lost event.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>

#include "common/error.hpp"
#include "common/obs/metrics.hpp"
#include "common/obs/trace.hpp"
#include "sched/system_sim.hpp"

namespace dh {
namespace {

namespace fs = std::filesystem;

constexpr const char* kFullDevice = "/dev/full";  // every write: ENOSPC

class ObsIoFailureTest : public testing::Test {
 protected:
  void TearDown() override { obs::set_trace_sink(nullptr); }
};

TEST_F(ObsIoFailureTest, TraceSinkOnFullDeviceThrowsAndCountsDrop) {
  if (!fs::exists(kFullDevice)) GTEST_SKIP() << kFullDevice << " is absent";
  const obs::Counter& drops = obs::registry().counter("trace.drop");
  const std::uint64_t before = drops.value();

  auto sink = std::make_unique<obs::JsonlTraceSink>(kFullDevice);
  const obs::TraceField fields[] = {{"worst_deg", 0.0123},
                                    {"recovery_cores", 4.0}};
  obs::TraceEvent e;
  e.category = "test";
  e.name = "event";
  e.fields = fields;
  e.field_count = 2;
  // The stream buffers ~8 KiB, so the first failing write comes after
  // about 80 of these ~100-byte lines.
  std::string message;
  for (int i = 0; i < 100000 && message.empty(); ++i) {
    try {
      sink->write(e);
    } catch (const Error& err) {
      message = err.what();
    }
  }
  ASSERT_FALSE(message.empty()) << "no write to " << kFullDevice << " failed";
  EXPECT_NE(message.find(kFullDevice), std::string::npos) << message;
  EXPECT_EQ(drops.value() - before, 1u);
  // The final flush fails too; the destructor counts it and must not throw.
  EXPECT_NO_THROW(sink.reset());
}

TEST_F(ObsIoFailureTest, SimulatorRunFailsLoudlyOnFullTraceDevice) {
  if (!fs::exists(kFullDevice)) GTEST_SKIP() << kFullDevice << " is absent";
  obs::set_trace_sink(std::make_unique<obs::JsonlTraceSink>(kFullDevice));
  sched::SystemParams p;
  p.rows = p.cols = 2;
  sched::SystemSimulator sim{p, sched::make_periodic_active_policy()};
  // One sim/quantum event per 6 h quantum: a year overflows the buffer
  // many times over.
  EXPECT_THROW(sim.run(days(365.0)), Error);
}

}  // namespace
}  // namespace dh
