// The telemetry I/O paths under real failures: a trace sink on a full
// device, and bench artifacts whose temp file or target path is taken by
// a directory. Each must end in a dh::Error naming the path, never a crash
// or a clobbered artifact.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "common/obs/bench_io.hpp"
#include "common/obs/metrics.hpp"
#include "common/obs/trace.hpp"
#include "sched/system_sim.hpp"

namespace dh {
namespace {

namespace fs = std::filesystem;

constexpr const char* kFullDevice = "/dev/full";  // every write: ENOSPC

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream content;
  content << in.rdbuf();
  return content.str();
}

class ObsIoFailureTest : public testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(testing::TempDir()) /
           ("dh_obs_io_" + std::string(testing::UnitTest::GetInstance()
                                           ->current_test_info()
                                           ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    obs::set_trace_sink(nullptr);
    fs::remove_all(dir_);
  }

  fs::path dir_;
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

TEST_F(ObsIoFailureTest, BenchWriteWithBlockedTempFileKeepsPublishedFile) {
  const fs::path path = dir_ / "BENCH_x.json";
  obs::write_file_atomic(path.string(), "{\"v\": 1}\n");
  fs::create_directory(path.string() + ".tmp");  // the open must fail

  try {
    obs::write_file_atomic(path.string(), "{\"v\": 2}\n");
    FAIL() << "expected dh::Error";
  } catch (const Error& err) {
    EXPECT_NE(std::string(err.what()).find(path.string()), std::string::npos)
        << err.what();
  }
  EXPECT_EQ(read_file(path), "{\"v\": 1}\n");
}

TEST_F(ObsIoFailureTest, BenchWriteOverDirectoryRemovesTempFile) {
  // The target itself is a non-empty directory: the temp file is written,
  // then the rename over the target fails and the temp file must go.
  const fs::path path = dir_ / "BENCH_x.json";
  fs::create_directory(path);
  const fs::path published = path / "published.json";
  obs::write_file_atomic(published.string(), "{\"v\": 1}\n");

  try {
    obs::write_file_atomic(path.string(), "{\"v\": 2}\n");
    FAIL() << "expected dh::Error";
  } catch (const Error& err) {
    EXPECT_NE(std::string(err.what()).find(path.string()), std::string::npos)
        << err.what();
  }
  EXPECT_FALSE(fs::exists(path.string() + ".tmp"));
  EXPECT_TRUE(fs::is_directory(path));
  EXPECT_EQ(read_file(published), "{\"v\": 1}\n");
}

}  // namespace
}  // namespace dh
