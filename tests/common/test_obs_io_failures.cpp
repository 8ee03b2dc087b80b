// The telemetry I/O paths under real failures: a trace sink on a full
// device, or on a path it cannot open, must end in a dh::Error naming the
// path, never a crash or a silently lost event.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>

#include "common/error.hpp"
#include "common/obs/metrics.hpp"
#include "common/obs/trace.hpp"
#include "common/rng.hpp"
#include "sched/system_sim.hpp"
#include "support/test_support.hpp"

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

// One seeded sink path (a DH_TRACE value) under `root`; `seed % 7` picks
// the kind. Every kind but the last can never be opened.
struct SinkPath {
  std::string path;
  bool must_fail;
};

SinkPath mutate_sink_path(const std::string& root, std::uint64_t seed) {
  Rng rng = Rng::stream(0x5A7B, seed);
  const auto letters = [&rng](std::size_t n) {
    std::string s(n, 'a');
    for (char& c : s) {
      c = static_cast<char>('a' + test::uniform_int(rng, 0, 25));
    }
    return s;
  };
  switch (seed % 7) {
    case 0:
      return {"", true};
    case 1:  // an existing directory, with or without its trailing '/'
      return {rng.bernoulli(0.5) ? root + "/sub" : root + "/sub/", true};
    case 2:  // one or more missing parent directories
      return {root + "/" + letters(8) + "/" +
                  (rng.bernoulli(0.5) ? letters(4) + "/" : "") +
                  "trace.jsonl",
              true};
    case 3:  // a file name with a trailing '/'
      return {root + "/sub/" + letters(6) + ".jsonl/", true};
    case 4:  // a 4 KiB name (NAME_MAX is 255 on Linux)
      return {root + "/sub/" + letters(4096), true};
    case 5: {  // a NUL byte, which the OS would cut the path at
      std::string path = root + "/sub/" + letters(8) + ".jsonl";
      path.insert(root.size() + 1 + static_cast<std::size_t>(
                                        test::uniform_int(rng, 0, 12)),
                  1, '\0');
      return {path, true};
    }
    default: {  // 1-3 bytes flipped in the file name of a valid path
      std::string name = "trace_" + letters(6) + ".jsonl";
      for (int k = test::uniform_int(rng, 1, 3); k > 0; --k) {
        const auto i = static_cast<std::size_t>(
            test::uniform_int(rng, 0, static_cast<int>(name.size()) - 1));
        name[i] = static_cast<char>(name[i] ^ test::uniform_int(rng, 1, 255));
      }
      return {root + "/sub/" + name, false};
    }
  }
}

// Seeded mutation test of JsonlTraceSink's path argument: each path ends
// in a sink that writes its event to that very file, or in a dh::Error
// naming the trace sink. Flipped bytes can make a '/', a NUL or a ".."
// out of the file name, so the files all stay under `root`.
TEST_F(ObsIoFailureTest, MutatedSinkPathsEndInAWorkingSinkOrANamedError) {
  const fs::path root =
      fs::path(testing::TempDir()) / "dh_obs_sink_paths";
  fs::remove_all(root);
  fs::create_directories(root / "sub");
  const obs::TraceField field{"v", 1.0};
  obs::TraceEvent e;
  e.category = "test";
  e.name = "path";
  e.fields = &field;
  e.field_count = 1;
  int opened = 0;
  for (std::uint64_t seed = 0; seed < 140; ++seed) {
    const SinkPath c = mutate_sink_path(root.string(), seed);
    const std::string label = "seed " + std::to_string(seed);
    try {
      auto sink = std::make_unique<obs::JsonlTraceSink>(c.path);
      sink->write(e);
      sink.reset();
      ++opened;
      EXPECT_FALSE(c.must_fail) << label;
      EXPECT_EQ(c.path.find('\0'), std::string::npos) << label;
      std::ifstream in(c.path);
      std::string line;
      EXPECT_TRUE(std::getline(in, line)) << label;
      EXPECT_NE(line.find("\"name\":\"path\""), std::string::npos) << label;
    } catch (const Error& err) {
      EXPECT_NE(std::string(err.what()).find("trace sink"), std::string::npos)
          << label;
    }
  }
  EXPECT_GT(opened, 0);
  fs::remove_all(root);
}

}  // namespace
}  // namespace dh
