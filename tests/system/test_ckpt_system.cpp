// Checkpoint/restore property tests at the system level: save → restore
// → run(T') must be bit-identical to an uninterrupted run(T+T') at 1, 4,
// and 8 threads, and any snapshot that does not match this
// build/configuration must be refused with a descriptive dh::Error before
// state is touched.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "common/ckpt/serialize.hpp"
#include "common/ckpt/snapshot.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "sched/system_sim.hpp"

namespace dh::sched {
namespace {

namespace fs = std::filesystem;

SystemParams small_chip(std::uint64_t seed = 7) {
  SystemParams p;
  p.rows = 2;
  p.cols = 2;
  p.quantum = hours(6.0);
  p.seed = seed;
  return p;
}

/// The adaptive policy carries per-core hysteresis state, so it exercises
/// the policy save/load path (the scheduled policies are stateless).
std::unique_ptr<RecoveryPolicy> adaptive() {
  return make_adaptive_sensor_policy({.threshold = Volts{0.004},
                                      .release = Volts{0.002},
                                      .em_recovery_duty = 0.2});
}

void expect_bit_identical(const SystemSummary& a, const SystemSummary& b) {
  EXPECT_EQ(a.guardband_fraction, b.guardband_fraction);
  EXPECT_EQ(a.final_degradation, b.final_degradation);
  EXPECT_EQ(a.time_to_failure.value(), b.time_to_failure.value());
  EXPECT_EQ(a.mean_throughput, b.mean_throughput);
  EXPECT_EQ(a.availability, b.availability);
  EXPECT_EQ(a.energy_joules, b.energy_joules);
  EXPECT_EQ(a.mean_temperature_c, b.mean_temperature_c);
  EXPECT_EQ(a.recovery_quanta, b.recovery_quanta);
  EXPECT_EQ(a.invariant_violations.ir_drop, b.invariant_violations.ir_drop);
  EXPECT_EQ(a.invariant_violations.unpowered_core,
            b.invariant_violations.unpowered_core);
  EXPECT_EQ(a.invariant_violations.current_density,
            b.invariant_violations.current_density);
  EXPECT_EQ(a.pdn_stats.worst_drop_v, b.pdn_stats.worst_drop_v);
  EXPECT_EQ(a.pdn_stats.max_void_len_m, b.pdn_stats.max_void_len_m);
  EXPECT_EQ(a.pdn_stats.nucleated_segments, b.pdn_stats.nucleated_segments);
  EXPECT_EQ(a.pdn_stats.broken_segments, b.pdn_stats.broken_segments);
}

void expect_traces_identical(const SystemSimulator& a,
                             const SystemSimulator& b) {
  ASSERT_EQ(a.degradation_trace().size(), b.degradation_trace().size());
  for (std::size_t i = 0; i < a.degradation_trace().size(); ++i) {
    EXPECT_EQ(a.degradation_trace().time_at(i).value(),
              b.degradation_trace().time_at(i).value());
  }
  EXPECT_EQ(a.degradation_trace().raw_values(),
            b.degradation_trace().raw_values());
  EXPECT_EQ(a.ir_drop_trace().raw_values(), b.ir_drop_trace().raw_values());
  EXPECT_EQ(a.temperature_trace().raw_values(),
            b.temperature_trace().raw_values());
}

/// Scratch directory fixture (same pattern as tests/common/test_ckpt.cpp).
class CkptSystemTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("dh_ckpt_sys_" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    set_global_thread_count(0);  // back to the default pool
    fs::remove_all(dir_);
  }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

TEST_F(CkptSystemTest, ResumeIsBitIdenticalAcrossThreadCounts) {
  for (const std::size_t threads : {1u, 4u, 8u}) {
    set_global_thread_count(threads);

    SystemSimulator reference{small_chip(), adaptive()};
    reference.run(days(60.0));

    SystemSimulator first_half{small_chip(), adaptive()};
    first_half.run(days(30.0));
    ckpt::Serializer s;
    first_half.save_state(s);

    SystemSimulator resumed{small_chip(), adaptive()};
    ckpt::Deserializer d{s.take()};
    resumed.load_state(d);
    EXPECT_TRUE(d.exhausted());
    EXPECT_EQ(resumed.now().value(), first_half.now().value());
    resumed.run(days(60.0));

    expect_bit_identical(reference.summary(), resumed.summary());
    expect_traces_identical(reference, resumed);
  }
}

TEST_F(CkptSystemTest, CheckpointFileRoundTrip) {
  SystemSimulator reference{small_chip(), adaptive()};
  reference.run(days(40.0));

  SystemSimulator first_half{small_chip(), adaptive()};
  first_half.run(days(20.0));
  first_half.save_checkpoint(path("half.dhck"));

  SystemSimulator resumed{small_chip(), adaptive()};
  resumed.load_checkpoint(path("half.dhck"));
  resumed.run(days(40.0));
  expect_bit_identical(reference.summary(), resumed.summary());
  expect_traces_identical(reference, resumed);
}

TEST_F(CkptSystemTest, ForeignConfigurationRefused) {
  SystemSimulator sim{small_chip(), adaptive()};
  sim.run(days(10.0));
  sim.save_checkpoint(path("c.dhck"));

  SystemParams other = small_chip();
  other.rows = 3;
  other.cols = 3;
  SystemSimulator victim{other, adaptive()};
  try {
    victim.load_checkpoint(path("c.dhck"));
    FAIL() << "expected dh::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("different simulator configuration"),
              std::string::npos);
  }
}

TEST_F(CkptSystemTest, DifferentSeedRefused) {
  SystemSimulator sim{small_chip(7), adaptive()};
  sim.run(days(10.0));
  sim.save_checkpoint(path("c.dhck"));
  SystemSimulator victim{small_chip(8), adaptive()};
  EXPECT_THROW(victim.load_checkpoint(path("c.dhck")), Error);
}

TEST_F(CkptSystemTest, TrailingBytesRefused) {
  SystemSimulator sim{small_chip(), adaptive()};
  sim.run(days(10.0));
  ckpt::Serializer s;
  sim.save_state(s);
  auto payload = s.take();
  payload.push_back(0xFF);  // one byte past the simulator state
  ckpt::write_snapshot(path("c.dhck"), "system_sim", payload);
  SystemSimulator victim{small_chip(), adaptive()};
  try {
    victim.load_checkpoint(path("c.dhck"));
    FAIL() << "expected dh::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("trailing"), std::string::npos);
  }
}

}  // namespace
}  // namespace dh::sched
