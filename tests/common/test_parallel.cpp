#include "common/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace dh {
namespace {

TEST(ThreadPool, SerialPoolRunsEverythingInline) {
  ThreadPool pool{1};
  EXPECT_EQ(pool.thread_count(), 1u);
  std::vector<int> hits(100, 0);
  pool.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, EveryIndexRunsExactlyOnce) {
  ThreadPool pool{8};
  EXPECT_EQ(pool.thread_count(), 8u);
  std::vector<std::atomic<int>> hits(10000);
  pool.parallel_for(hits.size(), [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroAndOneElementJobs) {
  ThreadPool pool{4};
  int calls = 0;
  pool.parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.parallel_for(1, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, RepeatedJobsReuseWorkers) {
  ThreadPool pool{4};
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::size_t> sum{0};
    pool.parallel_for(64, [&](std::size_t i) {
      sum.fetch_add(i, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 64u * 63u / 2u);
  }
}

TEST(ThreadPool, ParallelMapOrdersResultsByIndex) {
  ThreadPool pool{8};
  const auto out = pool.parallel_map(
      1000, [](std::size_t i) { return static_cast<double>(i * i); });
  ASSERT_EQ(out.size(), 1000u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<double>(i * i));
  }
}

TEST(ThreadPool, ExceptionPropagatesToCaller) {
  ThreadPool pool{4};
  EXPECT_THROW(
      pool.parallel_for(100,
                        [&](std::size_t i) {
                          if (i == 37) throw Error{"boom at 37"};
                        }),
      Error);
  // The pool survives a failed job.
  std::atomic<int> ok{0};
  pool.parallel_for(8, [&](std::size_t) { ++ok; });
  EXPECT_EQ(ok.load(), 8);
}

TEST(ThreadPool, MapResultsIdenticalAcrossThreadCounts) {
  // The core determinism contract: a stochastic per-index task seeded by
  // Rng::stream gives bit-identical results at 1, 2, and 8 threads.
  const auto task = [](std::size_t i) {
    Rng r = Rng::stream(99, i);
    double acc = 0.0;
    for (int k = 0; k < 100; ++k) acc += r.normal(0.0, 1.0);
    return acc;
  };
  ThreadPool p1{1}, p2{2}, p8{8};
  const auto a = p1.parallel_map(500, task);
  const auto b = p2.parallel_map(500, task);
  const auto c = p8.parallel_map(500, task);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
}

TEST(ThreadPool, GlobalPoolIsConfigurable) {
  set_global_thread_count(3);
  EXPECT_EQ(global_thread_count(), 3u);
  std::atomic<int> n{0};
  parallel_for(10, [&](std::size_t) { ++n; });
  EXPECT_EQ(n.load(), 10);
  set_global_thread_count(0);  // back to default
  EXPECT_GE(global_thread_count(), 1u);
}

TEST(ThreadPool, DefaultThreadCountIsPositive) {
  EXPECT_GE(ThreadPool::default_thread_count(), 1u);
}

TEST(ThreadPool, DhThreadsAcceptsOnlyPlainDecimalsFromOneTo256) {
  // Only default_thread_count() is called: no pool is ever built from the
  // values under test.
  const char* saved = std::getenv("DH_THREADS");
  const bool was_set = saved != nullptr;
  const std::string restore = was_set ? saved : "";
  for (const auto& [value, expected] :
       {std::pair<const char*, std::size_t>{"1", 1}, {"4", 4}, {"256", 256},
        {"007", 7}}) {
    setenv("DH_THREADS", value, 1);
    EXPECT_EQ(ThreadPool::default_thread_count(), expected) << value;
  }
  setenv("DH_THREADS", "", 1);  // empty reads as unset
  EXPECT_GE(ThreadPool::default_thread_count(), 1u);
  for (const char* bad : {"-3", "abc", "4x", "0", "257", "+4", " 4", "4 ",
                          "0x10", "2.5", "99999999999999999999"}) {
    setenv("DH_THREADS", bad, 1);
    try {
      (void)ThreadPool::default_thread_count();
      ADD_FAILURE() << "DH_THREADS='" << bad << "' was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("DH_THREADS"), std::string::npos)
          << e.what();
    }
  }
  if (was_set) {
    setenv("DH_THREADS", restore.c_str(), 1);
  } else {
    unsetenv("DH_THREADS");
  }
}

}  // namespace
}  // namespace dh
