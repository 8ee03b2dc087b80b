// Fault-injection registry unit tests: spec grammar, deterministic
// seed-driven decisions, injection caps, and the registry counters.
#include "common/fault/fault.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/obs/metrics.hpp"

namespace dh::fault {
namespace {

/// Every test starts and ends with a clean, disarmed registry so DH_FAULTS
/// leakage between tests (or from the environment) is impossible.
class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override { reset(); }
  void TearDown() override { reset(); }
};

TEST_F(FaultTest, ParseAcceptsWellFormedSpecs) {
  const auto specs =
      parse_fault_spec("sensor.outlier:0.5:2,sensor.nan:1:1");
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0].site, "sensor.outlier");
  EXPECT_DOUBLE_EQ(specs[0].probability, 0.5);
  EXPECT_EQ(specs[0].max_count, 2u);
  EXPECT_EQ(specs[1].site, "sensor.nan");
  EXPECT_DOUBLE_EQ(specs[1].probability, 1.0);
  EXPECT_EQ(specs[1].max_count, 1u);
}

TEST_F(FaultTest, ParseEmptyStringYieldsNothing) {
  EXPECT_TRUE(parse_fault_spec("").empty());
}

TEST_F(FaultTest, ParseRejectsMalformedClauses) {
  EXPECT_THROW((void)parse_fault_spec("no_colons"), Error);
  EXPECT_THROW((void)parse_fault_spec("one:colon"), Error);
  EXPECT_THROW((void)parse_fault_spec("too:many:colons:here"), Error);
  EXPECT_THROW((void)parse_fault_spec(":0.5:1"), Error);        // empty site
  EXPECT_THROW((void)parse_fault_spec("s:abc:1"), Error);       // bad prob
  EXPECT_THROW((void)parse_fault_spec("s:1.5:1"), Error);       // prob > 1
  EXPECT_THROW((void)parse_fault_spec("s:-0.1:1"), Error);      // prob < 0
  EXPECT_THROW((void)parse_fault_spec("s:0.5:zero"), Error);    // bad count
  EXPECT_THROW((void)parse_fault_spec("s:0.5:0"), Error);       // zero count
}

TEST_F(FaultTest, ParseErrorNamesTheOffendingClause) {
  try {
    (void)parse_fault_spec("good.site:1:1,bad clause");
    FAIL() << "expected dh::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("bad clause"), std::string::npos);
  }
}

TEST_F(FaultTest, UnarmedByDefaultAndAfterReset) {
  EXPECT_FALSE(armed());
  configure("s:1:1");
  EXPECT_TRUE(armed());
  reset();
  EXPECT_FALSE(armed());
  EXPECT_FALSE(should_inject("s"));
}

TEST_F(FaultTest, UnconfiguredSiteNeverInjects) {
  configure("some.other.site:1:100");
  for (int i = 0; i < 50; ++i) EXPECT_FALSE(should_inject("this.site"));
  EXPECT_EQ(injection_count("this.site"), 0u);
}

TEST_F(FaultTest, ProbabilityOneInjectsUpToCapExactly) {
  configure("s:1:3");
  int injected = 0;
  for (int i = 0; i < 10; ++i) injected += should_inject("s") ? 1 : 0;
  EXPECT_EQ(injected, 3);
  EXPECT_EQ(injection_count("s"), 3u);
}

TEST_F(FaultTest, ProbabilityZeroNeverInjects) {
  configure("s:0:100");
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(should_inject("s"));
  EXPECT_EQ(injection_count("s"), 0u);
}

TEST_F(FaultTest, DecisionsAreDeterministicInSeedAndAttempt) {
  const auto pattern = [](std::uint64_t seed) {
    configure("s:0.3:1000000");
    set_seed(seed);
    std::vector<bool> p;
    for (int i = 0; i < 200; ++i) p.push_back(should_inject("s"));
    return p;
  };
  const auto a = pattern(42);
  const auto b = pattern(42);
  EXPECT_EQ(a, b);  // same seed, same site, same attempts → same decisions
  int hits = 0;
  for (const bool v : a) hits += v ? 1 : 0;
  // prob 0.3 over 200 attempts: the exact count is deterministic; just
  // sanity-check it is neither "never" nor "always".
  EXPECT_GT(hits, 0);
  EXPECT_LT(hits, 200);
}

TEST_F(FaultTest, SitesAreIndependentStreams) {
  configure("a:0.5:1000,b:0.5:1000");
  std::vector<bool> pa;
  std::vector<bool> pb;
  for (int i = 0; i < 64; ++i) {
    pa.push_back(should_inject("a"));
    pb.push_back(should_inject("b"));
  }
  EXPECT_NE(pa, pb);  // 2^-64 collision odds with distinct site hashes
}

TEST_F(FaultTest, SetSeedResetsCounters) {
  configure("s:1:5");
  (void)should_inject("s");
  EXPECT_EQ(injection_count("s"), 1u);
  set_seed(7);
  EXPECT_EQ(injection_count("s"), 0u);
}

TEST_F(FaultTest, ConfiguredSitesListsActiveConfiguration) {
  configure("x:0.25:4,y:1:1");
  const auto sites = configured_sites();
  ASSERT_EQ(sites.size(), 2u);
  EXPECT_EQ(sites[0].site, "x");
  EXPECT_EQ(sites[1].site, "y");
}

TEST_F(FaultTest, InjectionTicksRegistryCounters) {
  obs::Counter& total = obs::registry().counter("fault.injected");
  obs::Counter& site = obs::registry().counter("fault.injected.ctr_site");
  const std::uint64_t total0 = total.value();
  const std::uint64_t site0 = site.value();
  configure("ctr_site:1:2");
  for (int i = 0; i < 5; ++i) (void)should_inject("ctr_site");
  EXPECT_EQ(total.value() - total0, 2u);
  EXPECT_EQ(site.value() - site0, 2u);
}

TEST_F(FaultTest, UntracedVariantStillCountsAndCaps) {
  configure("s:1:2");
  int injected = 0;
  for (int i = 0; i < 5; ++i) {
    injected += should_inject_untraced("s") ? 1 : 0;
  }
  EXPECT_EQ(injected, 2);
  EXPECT_EQ(injection_count("s"), 2u);
}

}  // namespace
}  // namespace dh::fault
