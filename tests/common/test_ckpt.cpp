// Checkpoint layer unit tests: byte-level serializer round trips, the
// CRC-32 reference vector, and the snapshot container's rejection
// matrix (bad magic, version skew, truncation, corruption, kind
// mismatch) — every failure mode must surface as a descriptive
// dh::Error, never as garbage state.
#include "common/ckpt/serialize.hpp"
#include "common/ckpt/snapshot.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace dh::ckpt {
namespace {

namespace fs = std::filesystem;

/// Fresh per-test scratch directory under the system temp dir.
class CkptTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("dh_ckpt_test_" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

TEST(Crc32, MatchesReferenceVector) {
  // The standard IEEE 802.3 check value for the ASCII digits "123456789".
  const std::string s = "123456789";
  EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t*>(s.data()), s.size()),
            0xCBF43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0x00000000u);
}

TEST(Serializer, RoundTripsEveryFieldType) {
  Serializer s;
  s.begin_section("TEST");
  s.write_u8(0xAB);
  s.write_u32(0xDEADBEEFu);
  s.write_u64(0x0123456789ABCDEFull);
  s.write_i64(-42);
  s.write_bool(true);
  s.write_bool(false);
  s.write_f64(-0.1);  // not exactly representable: bit pattern must survive
  s.write_string("hello snapshot");
  s.write_f64_vec({1.0, 2.5, -3.75});
  s.write_bool_vec({true, false, true, true});

  Deserializer d{s.take()};
  d.expect_section("TEST");
  EXPECT_EQ(d.read_u8(), 0xAB);
  EXPECT_EQ(d.read_u32(), 0xDEADBEEFu);
  EXPECT_EQ(d.read_u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(d.read_i64(), -42);
  EXPECT_TRUE(d.read_bool());
  EXPECT_FALSE(d.read_bool());
  EXPECT_EQ(d.read_f64(), -0.1);
  EXPECT_EQ(d.read_string(), "hello snapshot");
  EXPECT_EQ(d.read_f64_vec(), (std::vector<double>{1.0, 2.5, -3.75}));
  EXPECT_EQ(d.read_bool_vec(), (std::vector<bool>{true, false, true, true}));
  EXPECT_TRUE(d.exhausted());
}

TEST(Serializer, SectionMismatchNamesBothTags) {
  Serializer s;
  s.begin_section("AAAA");
  Deserializer d{s.take()};
  try {
    d.expect_section("BBBB");
    FAIL() << "expected dh::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("AAAA"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("BBBB"), std::string::npos);
  }
}

TEST(Serializer, ReadPastEndThrows) {
  Serializer s;
  s.write_u32(1);
  Deserializer d{s.take()};
  (void)d.read_u32();
  EXPECT_THROW((void)d.read_u64(), Error);
}

TEST(Serializer, EngineRoundTripContinuesBitIdentically) {
  Mt19937_64 a{12345};
  for (int i = 0; i < 1000; ++i) (void)a();  // advance mid-stream
  Serializer s;
  save_engine(s, a);
  Mt19937_64 b;  // different state on purpose
  Deserializer d{s.take()};
  load_engine(d, b);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

// The engine text is std::mt19937_64's, at four stream positions: fresh,
// inside the lazy first chunk, mid-block and exactly at a block boundary.
constexpr int kEnginePositions[] = {0, 5, 200, 312};

TEST(Serializer, EngineTextEqualsTheStdEngineAtTheSamePosition) {
  for (const int at : kEnginePositions) {
    Mt19937_64 ours{31337};
    std::mt19937_64 oracle{31337};
    for (int i = 0; i < at; ++i) {
      (void)ours();
      (void)oracle();
    }
    std::ostringstream want;
    want << oracle;
    Serializer s;
    save_engine(s, ours);
    Deserializer d{s.take()};
    EXPECT_EQ(d.read_string(), want.str()) << "position " << at;
    // Writing completes the lazy block on a copy: the engine is unchanged.
    for (int i = 0; i < 700; ++i) ASSERT_EQ(ours(), oracle());
  }
}

TEST(Serializer, StdEngineTextLoadsAndContinuesIdentically) {
  for (const int at : kEnginePositions) {
    std::mt19937_64 oracle{99};
    for (int i = 0; i < at; ++i) (void)oracle();
    std::ostringstream text;
    text << oracle;
    Serializer s;
    s.write_string(text.str());
    Mt19937_64 ours{1};
    Deserializer d{s.take()};
    load_engine(d, ours);
    for (int i = 0; i < 700; ++i) {
      ASSERT_EQ(ours(), oracle()) << "position " << at << ", draw " << i;
    }
  }
}

TEST(Serializer, EngineTextLoadsIntoTheStdEngineAndContinuesIdentically) {
  for (const int at : kEnginePositions) {
    Mt19937_64 ours{99};
    for (int i = 0; i < at; ++i) (void)ours();
    Serializer s;
    save_engine(s, ours);
    Deserializer d{s.take()};
    std::istringstream text(d.read_string());
    std::mt19937_64 oracle{1};
    text >> oracle;
    ASSERT_TRUE(text) << "position " << at;
    for (int i = 0; i < 700; ++i) {
      ASSERT_EQ(oracle(), ours()) << "position " << at << ", draw " << i;
    }
  }
}

TEST(Serializer, EngineTextWithAnIndexPastTheBlockIsCorrupt) {
  std::ostringstream text;
  text << std::mt19937_64{7};  // index 312
  std::string bad = text.str();
  bad.replace(bad.rfind(' ') + 1, std::string::npos, "313");
  Serializer s;
  s.write_string(bad);
  Mt19937_64 e{5};
  Deserializer d{s.take()};
  EXPECT_THROW(load_engine(d, e), Error);
  EXPECT_EQ(e(), Mt19937_64{5}());  // left unchanged
}

TEST_F(CkptTest, SnapshotRoundTrip) {
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5, 250, 251, 252};
  const std::string p = path("ok.dhck");
  write_snapshot(p, "unit_test", payload);
  EXPECT_EQ(read_snapshot(p, "unit_test"), payload);
  EXPECT_EQ(read_snapshot(p), payload);  // kind check optional
  // Atomicity: no temp file left behind.
  EXPECT_FALSE(fs::exists(p + ".tmp"));

  // The documented layout opens with the magic and the schema version.
  std::ifstream in(p, std::ios::binary);
  char magic[4] = {};
  std::uint32_t version = 0;
  in.read(magic, 4);
  in.read(reinterpret_cast<char*>(&version), 4);
  EXPECT_EQ(std::string(magic, 4), std::string(kMagic, 4));
  EXPECT_EQ(version, kSchemaVersion);
}

TEST_F(CkptTest, EmptyPayloadIsValid) {
  const std::string p = path("empty.dhck");
  write_snapshot(p, "unit_test", {});
  EXPECT_TRUE(read_snapshot(p, "unit_test").empty());
}

TEST_F(CkptTest, OverwriteReplacesAtomically) {
  const std::string p = path("ow.dhck");
  write_snapshot(p, "unit_test", {1, 1, 1});
  write_snapshot(p, "unit_test", {2, 2});
  EXPECT_EQ(read_snapshot(p, "unit_test"),
            (std::vector<std::uint8_t>{2, 2}));
}

TEST_F(CkptTest, BlockedTempFileKeepsPublishedSnapshot) {
  const std::string p = path("blocked.dhck");
  write_snapshot(p, "unit_test", {1, 1, 1});
  fs::create_directory(p + ".tmp");  // the temp file's open must fail
  try {
    write_snapshot(p, "unit_test", {2, 2});
    FAIL() << "expected dh::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(p), std::string::npos) << e.what();
  }
  EXPECT_EQ(read_snapshot(p, "unit_test"),
            (std::vector<std::uint8_t>{1, 1, 1}));
}

TEST_F(CkptTest, RenameOverDirectoryRemovesTempFile) {
  // The target is a non-empty directory: the temp file is written, the
  // rename over the target fails, and the temp file must go.
  const std::string p = path("dir.dhck");
  fs::create_directory(p);
  const std::string published = (fs::path(p) / "published.dhck").string();
  write_snapshot(published, "unit_test", {1, 1, 1});
  try {
    write_snapshot(p, "unit_test", {2, 2});
    FAIL() << "expected dh::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(p), std::string::npos) << e.what();
  }
  EXPECT_FALSE(fs::exists(p + ".tmp"));
  EXPECT_TRUE(fs::is_directory(p));
  EXPECT_EQ(read_snapshot(published, "unit_test"),
            (std::vector<std::uint8_t>{1, 1, 1}));
}

TEST_F(CkptTest, MissingFileRejectedWithPath) {
  const std::string p = path("nope.dhck");
  try {
    (void)read_snapshot(p);
    FAIL() << "expected dh::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(p), std::string::npos);
  }
}

TEST_F(CkptTest, ForeignFileRejectedAsBadMagic) {
  const std::string p = path("foreign.dhck");
  std::ofstream(p) << "{\"this\": \"is json, not a snapshot\"}";
  try {
    (void)read_snapshot(p);
    FAIL() << "expected dh::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos);
  }
}

TEST_F(CkptTest, VersionSkewNamesBothVersions) {
  // A newer build's snapshot and one from the previous schema (v3 files
  // still carry the PDN refinement-iteration count) are both refused.
  for (const std::uint32_t skewed :
       {kSchemaVersion + 41, kSchemaVersion - 1}) {
    const std::string p = path("skew.dhck");
    write_snapshot(p, "unit_test", {1, 2, 3});
    // Overwrite the on-disk schema version field (bytes 4..7,
    // little-endian).
    std::fstream f(p, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(4);
    f.write(reinterpret_cast<const char*>(&skewed), 4);
    f.close();
    try {
      (void)read_snapshot(p);
      FAIL() << "expected dh::Error";
    } catch (const Error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("version " + std::to_string(kSchemaVersion)),
                std::string::npos);
      EXPECT_NE(msg.find("version " + std::to_string(skewed)),
                std::string::npos);
    }
  }
}

TEST_F(CkptTest, CorruptedPayloadRejectedByCrc) {
  const std::string p = path("corrupt.dhck");
  write_snapshot(p, "unit_test", {10, 20, 30, 40, 50});
  // Flip one bit in the last payload byte.
  std::fstream f(p, std::ios::in | std::ios::out | std::ios::binary);
  f.seekg(0, std::ios::end);
  const auto end = f.tellg();
  f.seekg(static_cast<std::streamoff>(end) - 1);
  char c = 0;
  f.read(&c, 1);
  f.seekp(static_cast<std::streamoff>(end) - 1);
  c = static_cast<char>(c ^ 0x01);
  f.write(&c, 1);
  f.close();
  try {
    (void)read_snapshot(p);
    FAIL() << "expected dh::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("CRC"), std::string::npos);
  }
}

TEST_F(CkptTest, TruncatedFileRejected) {
  const std::string p = path("trunc.dhck");
  write_snapshot(p, "unit_test", std::vector<std::uint8_t>(64, 7));
  const auto full = fs::file_size(p);
  fs::resize_file(p, full - 10);
  try {
    (void)read_snapshot(p);
    FAIL() << "expected dh::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
        << e.what();
  }
  // Even a header-only stub must be rejected cleanly.
  fs::resize_file(p, 6);
  EXPECT_THROW((void)read_snapshot(p), Error);
}

TEST_F(CkptTest, KindMismatchNamesBothKinds) {
  const std::string p = path("kind.dhck");
  write_snapshot(p, "system_sim", {1});
  try {
    (void)read_snapshot(p, "other_kind");
    FAIL() << "expected dh::Error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("system_sim"), std::string::npos);
    EXPECT_NE(msg.find("other_kind"), std::string::npos);
  }
}

TEST_F(CkptTest, RandomPayloadFuzzRoundTrip) {
  std::mt19937_64 rng{99};
  for (int iter = 0; iter < 20; ++iter) {
    std::vector<std::uint8_t> payload(
        static_cast<std::size_t>(rng() % 4096));
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng());
    const std::string p = path("fuzz.dhck");
    write_snapshot(p, "fuzz", payload);
    EXPECT_EQ(read_snapshot(p, "fuzz"), payload);
  }
}

}  // namespace
}  // namespace dh::ckpt
