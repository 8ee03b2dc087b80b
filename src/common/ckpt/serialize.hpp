// Binary serialization for checkpoint/restore snapshots.
//
// A Serializer appends fixed-width little-endian fields to a growing byte
// buffer; a Deserializer reads them back with bounds checking, throwing a
// descriptive dh::Error the moment a read would run past the payload (the
// signature of a truncated or mis-versioned snapshot). Doubles travel as
// their IEEE-754 bit patterns, so a save → restore round trip is
// bit-identical — the property the whole checkpoint layer is built on.
//
// Framing convention: every component's save_state() opens with a 4-byte
// section tag (see begin_section/expect_section). A tag mismatch on load
// turns a subtle field-misalignment bug into an immediate, named error.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"

namespace dh::ckpt {

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) of `data`, seeded per the
/// standard reflected algorithm. Used by the snapshot container to detect
/// corruption.
[[nodiscard]] std::uint32_t crc32(const std::uint8_t* data, std::size_t size);
[[nodiscard]] std::uint32_t crc32(const std::vector<std::uint8_t>& data);

class Serializer {
 public:
  void write_u8(std::uint8_t v);
  void write_u32(std::uint32_t v);
  void write_u64(std::uint64_t v);
  void write_i64(std::int64_t v);
  void write_bool(bool v);
  void write_f64(double v);
  void write_string(std::string_view s);
  void write_f64_vec(const std::vector<double>& v);
  void write_bool_vec(const std::vector<bool>& v);

  /// Open a component section with a 4-character tag (e.g. "CBTI").
  void begin_section(const char (&tag)[5]);

  [[nodiscard]] const std::vector<std::uint8_t>& buffer() const {
    return buf_;
  }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

 private:
  std::vector<std::uint8_t> buf_;
};

class Deserializer {
 public:
  explicit Deserializer(std::vector<std::uint8_t> data)
      : buf_(std::move(data)) {}

  [[nodiscard]] std::uint8_t read_u8();
  [[nodiscard]] std::uint32_t read_u32();
  [[nodiscard]] std::uint64_t read_u64();
  [[nodiscard]] std::int64_t read_i64();
  [[nodiscard]] bool read_bool();
  [[nodiscard]] double read_f64();
  [[nodiscard]] std::string read_string();
  [[nodiscard]] std::vector<double> read_f64_vec();
  [[nodiscard]] std::vector<bool> read_bool_vec();

  /// Consume and verify a section tag; dh::Error names both tags on
  /// mismatch.
  void expect_section(const char (&tag)[5]);

  [[nodiscard]] std::size_t remaining() const { return buf_.size() - pos_; }
  [[nodiscard]] bool exhausted() const { return pos_ == buf_.size(); }

 private:
  void need(std::size_t n, const char* what);

  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;
};

/// Serialize the engine behind dh::Rng exactly, in std::mt19937_64's text
/// format (see Mt19937_64's operator<<), so the restored stream continues
/// bit-identically and the text equals the standard engine's at the same
/// stream position.
void save_engine(Serializer& s, const Mt19937_64& engine);
void load_engine(Deserializer& d, Mt19937_64& engine);

}  // namespace dh::ckpt
