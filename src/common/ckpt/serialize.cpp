#include "common/ckpt/serialize.hpp"

#include <array>
#include <bit>
#include <cstring>
#include <sstream>

#include "common/error.hpp"

namespace dh::ckpt {

namespace {

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t size) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    c = table[(c ^ data[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

std::uint32_t crc32(const std::vector<std::uint8_t>& data) {
  return crc32(data.data(), data.size());
}

void Serializer::write_u8(std::uint8_t v) { buf_.push_back(v); }

void Serializer::write_u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void Serializer::write_u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void Serializer::write_i64(std::int64_t v) {
  write_u64(static_cast<std::uint64_t>(v));
}

void Serializer::write_bool(bool v) { write_u8(v ? 1 : 0); }

void Serializer::write_f64(double v) {
  write_u64(std::bit_cast<std::uint64_t>(v));
}

void Serializer::write_string(std::string_view s) {
  write_u64(s.size());
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void Serializer::write_f64_vec(const std::vector<double>& v) {
  write_u64(v.size());
  for (const double x : v) write_f64(x);
}

void Serializer::write_bool_vec(const std::vector<bool>& v) {
  write_u64(v.size());
  for (const bool b : v) write_u8(b ? 1 : 0);
}

void Serializer::begin_section(const char (&tag)[5]) {
  buf_.insert(buf_.end(), tag, tag + 4);
}

void Deserializer::need(std::size_t n, const char* what) {
  if (buf_.size() - pos_ < n) {
    throw Error("snapshot truncated: need " + std::to_string(n) +
                " byte(s) for " + what + " at offset " +
                std::to_string(pos_) + " but only " +
                std::to_string(buf_.size() - pos_) + " remain");
  }
}

std::uint8_t Deserializer::read_u8() {
  need(1, "u8");
  return buf_[pos_++];
}

std::uint32_t Deserializer::read_u32() {
  need(4, "u32");
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(buf_[pos_ + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  pos_ += 4;
  return v;
}

std::uint64_t Deserializer::read_u64() {
  need(8, "u64");
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(buf_[pos_ + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  pos_ += 8;
  return v;
}

std::int64_t Deserializer::read_i64() {
  return static_cast<std::int64_t>(read_u64());
}

bool Deserializer::read_bool() {
  const std::uint8_t v = read_u8();
  if (v > 1) {
    throw Error("snapshot corrupt: bool field holds " + std::to_string(v) +
                " at offset " + std::to_string(pos_ - 1));
  }
  return v != 0;
}

double Deserializer::read_f64() {
  return std::bit_cast<double>(read_u64());
}

std::string Deserializer::read_string() {
  const std::uint64_t n = read_u64();
  need(n, "string payload");
  std::string s(reinterpret_cast<const char*>(buf_.data() + pos_), n);
  pos_ += n;
  return s;
}

std::vector<double> Deserializer::read_f64_vec() {
  const std::uint64_t n = read_u64();
  need(n * 8, "f64 vector payload");
  std::vector<double> v;
  v.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) v.push_back(read_f64());
  return v;
}

std::vector<bool> Deserializer::read_bool_vec() {
  const std::uint64_t n = read_u64();
  need(n, "bool vector payload");
  std::vector<bool> v;
  v.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) v.push_back(read_u8() != 0);
  return v;
}

void Deserializer::expect_section(const char (&tag)[5]) {
  need(4, "section tag");
  const char* at = reinterpret_cast<const char*>(buf_.data() + pos_);
  if (std::memcmp(at, tag, 4) != 0) {
    throw Error(std::string("snapshot section mismatch at offset ") +
                std::to_string(pos_) + ": expected '" + tag + "', found '" +
                std::string(at, 4) + "' — snapshot layout does not match "
                "this build");
  }
  pos_ += 4;
}

void save_engine(Serializer& s, const Mt19937_64& engine) {
  std::ostringstream os;
  os << engine;
  s.write_string(os.str());
}

void load_engine(Deserializer& d, Mt19937_64& engine) {
  std::istringstream is(d.read_string());
  is >> engine;
  if (!is) {
    throw Error("snapshot corrupt: RNG engine state failed to parse");
  }
}

}  // namespace dh::ckpt
