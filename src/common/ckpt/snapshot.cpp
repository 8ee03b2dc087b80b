#include "common/ckpt/snapshot.hpp"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/ckpt/serialize.hpp"
#include "common/error.hpp"
#include "common/obs/trace.hpp"

namespace dh::ckpt {

namespace {

std::vector<std::uint8_t> read_all(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw Error("snapshot '" + path + "' cannot be opened for reading");
  }
  std::vector<std::uint8_t> data{std::istreambuf_iterator<char>(in),
                                 std::istreambuf_iterator<char>()};
  if (in.bad()) {
    throw Error("snapshot '" + path + "' failed mid-read (I/O error)");
  }
  return data;
}

struct SnapshotHeader {
  std::uint32_t version = 0;
  std::string kind;
  std::uint64_t payload_size = 0;
  std::uint32_t payload_crc = 0;
};

SnapshotHeader parse_header(const std::string& path,
                            const std::vector<std::uint8_t>& data,
                            std::size_t* payload_offset) {
  if (data.size() < 8 || std::memcmp(data.data(), kMagic, 4) != 0) {
    throw Error("snapshot '" + path +
                "' is not a deep-healing checkpoint (bad magic)");
  }
  SnapshotHeader h;
  Deserializer d{{data.begin() + 4, data.end()}};
  h.version = d.read_u32();
  if (h.version != kSchemaVersion) {
    throw Error("snapshot '" + path + "' has schema version " +
                std::to_string(h.version) + " but this build reads version " +
                std::to_string(kSchemaVersion) +
                " — re-create the checkpoint with a matching build");
  }
  h.kind = d.read_string();
  h.payload_size = d.read_u64();
  h.payload_crc = d.read_u32();
  *payload_offset = data.size() - d.remaining();
  if (d.remaining() < h.payload_size) {
    throw Error("snapshot '" + path + "' truncated: header promises " +
                std::to_string(h.payload_size) + " payload byte(s), file has " +
                std::to_string(d.remaining()));
  }
  return h;
}

}  // namespace

void write_snapshot(const std::string& path, const std::string& kind,
                    const std::vector<std::uint8_t>& payload) {
  Serializer header;
  header.begin_section("DHCK");
  header.write_u32(kSchemaVersion);
  header.write_string(kind);
  header.write_u64(payload.size());
  header.write_u32(crc32(payload));

  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw Error("checkpoint '" + path + "' cannot be written: failed to "
                  "open temp file '" + tmp + "'");
    }
    out.write(reinterpret_cast<const char*>(header.buffer().data()),
              static_cast<std::streamsize>(header.size()));
    out.write(reinterpret_cast<const char*>(payload.data()),
              static_cast<std::streamsize>(payload.size()));
    out.flush();
    if (!out) {
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      throw Error("checkpoint '" + path +
                  "' write failed (disk full or I/O error on temp file)");
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::error_code ec2;
    std::filesystem::remove(tmp, ec2);
    throw Error("checkpoint '" + path +
                "' rename from temp failed: " + ec.message());
  }
  if (obs::trace_enabled()) {
    obs::trace_event("ckpt", "write",
                     {{"bytes", static_cast<double>(payload.size())}});
  }
}

std::vector<std::uint8_t> read_snapshot(const std::string& path,
                                        const std::string& expected_kind) {
  const std::vector<std::uint8_t> data = read_all(path);
  std::size_t offset = 0;
  const SnapshotHeader h = parse_header(path, data, &offset);
  if (!expected_kind.empty() && h.kind != expected_kind) {
    throw Error("snapshot '" + path + "' holds a '" + h.kind +
                "' payload, expected '" + expected_kind + "'");
  }
  std::vector<std::uint8_t> payload{
      data.begin() + static_cast<std::ptrdiff_t>(offset),
      data.begin() + static_cast<std::ptrdiff_t>(offset + h.payload_size)};
  const std::uint32_t actual = crc32(payload);
  if (actual != h.payload_crc) {
    char want[16];
    char got[16];
    std::snprintf(want, sizeof(want), "%08x", h.payload_crc);
    std::snprintf(got, sizeof(got), "%08x", actual);
    throw Error("snapshot '" + path + "' corrupt: payload CRC " + got +
                " does not match stored CRC " + want);
  }
  return payload;
}

}  // namespace dh::ckpt
