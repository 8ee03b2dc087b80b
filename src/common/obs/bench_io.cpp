#include "common/obs/bench_io.hpp"

#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "common/error.hpp"

namespace dh::obs {

std::string json_output_path(const std::string& filename) {
  DH_REQUIRE(!filename.empty(), "bench output filename must not be empty");
  const char* dir = std::getenv("DH_BENCH_DIR");
  if (dir == nullptr || dir[0] == '\0') return filename;
  const std::filesystem::path base{dir};
  std::error_code ec;
  std::filesystem::create_directories(base, ec);
  if (ec) {
    throw Error("DH_BENCH_DIR='" + std::string(dir) +
                "' cannot be created: " + ec.message());
  }
  return (base / filename).string();
}

void write_file_atomic(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw Error("cannot open '" + tmp + "' for writing");
    }
    out.write(content.data(),
              static_cast<std::streamsize>(content.size()));
    out.flush();
    if (!out) {
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      throw Error("write to '" + tmp +
                  "' failed (disk full or I/O error)");
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::error_code ec2;
    std::filesystem::remove(tmp, ec2);
    throw Error("atomic rename of '" + tmp + "' over '" + path +
                "' failed: " + ec.message());
  }
}

}  // namespace dh::obs
