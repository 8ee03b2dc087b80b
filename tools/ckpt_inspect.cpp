// ckpt_inspect: describe *.dhck snapshot files without loading them into
// a simulator — the debugging companion to the checkpoint layer.
//
//   ckpt_inspect <file.dhck> [more files...]
//
// For every file it prints the container header (kind, schema version,
// payload size, CRC status) and, for a system_sim snapshot, the leading
// payload fields: its configuration digest and step counter. Exit status
// is the number of files that failed validation, so the crash-recovery
// smoke test can assert "all snapshots healthy" with a single invocation.
#include <cstdio>
#include <exception>
#include <string>

#include "common/ckpt/serialize.hpp"
#include "common/ckpt/snapshot.hpp"
#include "common/error.hpp"

namespace {

using dh::ckpt::Deserializer;

void describe_system_sim(Deserializer& d) {
  d.expect_section("SSIM");
  const auto rows = d.read_u64();
  const auto cols = d.read_u64();
  const double quantum_s = d.read_f64();
  const auto seed = d.read_u64();
  const std::string policy = d.read_string();
  for (int i = 0; i < 4; ++i) (void)d.read_f64();  // accumulators
  const double guardband = d.read_f64();
  const double first_failure_s = d.read_f64();
  const auto steps = d.read_u64();
  const auto recovery_quanta = d.read_u64();
  std::printf("  grid            %llux%llu cores\n",
              static_cast<unsigned long long>(rows),
              static_cast<unsigned long long>(cols));
  std::printf("  quantum         %.0f s\n", quantum_s);
  std::printf("  seed            %llu\n",
              static_cast<unsigned long long>(seed));
  std::printf("  policy          %s\n", policy.c_str());
  std::printf("  steps           %llu (sim time %.1f days)\n",
              static_cast<unsigned long long>(steps),
              static_cast<double>(steps) * quantum_s / 86400.0);
  std::printf("  recovery_quanta %llu\n",
              static_cast<unsigned long long>(recovery_quanta));
  std::printf("  guardband       %.4f\n", guardband);
  if (first_failure_s >= 0.0) {
    std::printf("  first_failure   %.1f days\n", first_failure_s / 86400.0);
  }
}

/// Returns true when the file validated cleanly.
bool inspect(const std::string& path) {
  std::printf("%s\n", path.c_str());
  bool crc_ok = false;
  dh::ckpt::SnapshotHeader header;
  try {
    header = dh::ckpt::read_snapshot_header(path, &crc_ok);
  } catch (const dh::Error& e) {
    std::printf("  INVALID: %s\n\n", e.what());
    return false;
  }
  std::printf("  kind            %s\n", header.kind.c_str());
  std::printf("  schema version  %u\n", header.version);
  std::printf("  payload         %llu bytes, CRC %s\n",
              static_cast<unsigned long long>(header.payload_size),
              crc_ok ? "ok" : "MISMATCH");
  if (!crc_ok) {
    std::printf("\n");
    return false;
  }
  try {
    Deserializer d{dh::ckpt::read_snapshot(path)};
    if (header.kind == "system_sim") {
      describe_system_sim(d);
    }
  } catch (const std::exception& e) {
    std::printf("  PAYLOAD DECODE FAILED: %s\n\n", e.what());
    return false;
  }
  std::printf("\n");
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: ckpt_inspect <file.dhck> [more files...]\n"
                 "Prints snapshot headers and known-kind payload digests; "
                 "exit status = number of invalid files.\n");
    return 2;
  }
  int failures = 0;
  for (int i = 1; i < argc; ++i) {
    if (!inspect(argv[i])) ++failures;
  }
  return failures;
}
