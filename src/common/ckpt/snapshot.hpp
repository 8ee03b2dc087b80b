// Versioned snapshot container for checkpoint files (*.dhck).
//
// File layout (all integers little-endian):
//   bytes 0-3   magic "DHCK"
//   bytes 4-7   u32 schema version (kSchemaVersion)
//
//   u64 kind length + kind bytes   what the payload holds ("system_sim")
//   u64 payload length
//   u32 CRC-32 of the payload
//   payload bytes
//
// write_snapshot is atomic: the file is written to "<path>.tmp" and
// renamed into place, so a reader never sees a half-written snapshot and
// a crash mid-write leaves any previous snapshot intact. read_snapshot
// rejects missing/foreign/truncated/corrupted/version-skewed files with a
// descriptive dh::Error naming the failure, the path, and (for version
// skew) both versions.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace dh::ckpt {

/// 5: the simulator section (SSIM) holds the invariant-violation counts
/// after the recovery-quanta count; older files are refused.
inline constexpr std::uint32_t kSchemaVersion = 5;
inline constexpr char kMagic[4] = {'D', 'H', 'C', 'K'};

/// Write `payload` to `path` atomically (temp file + rename). Throws
/// dh::Error when the directory/file cannot be written. Emits a
/// `ckpt/write` trace event.
void write_snapshot(const std::string& path, const std::string& kind,
                    const std::vector<std::uint8_t>& payload);

/// Read and fully validate a snapshot. `expected_kind` (when non-empty)
/// must match the stored kind. Throws dh::Error on any validation
/// failure; never returns a partially-checked payload.
[[nodiscard]] std::vector<std::uint8_t> read_snapshot(
    const std::string& path, const std::string& expected_kind = "");

}  // namespace dh::ckpt
