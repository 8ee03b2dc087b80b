// Output routing for benchmark artifacts (BENCH_*.json). Benches used to
// write relative to whatever the working directory happened to be; every
// writer now goes through json_output_path(), which honors DH_BENCH_DIR
// so results land in one predictable place.
#pragma once

#include <string>

namespace dh::obs {

/// Where a bench artifact named `filename` (e.g. "BENCH_sparse.json") should
/// be written: "$DH_BENCH_DIR/<filename>" when DH_BENCH_DIR is set (the
/// directory is created if missing; dh::Error if that fails), else
/// `filename` in the current working directory.
[[nodiscard]] std::string json_output_path(const std::string& filename);

/// Write `content` to `path` atomically: bytes go to "<path>.tmp", which
/// is renamed over `path` only after a successful flush — a crash or
/// ENOSPC mid-write can truncate only the temp file, never a previously
/// published artifact. Throws dh::Error naming the path on any failure.
void write_file_atomic(const std::string& path, const std::string& content);

}  // namespace dh::obs
