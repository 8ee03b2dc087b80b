// Scoped wall-time profiling: DH_PROF_SCOPE("label") aggregates the
// elapsed wall time of the enclosing block into the registry histogram
// "prof.<label>" (milliseconds). The histogram lookup happens once per
// call site (function-local static); each execution costs two steady-clock
// reads plus one histogram observe.
#pragma once

#include <chrono>

#include "common/obs/metrics.hpp"

namespace dh::obs {

class ProfScope {
 public:
  explicit ProfScope(Histogram& hist) noexcept
      : hist_(hist), t0_(std::chrono::steady_clock::now()) {}
  ~ProfScope() {
    hist_.observe(std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - t0_)
                      .count());
  }
  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  Histogram& hist_;
  std::chrono::steady_clock::time_point t0_;
};

}  // namespace dh::obs

#define DH_PROF_CONCAT_INNER(a, b) a##b
#define DH_PROF_CONCAT(a, b) DH_PROF_CONCAT_INNER(a, b)

/// Aggregate the wall time of the enclosing scope into the registry
/// histogram "prof.<label>" (label must be a string literal).
#define DH_PROF_SCOPE(label)                                              \
  static ::dh::obs::Histogram& DH_PROF_CONCAT(dh_prof_hist_, __LINE__) =  \
      ::dh::obs::registry().histogram("prof." label, "ms");               \
  ::dh::obs::ProfScope DH_PROF_CONCAT(dh_prof_scope_, __LINE__) {         \
    DH_PROF_CONCAT(dh_prof_hist_, __LINE__)                               \
  }
