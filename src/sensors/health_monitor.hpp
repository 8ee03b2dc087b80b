// Health monitor: fuses noisy sensor readings into a stable estimate with
// alarm hysteresis — the feedback element of the paper's Fig. 12b loop
// ("BTI/EM Sensing ... short intervals of BTI active recovery can then be
// inserted").
#pragma once

#include <cstddef>

#include "common/units.hpp"

namespace dh::sensors {

struct HealthMonitorParams {
  /// Exponential smoothing factor per reading in (0, 1]; 1 = no memory.
  double ewma_alpha = 0.25;
  /// Alarm trips when the smoothed estimate crosses `trip`, clears below
  /// `clear` (hysteresis so sensor noise cannot chatter the scheduler).
  double trip = 0.010;
  double clear = 0.004;
};

class HealthMonitor {
 public:
  explicit HealthMonitor(HealthMonitorParams params);

  /// Feed one raw reading (e.g. sensed dVth in volts, or EM life
  /// fraction); returns the smoothed estimate.
  double update(double reading);

  [[nodiscard]] double estimate() const { return estimate_; }
  [[nodiscard]] bool alarm() const { return alarm_; }

  void reset();

 private:
  HealthMonitorParams params_;
  double estimate_ = 0.0;
  bool alarm_ = false;
  std::size_t readings_ = 0;
};

}  // namespace dh::sensors
