#include "sensors/health_monitor.hpp"

#include "common/error.hpp"
#include "common/obs/trace.hpp"

namespace dh::sensors {

HealthMonitor::HealthMonitor(HealthMonitorParams params) : params_(params) {
  DH_REQUIRE(params_.ewma_alpha > 0.0 && params_.ewma_alpha <= 1.0,
             "EWMA alpha must be in (0,1]");
  DH_REQUIRE(params_.clear < params_.trip,
             "hysteresis requires clear < trip");
}

double HealthMonitor::update(double reading) {
  if (readings_ == 0) {
    estimate_ = reading;
  } else {
    estimate_ = params_.ewma_alpha * reading +
                (1.0 - params_.ewma_alpha) * estimate_;
  }
  ++readings_;
  const bool was_alarm = alarm_;
  if (!alarm_ && estimate_ >= params_.trip) {
    alarm_ = true;
  } else if (alarm_ && estimate_ <= params_.clear) {
    alarm_ = false;
  }
  if (alarm_ != was_alarm && obs::trace_enabled()) {
    obs::trace_event("sensors", alarm_ ? "alarm_trip" : "alarm_clear",
                     {{"estimate", estimate_},
                      {"reading", reading},
                      {"threshold", alarm_ ? params_.trip : params_.clear}});
  }
  return estimate_;
}

void HealthMonitor::reset() {
  estimate_ = 0.0;
  alarm_ = false;
  readings_ = 0;
}

}  // namespace dh::sensors
