#include "sensors/em_canary.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/obs/trace.hpp"

namespace dh::sensors {

EmCanaryBank::EmCanaryBank(EmCanaryParams params)
    : params_(std::move(params)) {
  DH_REQUIRE(!params_.width_scales.empty(), "canary bank cannot be empty");
  DH_REQUIRE(std::is_sorted(params_.width_scales.begin(),
                            params_.width_scales.end()),
             "width scales must be ascending (narrowest canary first)");
  for (const double w : params_.width_scales) {
    DH_REQUIRE(w > 0.0 && w <= 1.0,
               "canary width scale must be in (0, 1]");
    em::CompactEmParams p;
    p.wire = params_.mission_wire;
    p.wire.width = Meters{params_.mission_wire.width.value() * w};
    p.material = params_.material;
    canaries_.emplace_back(p);
  }
}

void EmCanaryBank::step(AmpsPerM2 mission_density, Celsius temperature,
                        Seconds dt) {
  const std::size_t tripped_before = tripped();
  for (std::size_t i = 0; i < canaries_.size(); ++i) {
    // Same current forced through the narrower cross-section.
    const double scale = 1.0 / params_.width_scales[i];
    canaries_[i].step(AmpsPerM2{mission_density.value() * scale},
                      temperature, dt);
  }
  const std::size_t tripped_now = tripped();
  if (tripped_now > tripped_before && obs::trace_enabled()) {
    obs::trace_event(
        "sensors", "canary_trip",
        {{"tripped", static_cast<double>(tripped_now)},
         {"bank_size", static_cast<double>(canaries_.size())},
         {"life_consumed", estimated_life_consumed()}});
  }
}

std::size_t EmCanaryBank::tripped() const {
  std::size_t n = 0;
  for (const auto& c : canaries_) {
    if (c.void_open() || c.broken() || c.void_length().value() > 0.0) ++n;
  }
  return n;
}

double EmCanaryBank::estimated_life_consumed() const {
  // The widest *tripped* canary bounds life-consumed from below; the
  // narrowest *untripped* canary bounds it from above. Report the
  // midpoint of the bracket.
  double lower = 0.0;
  double upper = 1.0;
  for (std::size_t i = 0; i < canaries_.size(); ++i) {
    const double frac =
        params_.width_scales[i] * params_.width_scales[i];
    const bool hit = canaries_[i].void_open() || canaries_[i].broken() ||
                     canaries_[i].void_length().value() > 0.0;
    if (hit) {
      lower = std::max(lower, frac);
    } else {
      upper = std::min(upper, frac);
    }
  }
  if (upper < lower) upper = lower;
  return 0.5 * (lower + upper);
}

const em::CompactEm& EmCanaryBank::canary(std::size_t i) const {
  DH_REQUIRE(i < canaries_.size(), "canary index out of range");
  return canaries_[i];
}

}  // namespace dh::sensors
