// SRAM array with data-pattern statistics and recovery-boost scheduling —
// the array-level view of [17]'s proactive wearout recovery, driven by
// our calibrated BTI model.
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "sram/sram_cell.hpp"

namespace dh::sram {

/// How the stored data behaves over time.
enum class DataPattern {
  kStatic,        // cells hold their initial bits forever (worst case)
  kFlipping,      // bits re-randomized every step (signal-prob balancing)
};

struct SramArrayParams {
  std::size_t cells = 64;
  SramCellParams cell{};
  DataPattern pattern = DataPattern::kStatic;
  double p_one = 0.5;  // probability a cell stores 1
  std::uint64_t seed = 17;
};

struct SramArrayHealth {
  Volts worst_snm{0.0};
  Volts mean_snm{0.0};
  Volts worst_pmos_dvth{0.0};
};

class SramArray {
 public:
  explicit SramArray(SramArrayParams params);

  /// Advance the whole array: `boost_fraction` of the quantum is spent in
  /// recovery boost (cells idle), the rest holding data. Equal, bit for
  /// bit, to `SramCell::step` on each cell (hold, then boost).
  void step(Celsius temperature, Seconds dt, double boost_fraction = 0.0);

  /// Full-accuracy health scan (computes every cell's SNM; O(cells)
  /// circuit solves — use sparingly).
  [[nodiscard]] SramArrayHealth scan_health() const;

  /// Cheap health proxy: SNM of the cell with the worst PMOS asymmetry.
  [[nodiscard]] SramArrayHealth worst_cell_health() const;

  [[nodiscard]] const SramCell& cell(std::size_t i) const;

 private:
  SramArrayParams params_;
  // The bias factors of the three gate biases a pull-up sees: vdd while
  // stressed, 0 V while resting, and the recovery bias while boosted.
  device::CompactBtiBias stress_bias_;
  device::CompactBtiBias rest_bias_;
  device::CompactBtiBias recover_bias_;
  std::vector<SramCell> cells_;
  std::vector<bool> bits_;
  Rng rng_;
};

}  // namespace dh::sram
