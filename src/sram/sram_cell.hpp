// 6T SRAM cell with per-device BTI wearout — the substrate for the
// "recovery boost" idea the paper builds on (Shin et al. [17]: raise the
// gate voltages of a memory cell to put PMOS devices into recovery
// enhancement mode). The cell's health metric is its hold static noise
// margin (SNM), computed from the two cross-coupled inverters' transfer
// curves through the MNA circuit simulator.
//
// NBTI asymmetry: in a cell holding a constant value, the PMOS on the
// stored-"1" side conducts (gate low -> |Vsg| = VDD) and ages, while the
// other PMOS rests. Data that never flips therefore skews the butterfly
// curve — exactly the failure mode recovery boost targets.
#pragma once

#include <vector>

#include "common/units.hpp"
#include "device/compact_bti.hpp"

namespace dh::sram {

struct SramCellParams {
  Volts vdd{0.9};
  double pmos_vth = 0.30;
  double nmos_vth = 0.28;
  double pmos_beta = 0.8e-4;   // weak pull-ups (standard 6T ratioing)
  double nmos_beta = 2.0e-4;   // strong pull-downs
  Volts recovery_bias{-0.3};   // assist/boost bias for PMOS recovery
  device::CompactBtiParams bti{};
};

/// What the cell spends a time slice doing.
enum class CellMode {
  kHold,          // statically holding `stored_bit`
  kRecoveryBoost, // both PMOS driven into active recovery (cell idle)
};

class SramCell {
 public:
  explicit SramCell(SramCellParams params);

  /// Advance wearout. While holding, the PMOS on the side storing "1"
  /// is under NBTI stress; in recovery-boost mode both PMOS heal.
  void step(CellMode mode, bool stored_bit, Celsius temperature,
            Seconds dt);

  /// ΔVth of the left and right pull-up PMOS.
  [[nodiscard]] Volts left_pmos_dvth() const;
  [[nodiscard]] Volts right_pmos_dvth() const;

  /// Hold static noise margin of the aged cell, in volts (the side of
  /// the largest square embedded in the butterfly plot).
  [[nodiscard]] Volts hold_snm() const;

  /// Fresh-cell SNM for the same parameters (reference).
  [[nodiscard]] Volts fresh_snm() const;

  [[nodiscard]] const SramCellParams& params() const { return params_; }

 private:
  // The array advances its cells' PMOS devices as batches that share a
  // condition (bit-identical to stepping each cell).
  friend class SramArray;

  /// The pull-up that conducts, and so is under NBTI stress, while the
  /// cell holds `stored_bit`; the other one rests.
  device::CompactBti& stressed_pmos(bool stored_bit) {
    return stored_bit ? left_pmos_ : right_pmos_;
  }
  device::CompactBti& resting_pmos(bool stored_bit) {
    return stored_bit ? right_pmos_ : left_pmos_;
  }

  SramCellParams params_;
  device::CompactBti left_pmos_;   // drives node Q high (stressed when Q=1)
  device::CompactBti right_pmos_;  // drives node Qb high (stressed when Q=0)
};

/// Static noise margin from two inverter voltage transfer curves
/// (45-degree rotation method). `vtc1` maps Vin->Vout for inverter 1,
/// `vtc2` for inverter 2; both sampled on `vin` (volts, increasing).
[[nodiscard]] double snm_from_vtcs(const std::vector<double>& vin,
                                   const std::vector<double>& vtc1,
                                   const std::vector<double>& vtc2);

/// Inverter VTC with aged device thresholds: one MNA DC sweep of the
/// input over `vin` (`circuit::Circuit::solve_dc_sweep`).
[[nodiscard]] std::vector<double> inverter_vtc(
    const SramCellParams& params, Volts pmos_dvth, Volts nmos_dvth,
    const std::vector<double>& vin);

}  // namespace dh::sram
