// Reproduces the quantitative content of Fig. 11: the global PDN grid
// (wide, thick top metals) is robust against EM while the local grids
// (thin lower metals, high current density) are the hazard the assist
// circuitry must protect.
#include <cstdio>
#include <iostream>

#include "common/table.hpp"
#include "em/compact_em.hpp"
#include "em/em_sensor.hpp"
#include "pdn/aging_pdn.hpp"

int main() {
  using namespace dh;
  using namespace dh::em;

  std::printf("== Fig. 11: global vs local PDN layers as EM hazards ==\n\n");

  const EmMaterialParams mat = paper_calibrated_em_material();
  struct Layer {
    const char* name;
    WireGeometry wire;
    double current_a;  // per segment under the same delivered power
  };
  const Layer layers[] = {
      {"global grid (M9/M10-class)",
       {.length = Meters{500e-6}, .width = Meters{5e-6},
        .thickness = Meters{2e-6}, .resistivity_ref = 1.9e-8,
        .reference_temperature = Celsius{20.0}, .tcr_per_k = 3.93e-3,
        .liner_ohm_per_m = 5e7},
       0.04},
      {"intermediate (M5/M6-class)",
       {.length = Meters{300e-6}, .width = Meters{1.5e-6},
        .thickness = Meters{0.6e-6}, .resistivity_ref = 2.0e-8,
        .reference_temperature = Celsius{20.0}, .tcr_per_k = 3.93e-3,
        .liner_ohm_per_m = 1.5e8},
       0.025},
      {"local grid (M2/M3-class)",
       {.length = Meters{200e-6}, .width = Meters{0.5e-6},
        .thickness = Meters{0.2e-6}, .resistivity_ref = 2.2e-8,
        .reference_temperature = Celsius{20.0}, .tcr_per_k = 3.93e-3,
        .liner_ohm_per_m = 2.5e8},
       0.012},
  };

  const Celsius t{105.0};
  Table table({"layer", "j (MA/cm^2)", "Blech jL / crit", "EM status",
               "t_nuc estimate"});
  for (const auto& l : layers) {
    const double j = l.current_a / l.wire.cross_section_m2();
    const double blech = j * l.wire.length.value();
    const double crit =
        mat.blech_threshold(l.wire.resistivity_at(to_kelvin(t)));
    std::string status;
    std::string tnuc;
    if (blech < crit) {
      status = "immortal (Blech)";
      tnuc = "-";
    } else {
      status = "mortal";
      const Seconds tn = CompactEm::analytic_nucleation_time(
          mat, l.wire, AmpsPerM2{j}, t);
      tnuc = Table::num(in_years(tn), 1) + " years";
    }
    table.add_row({l.name, Table::num(j / 1e10, 2),
                   Table::num(blech / crit, 2), status, tnuc});
  }
  table.print(std::cout);

  std::printf(
      "\nThe local layer is the EM-sensitive one, as Fig. 11 argues —\n"
      "which is why the assist circuitry sits between the global and the\n"
      "local grids and protects the latter.\n\n");

  // Show the protection on an actual local mesh.
  const pdn::PdnParams mesh_params{};
  std::printf(
      "local %zux%zu mesh, hot accelerated corner (compressed test):\n",
      mesh_params.rows, mesh_params.cols);
  const auto run = [&](bool protect) {
    pdn::AgingPdn pdn{mesh_params, mat};
    const std::vector<double> loads(pdn.grid().node_count(), 0.003);
    for (int h = 0; h < 48; ++h) {
      // 40% duty EM recovery when protected (the planner's prescription
      // for this current density and horizon).
      pdn.step(loads, Celsius{230.0}, minutes(36.0), false);
      pdn.step(loads, Celsius{230.0}, minutes(24.0), protect);
    }
    return pdn.stats();
  };
  const auto raw = run(false);
  const auto prot = run(true);
  std::printf("  unprotected: %zu broken, max void %.1f nm\n",
              raw.broken_segments, raw.max_void_len_m * 1e9);
  std::printf("  protected:   %zu broken, max void %.1f nm\n",
              prot.broken_segments, prot.max_void_len_m * 1e9);
  return 0;
}
