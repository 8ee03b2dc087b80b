// Umbrella header for the deep-healing library — the public API of this
// reproduction of Guo & Stan, "Deep Healing: Ease the BTI and EM Wearout
// Crisis by Activating Recovery" (DSN 2017).
//
// Layers (bottom-up):
//   dh::device  — BTI trap-ensemble + permanent-component models, ring
//                 oscillator readout, compact BTI model
//   dh::em      — Korhonen stress-evolution solver, void growth/healing,
//                 compact EM model
//   dh::circuit — MNA simulator and the Fig. 8 assist circuitry
//   dh::thermal — die thermal RC grid (heat-assisted recovery)
//   dh::sensors — RO-pair BTI sensors, EM canary wires, health fusion
//   dh::sram    — 6T cell / array with SNM analysis and recovery boost
//   dh::logic   — signal-probability logic aging + aging-aware STA
//   dh::pdn     — power grid IR solve + per-segment EM aging
//   dh::sched   — cores, workloads, recovery policies, lifetime simulator
//   dh::core    — paper protocols, EM recovery planning
#pragma once

#include "circuit/assist.hpp"
#include "core/accelerated_test.hpp"
#include "core/rejuvenation_planner.hpp"
#include "device/bti_model.hpp"
#include "device/calibration.hpp"
#include "device/compact_bti.hpp"
#include "em/compact_em.hpp"
#include "em/korhonen.hpp"
#include "logic/logic_netlist.hpp"
#include "pdn/aging_pdn.hpp"
#include "sched/system_sim.hpp"
#include "sensors/em_canary.hpp"
#include "sensors/health_monitor.hpp"
#include "sensors/ro_pair_sensor.hpp"
#include "sram/sram_array.hpp"
#include "thermal/thermal_grid.hpp"
