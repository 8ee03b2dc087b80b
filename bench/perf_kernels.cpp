// Google-benchmark microbenchmarks of the numerical kernels, so solver
// performance regressions are caught alongside the physics. For
// machine-readable results use google-benchmark's own output:
//   perf_kernels --benchmark_out=k.json --benchmark_out_format=json
#include <benchmark/benchmark.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "circuit/assist.hpp"
#include "common/obs/metrics.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "device/bti_model.hpp"
#include "device/calibration.hpp"
#include "device/compact_bti.hpp"
#include "em/compact_em.hpp"
#include "em/em_sensor.hpp"
#include "em/korhonen.hpp"
#include "pdn/aging_pdn.hpp"
#include "pdn/pdn_grid.hpp"
#include "sched/system_sim.hpp"
#include "sram/sram_array.hpp"
#include "thermal/thermal_grid.hpp"

namespace {

using namespace dh;

void BM_TrapEnsembleStep(benchmark::State& state) {
  auto model = device::BtiModel::paper_calibrated();
  const auto cond = device::paper_conditions::accelerated_stress();
  for (auto _ : state) {
    model.apply(cond, minutes(10.0));
    benchmark::DoNotOptimize(model.delta_vth());
  }
}
BENCHMARK(BM_TrapEnsembleStep);

void BM_CompactBtiStep(benchmark::State& state) {
  device::CompactBti model{};
  const auto cond = device::paper_conditions::accelerated_stress();
  for (auto _ : state) {
    model.apply(cond, minutes(10.0));
    benchmark::DoNotOptimize(model.delta_vth());
  }
}
BENCHMARK(BM_CompactBtiStep);

void BM_SramArrayDay(benchmark::State& state) {
  // One simulated day of the sram_recovery_boost study: 64 cells holding
  // static data at 95 C, 10 % of the day in recovery boost.
  sram::SramArray array{sram::SramArrayParams{}};
  for (auto _ : state) {
    array.step(Celsius{95.0}, hours(24.0), 0.1);
    benchmark::DoNotOptimize(array.cell(0).left_pmos_dvth());
  }
}
BENCHMARK(BM_SramArrayDay);

void BM_SramArrayDayFlipping(benchmark::State& state) {
  // The same day with data re-drawn every step: the stressed pull-ups'
  // states differ, so each runs its own precursor chain.
  sram::SramArrayParams p;
  p.pattern = sram::DataPattern::kFlipping;
  sram::SramArray array{p};
  for (auto _ : state) {
    array.step(Celsius{95.0}, hours(24.0), 0.1);
    benchmark::DoNotOptimize(array.cell(0).left_pmos_dvth());
  }
}
BENCHMARK(BM_SramArrayDayFlipping);

void BM_KorhonenStep(benchmark::State& state) {
  em::KorhonenSolver solver{em::paper_wire(),
                            em::paper_calibrated_em_material()};
  // Operating (not oven) temperature so the wire neither nucleates nor
  // breaks within the benchmark: every iteration does full solver work.
  for (auto _ : state) {
    solver.step(em::paper_em_conditions::stress_density(), Celsius{105.0},
                Seconds{30.0});
    benchmark::DoNotOptimize(solver.stress_at(em::WireEnd::kStart));
  }
}
BENCHMARK(BM_KorhonenStep);

void BM_CompactEmStep(benchmark::State& state) {
  em::CompactEm model{em::CompactEmParams{
      .wire = em::paper_wire(),
      .material = em::paper_calibrated_em_material()}};
  for (auto _ : state) {
    model.step(em::paper_em_conditions::stress_density(), Celsius{105.0},
               Seconds{30.0});
    benchmark::DoNotOptimize(model.end_stress());
  }
}
BENCHMARK(BM_CompactEmStep);

void BM_CompactEmStepRecoveryCycle(benchmark::State& state) {
  // The paper's 60:15 recovery schedule at 230 C (em_population's inner
  // loop): two alternating conditions, one step per iteration. A broken
  // wire is reset so every iteration steps.
  em::CompactEm model{em::CompactEmParams{
      .wire = em::paper_wire(),
      .material = em::paper_calibrated_em_material()}};
  const Celsius t = em::paper_em_conditions::chamber();
  bool forward = true;
  for (auto _ : state) {
    if (forward) {
      model.step(em::paper_em_conditions::stress_density(), t, minutes(60.0));
    } else {
      model.step(em::paper_em_conditions::reverse_density(), t,
                 minutes(15.0));
    }
    forward = !forward;
    if (model.broken()) model.reset();
    benchmark::DoNotOptimize(model.end_stress());
  }
}
BENCHMARK(BM_CompactEmStepRecoveryCycle);

void BM_CompactEmStepNewTemperature(benchmark::State& state) {
  // A new temperature on every call, as AgingPdn steps its segments at
  // each quantum's temperature: no (T, dt) condition repeats.
  em::CompactEm model{em::CompactEmParams{
      .wire = em::paper_wire(),
      .material = em::paper_calibrated_em_material()}};
  int i = 0;
  for (auto _ : state) {
    model.step(em::paper_em_conditions::stress_density(),
               Celsius{105.0 + 1e-3 * i}, Seconds{30.0});
    i = (i + 1) % 1000;
    benchmark::DoNotOptimize(model.end_stress());
  }
}
BENCHMARK(BM_CompactEmStepNewTemperature);

void BM_AgingPdnStep(benchmark::State& state) {
  // fig12's 4x4 PDN (default pads and material) under hot-chip core
  // currents, at a new temperature on every call, as the simulator steps
  // it once per quantum: all mortal segments share one EM prepare. The
  // grid restarts fresh every 2920 calls (one fig12 policy run of 6 h
  // quanta over two years), so the timed mix of stepped, voided and
  // broken segments stays that of a run.
  pdn::PdnParams p;
  p.rows = 4;
  p.cols = 4;
  const std::vector<double> loads(p.rows * p.cols, 1.6);
  obs::Counter& evals = obs::registry().counter("em.compact.evals");
  const std::uint64_t evals_before = evals.value();
  std::optional<pdn::AgingPdn> grid;
  std::size_t q = 0;
  for (auto _ : state) {
    if (q % 2920 == 0) {
      state.PauseTiming();
      grid.emplace(p, em::EmMaterialParams{});
      state.ResumeTiming();
    }
    grid->step(loads, Celsius{80.0 + 1e-3 * static_cast<double>(q % 2920)},
               hours(6.0));
    ++q;
    benchmark::DoNotOptimize(grid->last_solution().worst_drop_v);
  }
  state.counters["em_evals_per_call"] =
      static_cast<double>(evals.value() - evals_before) /
      static_cast<double>(q);
}
BENCHMARK(BM_AgingPdnStep);

void BM_ThermalSteadySolve(benchmark::State& state) {
  thermal::ThermalGridParams p;
  p.rows = static_cast<std::size_t>(state.range(0));
  p.cols = p.rows;
  thermal::ThermalGrid grid{p};
  for (std::size_t i = 0; i < grid.tile_count(); ++i) {
    grid.set_power(i, Watts{1.0 + 0.01 * static_cast<double>(i)});
  }
  for (auto _ : state) {
    grid.solve_steady();
    benchmark::DoNotOptimize(grid.max_temperature());
  }
}
BENCHMARK(BM_ThermalSteadySolve)->Arg(4)->Arg(8)->Arg(16);

// One PdnGrid::solve per iteration: banded assembly, factorization and
// back-substitution, on square meshes of 16 to 4096 nodes (fig12 runs the
// 4x4 mesh).
void BM_PdnIrSolve(benchmark::State& state) {
  pdn::PdnParams p;
  p.rows = p.cols = static_cast<std::size_t>(state.range(0));
  pdn::PdnGrid grid{p};
  const std::vector<double> loads(grid.node_count(), 0.002);
  const auto r = grid.fresh_segment_resistances(Celsius{85.0});
  for (auto _ : state) {
    benchmark::DoNotOptimize(grid.solve(loads, r));
  }
}
BENCHMARK(BM_PdnIrSolve)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_ParallelForOverhead(benchmark::State& state) {
  std::vector<double> out(1024, 0.0);
  for (auto _ : state) {
    parallel_for(out.size(), [&](std::size_t i) {
      out[i] = static_cast<double>(i) * 1.5;
    });
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_ParallelForOverhead);

void BM_SramScanHealth(benchmark::State& state) {
  // Per-cell butterfly solves of a 96-cell aged array over the global
  // pool: DH_THREADS=1 vs =2 compares the serial and pooled scans.
  sram::SramArrayParams p;
  p.cells = 96;
  sram::SramArray array{p};
  array.step(Celsius{85.0}, hours(1000.0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(array.scan_health());
  }
  state.counters["threads"] = static_cast<double>(global_thread_count());
}
BENCHMARK(BM_SramScanHealth)->Unit(benchmark::kMillisecond);

// The per-call cost of the observability layer's record calls, which
// every instrumented hot path carries.
void BM_CounterAdd(benchmark::State& state) {
  obs::Counter& counter = obs::registry().counter("bench.obs.counter");
  for (auto _ : state) {
    counter.add();
  }
  benchmark::DoNotOptimize(counter.value());
}
BENCHMARK(BM_CounterAdd);

void BM_HistogramObserve(benchmark::State& state) {
  obs::Histogram& hist = obs::registry().histogram("bench.obs.hist", "ms");
  std::size_t i = 0;
  for (auto _ : state) {
    hist.observe(static_cast<double>(i & 1023) + 0.5);
    ++i;
  }
  benchmark::DoNotOptimize(hist.count());
}
BENCHMARK(BM_HistogramObserve);

void BM_AssistDcSolve(benchmark::State& state) {
  circuit::AssistCircuit assist{circuit::AssistCircuitParams{}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        assist.solve(circuit::AssistMode::kNormal));
  }
}
BENCHMARK(BM_AssistDcSolve);

void BM_SystemSimStep(benchmark::State& state) {
  sched::SystemParams p;
  p.rows = static_cast<std::size_t>(state.range(0));
  p.cols = p.rows;
  sched::SystemSimulator sim{p, sched::make_periodic_active_policy()};
  for (auto _ : state) {
    sim.step();
  }
}
BENCHMARK(BM_SystemSimStep)->Arg(2)->Arg(4)->Arg(8);

// One em_population wire's process-variation draw: a fresh child stream
// and its two lognormals (diffusivity, critical stress). Mostly the cost
// of seeding and twisting the engine's first chunk.
void BM_RngStreamWireDraw(benchmark::State& state) {
  std::uint64_t index = 0;
  for (auto _ : state) {
    Rng r = Rng::stream(1, index++);
    benchmark::DoNotOptimize(r.lognormal(0.0, 0.25));
    benchmark::DoNotOptimize(r.lognormal(0.0, 0.10));
  }
}
BENCHMARK(BM_RngStreamWireDraw);

// Steady-state cost of one engine draw, whole 312-word blocks included.
void BM_RngDraw(benchmark::State& state) {
  Rng r{Rng::stream_seed(1, 0)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(r.engine()());
  }
}
BENCHMARK(BM_RngDraw);

}  // namespace

BENCHMARK_MAIN();
