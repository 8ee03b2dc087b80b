// Google-benchmark microbenchmarks of the numerical kernels, so solver
// performance regressions are caught alongside the physics.
//
// Before the google-benchmark suite runs, a wall-clock section times the
// parallel-execution layer (serial vs pool) and writes the numbers to
// BENCH_parallel.json (routed through obs::json_output_path, so
// DH_BENCH_DIR controls where results land), so future PRs can track the
// throughput trajectory machine-readably. A second section prices the
// observability layer's record calls into BENCH_obs_kernels.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <optional>
#include <sstream>
#include <vector>

#include "circuit/assist.hpp"
#include "common/obs/bench_io.hpp"
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

void BM_PdnIrSolve(benchmark::State& state) {
  pdn::PdnParams p;
  p.rows = static_cast<std::size_t>(state.range(0));
  p.cols = p.rows;
  pdn::PdnGrid grid{p};
  const std::vector<double> loads(grid.node_count(), 0.002);
  const auto r = grid.fresh_segment_resistances(Celsius{85.0});
  for (auto _ : state) {
    benchmark::DoNotOptimize(grid.solve(loads, r));
  }
}
BENCHMARK(BM_PdnIrSolve)->Arg(4)->Arg(8)->Arg(12);

// Dense-vs-sparse solve kernels at n in {64, 256, 1024, 4096} nodes
// (grid sides 8..64). Dense is the from-scratch LU reference
// (solve_uncached); sparse is a fresh banded solve — assembly +
// factorization + solve — so the comparison is end-to-end, not
// back-substitution vs LU. The 64x64 dense case takes tens of seconds
// per iteration; filter with --benchmark_filter if that matters.
void BM_PdnDenseSolve(benchmark::State& state) {
  pdn::PdnParams p;
  p.rows = p.cols = static_cast<std::size_t>(state.range(0));
  pdn::PdnGrid grid{p};
  const std::vector<double> loads(grid.node_count(), 0.002);
  const auto r = grid.fresh_segment_resistances(Celsius{85.0});
  for (auto _ : state) {
    benchmark::DoNotOptimize(grid.solve_uncached(loads, r));
  }
  state.SetComplexityN(static_cast<std::int64_t>(grid.node_count()));
}
BENCHMARK(BM_PdnDenseSolve)->Arg(8)->Arg(16)->Arg(32)->Arg(64)
    ->Unit(benchmark::kMillisecond)->Complexity();

void BM_PdnSparseSolve(benchmark::State& state) {
  pdn::PdnParams p;
  p.rows = p.cols = static_cast<std::size_t>(state.range(0));
  pdn::PdnGrid grid{p};
  const std::vector<double> loads(grid.node_count(), 0.002);
  const auto r = grid.fresh_segment_resistances(Celsius{85.0});
  for (auto _ : state) {
    benchmark::DoNotOptimize(grid.solve(loads, r));
  }
  state.SetComplexityN(static_cast<std::int64_t>(grid.node_count()));
}
BENCHMARK(BM_PdnSparseSolve)->Arg(8)->Arg(16)->Arg(32)->Arg(64)
    ->Unit(benchmark::kMillisecond)->Complexity();

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

double wall_ms(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// EM wire-population kernel shared by the serial/parallel timing below —
// a scaled-down bench/em_population_ttf inner loop.
double em_population_wire(std::size_t i) {
  using namespace dh::em;
  Rng r = Rng::stream(2026, i);
  EmMaterialParams m = paper_calibrated_em_material();
  m.d0_m2_per_s *= r.lognormal(0.0, 0.25);
  m.critical_stress =
      Pascals{m.critical_stress.value() * r.lognormal(0.0, 0.10)};
  CompactEm em{CompactEmParams{.wire = paper_wire(), .material = m}};
  const Celsius t = paper_em_conditions::chamber();
  double elapsed = 0.0;
  const double horizon = hours(120.0).value();
  while (!em.broken() && elapsed < horizon) {
    em.step(paper_em_conditions::stress_density(), t, minutes(60.0));
    elapsed += minutes(60.0).value();
  }
  return em.broken() ? elapsed : horizon;
}

/// Times the parallel layer, writes BENCH_parallel.json. Runs before the google-benchmark suite so the
/// file is emitted even under a --benchmark_filter that excludes all.
void write_parallel_json() {
  const std::size_t threads = global_thread_count();

  // 1. EM Monte-Carlo population: serial loop vs pool.
  constexpr std::size_t kWires = 64;
  std::vector<double> serial_ttf(kWires);
  const double em_serial_ms = wall_ms([&] {
    for (std::size_t i = 0; i < kWires; ++i) {
      serial_ttf[i] = em_population_wire(i);
    }
  });
  std::vector<double> parallel_ttf;
  const double em_parallel_ms = wall_ms([&] {
    parallel_ttf = parallel_map(kWires, em_population_wire);
  });
  const bool em_identical = serial_ttf == parallel_ttf;

  // 2. SRAM array health scan: per-cell butterfly solves over the pool.
  sram::SramArrayParams sp;
  sp.cells = 96;
  sram::SramArray array{sp};
  array.step(Celsius{85.0}, hours(1000.0));
  sram::SramArrayHealth serial_h, parallel_h;
  // Route the serial scan through a single-thread global pool.
  set_global_thread_count(1);
  const double sram_serial_ms =
      wall_ms([&] { serial_h = array.scan_health(); });
  set_global_thread_count(threads);
  const double sram_parallel_ms =
      wall_ms([&] { parallel_h = array.scan_health(); });
  const bool sram_identical =
      serial_h.worst_snm.value() == parallel_h.worst_snm.value() &&
      serial_h.mean_snm.value() == parallel_h.mean_snm.value();

  std::ostringstream json;
  json << "{\n";
  json << "  \"threads\": " << threads << ",\n";
  json << "  \"em_population\": {\"wires\": " << kWires
       << ", \"serial_ms\": " << em_serial_ms
       << ", \"parallel_ms\": " << em_parallel_ms << ", \"speedup\": "
       << (em_parallel_ms > 0.0 ? em_serial_ms / em_parallel_ms : 0.0)
       << ", \"bit_identical\": " << (em_identical ? "true" : "false")
       << "},\n";
  json << "  \"sram_scan\": {\"cells\": " << sp.cells
       << ", \"serial_ms\": " << sram_serial_ms
       << ", \"parallel_ms\": " << sram_parallel_ms << ", \"speedup\": "
       << (sram_parallel_ms > 0.0 ? sram_serial_ms / sram_parallel_ms
                                  : 0.0)
       << ", \"bit_identical\": " << (sram_identical ? "true" : "false")
       << "}\n";
  json << "}\n";
  obs::write_file_atomic(obs::json_output_path("BENCH_parallel.json"),
                         json.str());
  std::printf(
      "BENCH_parallel.json written: %zu thread(s); em %.0f/%.0f ms, "
      "sram %.0f/%.0f ms\n",
      threads, em_serial_ms, em_parallel_ms, sram_serial_ms,
      sram_parallel_ms);
}

/// Prices the observability layer's record calls (counter add, histogram
/// observe), writing BENCH_obs_kernels.json, so a regression in the
/// instrumentation every hot path carries shows up per call.
void write_obs_kernels_json() {
  using Clock = std::chrono::steady_clock;
  constexpr std::size_t kOps = 2'000'000;
  obs::Counter& counter = obs::registry().counter("bench.obs.counter");
  obs::Histogram& hist =
      obs::registry().histogram("bench.obs.hist", "ms");

  const auto time_ns_per_op = [&](const std::function<void()>& body) {
    const auto t0 = Clock::now();
    body();
    return std::chrono::duration<double, std::nano>(Clock::now() - t0)
               .count() /
           static_cast<double>(kOps);
  };
  const double counter_ns = time_ns_per_op([&] {
    for (std::size_t i = 0; i < kOps; ++i) counter.add();
  });
  const double hist_ns = time_ns_per_op([&] {
    for (std::size_t i = 0; i < kOps; ++i) {
      hist.observe(static_cast<double>(i & 1023) + 0.5);
    }
  });

  std::ostringstream json;
  json << "{\n";
  json << "  \"record_ns_per_op\": {\"counter\": " << counter_ns
       << ", \"histogram\": " << hist_ns << "}\n";
  json << "}\n";
  obs::write_file_atomic(obs::json_output_path("BENCH_obs_kernels.json"),
                         json.str());
  std::printf(
      "BENCH_obs_kernels.json written: counter %.1f ns, histogram %.1f ns\n",
      counter_ns, hist_ns);
}

/// Dense-LU vs banded-solve scaling curve for the PDN IR solve at
/// n in {64, 256, 1024, 4096} nodes, written to BENCH_sparse.json. Each
/// row times: the from-scratch dense reference (solve_uncached), a cold
/// sparse solve (fresh grid: band assembly + factorization + solve), and
/// a warm sparse solve (the same work on a grid that has solved before,
/// under slow EM drift). The acceptance bar is the 64x64 row: cold sparse
/// must beat dense by >= 10x.
void write_sparse_json() {
  struct Row {
    std::size_t side = 0;
    std::size_t nodes = 0;
    double dense_ms = 0.0;
    double sparse_cold_ms = 0.0;
    double sparse_warm_ms = 0.0;
    double speedup_cold = 0.0;
  };
  std::vector<Row> rows;
  for (const std::size_t side : {8ul, 16ul, 32ul, 64ul}) {
    Row row;
    row.side = side;
    row.nodes = side * side;
    pdn::PdnParams p;
    p.rows = p.cols = side;
    pdn::PdnGrid grid{p};
    const std::vector<double> loads(grid.node_count(), 0.002);
    const auto r = grid.fresh_segment_resistances(Celsius{85.0});

    // Repetition counts sized so small grids get a measurable window
    // while the O(n^3) dense solve at n = 4096 runs exactly once.
    const int dense_reps = side <= 8 ? 50 : side <= 16 ? 10 : side <= 32 ? 2 : 1;
    row.dense_ms = wall_ms([&] {
                     for (int i = 0; i < dense_reps; ++i) {
                       benchmark::DoNotOptimize(grid.solve_uncached(loads, r));
                     }
                   }) /
                   dense_reps;

    const int sparse_reps = side <= 32 ? 20 : 5;
    row.sparse_cold_ms = wall_ms([&] {
                           for (int i = 0; i < sparse_reps; ++i) {
                             pdn::PdnGrid cold{p};
                             benchmark::DoNotOptimize(cold.solve(loads, r));
                           }
                         }) /
                         sparse_reps;

    auto drift_r = r;
    (void)grid.solve(loads, drift_r);  // warm up
    constexpr int kWarmReps = 50;
    row.sparse_warm_ms = wall_ms([&] {
                           for (int i = 0; i < kWarmReps; ++i) {
                             for (double& x : drift_r) x *= 1.0 + 1e-5;
                             benchmark::DoNotOptimize(
                                 grid.solve(loads, drift_r));
                           }
                         }) /
                         kWarmReps;
    row.speedup_cold =
        row.sparse_cold_ms > 0.0 ? row.dense_ms / row.sparse_cold_ms : 0.0;
    rows.push_back(row);
  }

  std::ostringstream json;
  json << "{\n  \"pdn_solve_scaling\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    json << "    {\"grid\": \"" << row.side << "x" << row.side
         << "\", \"nodes\": " << row.nodes
         << ", \"dense_ms\": " << row.dense_ms
         << ", \"sparse_cold_ms\": " << row.sparse_cold_ms
         << ", \"sparse_warm_ms\": " << row.sparse_warm_ms
         << ", \"speedup_cold\": " << row.speedup_cold << "}"
         << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  obs::write_file_atomic(obs::json_output_path("BENCH_sparse.json"),
                         json.str());
  for (const Row& row : rows) {
    std::printf(
        "BENCH_sparse %2zux%-2zu (%4zu nodes): dense %9.3f ms, "
        "sparse cold %7.3f ms (%.0fx), warm %7.3f ms\n",
        row.side, row.side, row.nodes, row.dense_ms, row.sparse_cold_ms,
        row.speedup_cold, row.sparse_warm_ms);
  }
}

}  // namespace

int main(int argc, char** argv) {
  write_parallel_json();
  write_obs_kernels_json();
  write_sparse_json();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
