// Pins the fig12 system-level outputs bit for bit: the hot 4x4 chip of
// bench/fig12_system_schedule under each of its five policies, run for
// 240 quanta (60 days). Every SystemSummary field and the sums of the
// IR-drop and temperature traces are compared as 17-significant-digit
// strings, which round-trip doubles exactly. A performance refactor must
// leave every line unchanged; a deliberate physics change (ROADMAP item
// 1) updates the expected lines in the same commit.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sched/system_sim.hpp"

namespace dh::sched {
namespace {

/// bench/fig12_system_schedule's hot_chip().
SystemParams hot_chip() {
  SystemParams p;
  p.rows = 4;
  p.cols = 4;
  p.quantum = hours(6.0);
  p.workload.kind = WorkloadKind::kDiurnal;
  p.workload.utilization = 0.80;
  p.workload.period = hours(24.0);
  p.core.dynamic_power_peak = Watts{2.2};
  p.thermal.ambient = Celsius{55.0};
  p.thermal.vertical_g_w_per_k = 0.07;
  return p;
}

/// The five fig12 policies, in the bench's order.
std::vector<std::unique_ptr<RecoveryPolicy>> fig12_policies() {
  std::vector<std::unique_ptr<RecoveryPolicy>> v;
  v.push_back(make_no_recovery_policy());
  v.push_back(make_passive_idle_policy());
  v.push_back(make_periodic_active_policy({.period = hours(24.0),
                                           .bti_recovery_fraction = 0.25,
                                           .em_recovery_duty = 0.2}));
  v.push_back(make_adaptive_sensor_policy({.threshold = Volts{0.005},
                                           .release = Volts{0.002},
                                           .em_recovery_duty = 0.2}));
  v.push_back(make_dark_silicon_policy({.spares = 2,
                                        .rotation_period = hours(6.0),
                                        .em_recovery_duty = 0.2}));
  return v;
}

std::string g17(double x) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

double sum(const std::vector<double>& v) {
  double acc = 0.0;
  for (const double x : v) acc += x;
  return acc;
}

/// One line per run: every SystemSummary field, then the trace sums.
std::string digest(const SystemSimulator& sim) {
  const SystemSummary s = sim.summary();
  const pdn::AgingPdnStats& p = s.pdn_stats;
  return "guardband=" + g17(s.guardband_fraction) +
         " final=" + g17(s.final_degradation) +
         " ttf=" + g17(s.time_to_failure.value()) +
         " throughput=" + g17(s.mean_throughput) +
         " availability=" + g17(s.availability) +
         " energy=" + g17(s.energy_joules) +
         " mean_temp=" + g17(s.mean_temperature_c) +
         " recovery_quanta=" + std::to_string(s.recovery_quanta) +
         " worst_drop=" + g17(p.worst_drop_v) +
         " max_void=" + g17(p.max_void_len_m) +
         " nucleated=" + std::to_string(p.nucleated_segments) +
         " broken=" + std::to_string(p.broken_segments) +
         " immortal=" + std::to_string(p.immortal_segments) +
         " factorizations=" + std::to_string(p.solver_factorizations) +
         " ir_drop_sum=" + g17(sum(sim.ir_drop_trace().raw_values())) +
         " temp_sum=" + g17(sum(sim.temperature_trace().raw_values()));
}

TEST(Fig12Pin, HotChipOutputsAreBitIdentical) {
  // Recorded at the commit before the lockstep core-aging kernel and the
  // fixed-pattern PDN factor landed; both must reproduce it exactly. The
  // PDN fields and ir_drop_sum were re-recorded when broken segments
  // became open circuits (cut-off nodes at 0 V instead of gigavolts).
  const char* const expected[] = {
      "guardband=0.0066244730932671914 final=0.0066057718598487858"
      " ttf=21600 throughput=8.2861470784699183"
      " availability=0.99593113923917587 energy=147112372.14322686"
      " mean_temp=80.337641255929412 recovery_quanta=0"
      " worst_drop=1 max_void=6.1024714241040021e-08"
      " nucleated=16 broken=8 immortal=24 factorizations=240"
      " ir_drop_sum=13169.28970925318"
      " temp_sum=20360.291154172355",
      "guardband=0.0066244730932671914 final=0.0066057718598487858"
      " ttf=21600 throughput=8.2861470784699183"
      " availability=0.99593113923917587 energy=147112372.14322686"
      " mean_temp=80.337641255929412 recovery_quanta=0"
      " worst_drop=1 max_void=6.1024714241040021e-08"
      " nucleated=16 broken=8 immortal=24 factorizations=240"
      " ir_drop_sum=13169.28970925318"
      " temp_sum=20360.291154172355",
      "guardband=0.0056516304541557316 final=0.0025637492855845601"
      " ttf=21600 throughput=6.2207169147307946"
      " availability=0.74768232148206892 energy=101916152.99279752"
      " mean_temp=72.553349763144439 recovery_quanta=120"
      " worst_drop=2.6770481500325722 max_void=3.5622780645810692e-08"
      " nucleated=17 broken=0 immortal=8 factorizations=240"
      " ir_drop_sum=40169.012956004168"
      " temp_sum=18297.874217258082",
      "guardband=0.0066244730932671914 final=0.0066057718598487858"
      " ttf=21600 throughput=8.2861470784699183"
      " availability=0.99593113923917587 energy=147112372.14322686"
      " mean_temp=80.337641255929412 recovery_quanta=48"
      " worst_drop=1 max_void=6.1495819988281384e-08"
      " nucleated=16 broken=8 immortal=24 factorizations=240"
      " ir_drop_sum=45452.367620694109"
      " temp_sum=20360.291154172355",
      "guardband=0.0084770673755363291 final=0.0078293010698871068"
      " ttf=21600 throughput=8.2833757534853749"
      " availability=0.99559804729391821 energy=139080471.69765386"
      " mean_temp=78.954280977467349 recovery_quanta=240"
      " worst_drop=1 max_void=6.2091040262899012e-08"
      " nucleated=16 broken=8 immortal=24 factorizations=240"
      " ir_drop_sum=44170.35093019373"
      " temp_sum=20500.397348481769",
  };
  std::vector<std::unique_ptr<RecoveryPolicy>> policies = fig12_policies();
  ASSERT_EQ(policies.size(), std::size(expected));
  for (std::size_t k = 0; k < policies.size(); ++k) {
    const std::string name = policies[k]->name();
    SystemSimulator sim{hot_chip(), std::move(policies[k])};
    for (int q = 0; q < 240; ++q) sim.step();
    EXPECT_EQ(digest(sim), expected[k]) << "policy " << name;
  }
}

}  // namespace
}  // namespace dh::sched
