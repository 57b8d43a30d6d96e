// Machine-generality tests: the CLIP pipeline on every machine preset.
// The framework must behave correctly (budget respect, profitable
// decisions, class-appropriate throttling) on hardware it was not
// calibrated against — that separates an algorithm from a curve fit.
#include <gtest/gtest.h>

#include "baselines/all_in.hpp"
#include "core/inflection.hpp"
#include "core/scheduler.hpp"
#include "sim/executor.hpp"
#include "sim/presets.hpp"
#include "util/check.hpp"
#include "workloads/catalog.hpp"

namespace clip {
namespace {

sim::MeterOptions no_noise() {
  sim::MeterOptions m;
  m.enabled = false;
  return m;
}

sim::MachineSpec spec_for(const std::string& name) {
  for (const auto& p : sim::all_presets())
    if (name == p.name) return p.spec;
  throw PreconditionError("unknown preset " + name);
}

class PerMachine : public ::testing::TestWithParam<std::string> {};

std::vector<std::string> preset_names() {
  std::vector<std::string> names;
  for (const auto& p : sim::all_presets()) names.emplace_back(p.name);
  return names;
}

INSTANTIATE_TEST_SUITE_P(Presets, PerMachine,
                         ::testing::ValuesIn(preset_names()));

TEST_P(PerMachine, SpecValidatesAndHasSanePeaks) {
  const sim::MachineSpec spec = spec_for(GetParam());
  EXPECT_NO_THROW(spec.validate());
  EXPECT_GT(spec.max_node_cpu_w(), 50.0);
  EXPECT_LT(spec.max_node_w(), 400.0);
  EXPECT_GE(spec.nodes, 8);
}

TEST_P(PerMachine, ClipRespectsBudgetsOnThisMachine) {
  const sim::MachineSpec spec = spec_for(GetParam());
  sim::SimExecutor ex(spec, no_noise());
  core::ClipScheduler sched(ex, workloads::training_benchmarks());
  // Budgets scaled to the machine's envelope.
  const double peak = spec.max_cluster_w();
  for (double fraction : {0.45, 0.7, 0.95}) {
    const Watts budget(peak * fraction);
    for (const char* name : {"CoMD", "BT-MZ", "TeaLeaf"}) {
      const auto w = *workloads::find_benchmark(name);
      const auto d = sched.schedule(w, budget);
      const auto m = ex.run_exact(w, d.cluster);
      EXPECT_LE(m.avg_power.value(), budget.value() * 1.01)
          << name << " @" << budget.value();
      EXPECT_LE(d.cluster.node.threads, spec.shape.total_cores());
      EXPECT_LE(d.cluster.nodes, spec.nodes);
    }
  }
}

TEST_P(PerMachine, ClipBeatsAllInOnAverageAtTightBudget) {
  const sim::MachineSpec spec = spec_for(GetParam());
  sim::SimExecutor ex(spec, no_noise());
  core::ClipScheduler sched(ex, workloads::training_benchmarks());
  baselines::AllInScheduler all_in(spec);
  const Watts budget(spec.max_cluster_w() * 0.5);

  double clip_total = 0.0, all_in_total = 0.0;
  for (const auto& w : workloads::paper_benchmarks()) {
    clip_total +=
        ex.run_exact(w, sched.schedule(w, budget).cluster).time.value();
    all_in_total +=
        ex.run_exact(w, all_in.plan(w, budget)).time.value();
  }
  EXPECT_LT(clip_total, all_in_total) << "at " << budget.value() << " W";
}

TEST_P(PerMachine, ParabolicAppsThrottledEverywhere) {
  const sim::MachineSpec spec = spec_for(GetParam());
  sim::SimExecutor ex(spec, no_noise());
  core::ClipScheduler sched(ex, workloads::training_benchmarks());
  const auto w = *workloads::find_benchmark("miniAero");
  const auto d = sched.schedule(w, Watts(spec.max_cluster_w() * 0.9));
  EXPECT_LT(d.cluster.node.threads, spec.shape.total_cores());
}

TEST_P(PerMachine, LinearAppsKeepAllCoresEverywhere) {
  const sim::MachineSpec spec = spec_for(GetParam());
  sim::SimExecutor ex(spec, no_noise());
  core::ClipScheduler sched(ex, workloads::training_benchmarks());
  const auto w = *workloads::find_benchmark("CoMD");
  const auto d = sched.schedule(w, Watts(spec.max_cluster_w() * 0.9));
  EXPECT_EQ(d.cluster.node.threads, spec.shape.total_cores());
}

// ------------------------------------------ single-preset properties ----

TEST(Machines, BandwidthRichMachinesPushInflectionOut) {
  sim::SimExecutor narrow(sim::haswell_testbed(), no_noise());
  sim::SimExecutor rich(spec_for("bandwidth_rich"), no_noise());
  const auto w = *workloads::find_benchmark("BT-MZ");
  const double np_narrow = core::measure_inflection(
      narrow, w, workloads::ScalabilityClass::kLogarithmic,
      parallel::AffinityPolicy::kScatter);
  const double np_rich = core::measure_inflection(
      rich, w, workloads::ScalabilityClass::kLogarithmic,
      parallel::AffinityPolicy::kScatter);
  EXPECT_GT(np_rich, np_narrow);
}

TEST(Machines, OddCoreCountMachineWorks) {
  // 28-core nodes: half-core = 14, candidates must stay within bounds.
  const sim::MachineSpec spec = spec_for("broadwell_fat");
  sim::SimExecutor ex(spec, no_noise());
  core::SmartProfiler profiler(ex);
  const auto p =
      profiler.profile(*workloads::find_benchmark("SP-MZ"));
  EXPECT_EQ(p.all_core.config.threads, 28);
  EXPECT_EQ(p.half_core.config.threads, 14);
}

}  // namespace
}  // namespace clip
