// Unit tests for the runtime module: jobs, launch scripts, the launcher with
// persistent knowledge DB, the comparison harness, and telemetry (energy
// integral invariant + the Chrome-trace counter bridge).
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <memory>

#include "baselines/all_in.hpp"
#include "baselines/lower_limit.hpp"
#include "runtime/comparison.hpp"
#include "runtime/job.hpp"
#include "runtime/launcher.hpp"
#include "runtime/telemetry.hpp"
#include "util/check.hpp"
#include "workloads/catalog.hpp"

namespace clip::runtime {
namespace {

sim::MeterOptions no_noise() {
  sim::MeterOptions m;
  m.enabled = false;
  return m;
}

// --------------------------------------------------------------------- job ----

TEST(Job, LaunchScriptContainsConfiguration) {
  JobSpec spec;
  spec.app = *workloads::find_benchmark("BT-MZ");
  spec.cluster_budget = Watts(800.0);

  sim::ClusterConfig plan;
  plan.nodes = 4;
  plan.node.threads = 16;
  plan.node.affinity = parallel::AffinityPolicy::kScatter;
  plan.node.cpu_cap = Watts(110.0);
  plan.node.mem_cap = Watts(35.0);

  const std::string script = render_launch_script(spec, plan);
  EXPECT_NE(script.find("mpirun -np 4"), std::string::npos);
  EXPECT_NE(script.find("OMP_NUM_THREADS=16"), std::string::npos);
  EXPECT_NE(script.find("OMP_PROC_BIND=scatter"), std::string::npos);
  EXPECT_NE(script.find("--pkg-cap 110"), std::string::npos);
  EXPECT_NE(script.find("BT-MZ"), std::string::npos);
}

TEST(Job, LaunchScriptEmitsPerNodeOverrides) {
  JobSpec spec;
  spec.app = *workloads::find_benchmark("CoMD");
  spec.cluster_budget = Watts(400.0);
  sim::ClusterConfig plan;
  plan.nodes = 2;
  plan.node.cpu_cap = Watts(100.0);
  plan.cpu_cap_overrides = {Watts(95.0), Watts(105.0)};
  const std::string script = render_launch_script(spec, plan);
  EXPECT_NE(script.find("--pkg-cap 95"), std::string::npos);
  EXPECT_NE(script.find("--pkg-cap 105"), std::string::npos);
}

// ---------------------------------------------------------------- launcher ----

class LauncherTest : public ::testing::Test {
 protected:
  // Unique per test case and process: ctest -j runs each case as its own
  // concurrent process, and one case's SetUp/TearDown must not delete the
  // database another case is reading.
  std::filesystem::path db_path_ =
      std::filesystem::temp_directory_path() /
      ("clip_launcher_db." +
       std::string(
           ::testing::UnitTest::GetInstance()->current_test_info()->name()) +
       "." + std::to_string(::getpid()) + ".csv");
  void SetUp() override { std::filesystem::remove(db_path_); }
  void TearDown() override { std::filesystem::remove(db_path_); }
};

TEST_F(LauncherTest, RunProducesMeasurementWithinBudget) {
  sim::SimExecutor ex{sim::MachineSpec{}, no_noise()};
  Launcher launcher(ex, workloads::training_benchmarks());
  JobSpec spec;
  spec.app = *workloads::find_benchmark("SP-MZ");
  spec.cluster_budget = Watts(900.0);
  const JobResult result = launcher.run(spec);
  EXPECT_EQ(result.method, "CLIP");
  EXPECT_GT(result.performance(), 0.0);
  EXPECT_LE(result.measurement.avg_power.value(), 900.0 * 1.01);
  EXPECT_GT(result.scheduling_overhead.value(), 0.0);
}

TEST_F(LauncherTest, KnowledgePersistsAcrossLauncherInstances) {
  sim::SimExecutor ex{sim::MachineSpec{}, no_noise()};
  JobSpec spec;
  spec.app = *workloads::find_benchmark("TeaLeaf");
  spec.cluster_budget = Watts(800.0);
  {
    Launcher first(ex, workloads::training_benchmarks(), db_path_);
    (void)first.run(spec);
  }
  EXPECT_TRUE(std::filesystem::exists(db_path_));
  // A new launcher loads the DB: the job is scheduled with zero profiling.
  Launcher second(ex, workloads::training_benchmarks(), db_path_);
  const JobResult cached = second.run(spec);
  EXPECT_DOUBLE_EQ(cached.scheduling_overhead.value(), 0.0);
}

TEST_F(LauncherTest, PlanScriptIsRenderable) {
  sim::SimExecutor ex{sim::MachineSpec{}, no_noise()};
  Launcher launcher(ex, workloads::training_benchmarks());
  JobSpec spec;
  spec.app = *workloads::find_benchmark("AMG");
  spec.cluster_budget = Watts(700.0);
  const std::string script = launcher.plan_script(spec);
  EXPECT_NE(script.find("#!/bin/sh"), std::string::npos);
  EXPECT_NE(script.find("AMG"), std::string::npos);
}

// -------------------------------------------------------------- comparison ----

class ComparisonTest : public ::testing::Test {
 protected:
  sim::SimExecutor ex_{sim::MachineSpec{}, no_noise()};
};

TEST_F(ComparisonTest, ProducesOneCellPerAppBudgetMethod) {
  ComparisonHarness h(ex_);
  h.add_method(std::make_shared<baselines::AllInScheduler>(ex_.spec()));
  h.add_method(std::make_shared<baselines::LowerLimitScheduler>(ex_.spec()));
  const std::vector<workloads::WorkloadSignature> apps = {
      *workloads::find_benchmark("CoMD"),
      *workloads::find_benchmark("BT-MZ")};
  const ComparisonResult r = h.run(apps, {600.0, 1000.0});
  EXPECT_EQ(r.cells.size(), 2u * 2u * 2u);
}

TEST_F(ComparisonTest, RelativePerformanceAgainstUnboundedAllIn) {
  ComparisonHarness h(ex_);
  h.add_method(std::make_shared<baselines::AllInScheduler>(ex_.spec()));
  const std::vector<workloads::WorkloadSignature> apps = {
      *workloads::find_benchmark("CoMD")};
  // At a huge budget All-In equals the unbounded reference: relative = 1.
  const ComparisonResult r = h.run(apps, {1e6});
  ASSERT_EQ(r.cells.size(), 1u);
  EXPECT_NEAR(r.cells[0].relative_performance, 1.0, 1e-9);
}

TEST_F(ComparisonTest, MeanRelativeAggregates) {
  ComparisonHarness h(ex_);
  h.add_method(std::make_shared<baselines::AllInScheduler>(ex_.spec()));
  const std::vector<workloads::WorkloadSignature> apps = {
      *workloads::find_benchmark("CoMD"),
      *workloads::find_benchmark("miniMD")};
  const ComparisonResult r = h.run(apps, {800.0});
  const double mean = r.mean_relative("All-In", 800.0);
  EXPECT_GT(mean, 0.0);
  EXPECT_LT(mean, 1.0);  // bounded run is slower than unbounded reference
}

TEST_F(ComparisonTest, FindReturnsNullForMissingCell) {
  ComparisonResult r;
  EXPECT_EQ(r.find("x", "", 1.0, "m"), nullptr);
}

TEST_F(ComparisonTest, MeanImprovementIsZeroAgainstItself) {
  ComparisonHarness h(ex_);
  h.add_method(std::make_shared<baselines::AllInScheduler>(ex_.spec()));
  const std::vector<workloads::WorkloadSignature> apps = {
      *workloads::find_benchmark("CoMD")};
  const ComparisonResult r = h.run(apps, {800.0});
  EXPECT_NEAR(r.mean_improvement("All-In", "All-In"), 0.0, 1e-12);
}

TEST_F(ComparisonTest, EmptyHarnessRejected) {
  ComparisonHarness h(ex_);
  EXPECT_THROW(
      (void)h.run({*workloads::find_benchmark("CoMD")}, {800.0}),
      PreconditionError);
  EXPECT_THROW(h.add_method(nullptr), PreconditionError);
}

// --------------------------------------------------------------- telemetry ----

TEST(TelemetryTest, EnergyIntegralReproducesMeasuredEnergy) {
  // The invariant telemetry.hpp documents: with meter noise off, the
  // rectangle-rule integral of the power series equals the job's measured
  // energy up to the final partial sample period.
  sim::SimExecutor ex{sim::MachineSpec{}, no_noise()};
  const auto app = *workloads::find_benchmark("CoMD");
  sim::ClusterConfig cfg;
  cfg.nodes = 3;
  cfg.node.threads = 16;
  const sim::Measurement m = ex.run_exact(app, cfg);

  TelemetryOptions opt;
  opt.noise_sigma = 0.0;
  const Telemetry telemetry(opt);
  const auto series = telemetry.record(m, cfg.node.threads);
  const double integral = Telemetry::energy_j(series, opt.sample_period_s);
  // One sample period of slack per node covers the truncated last interval.
  const double slack =
      m.avg_power.value() * opt.sample_period_s * (1.0 + cfg.nodes);
  EXPECT_NEAR(integral, m.energy.value(), slack);
}

TEST(TelemetryTest, TraceCounterBridgePreservesSeries) {
  sim::SimExecutor ex{sim::MachineSpec{}, no_noise()};
  const auto app = *workloads::find_benchmark("SP-MZ");
  sim::ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.node.threads = 8;
  const sim::Measurement m = ex.run_exact(app, cfg);

  TelemetryOptions opt;
  opt.noise_sigma = 0.0;
  const auto series = Telemetry(opt).record(m, cfg.node.threads);
  const auto counters = Telemetry::to_trace_counters(series);
  ASSERT_EQ(counters.size(), series.size());
  for (std::size_t i = 0; i < series.size(); ++i) {
    EXPECT_EQ(counters[i].name,
              "power.node" + std::to_string(series[i].node));
    EXPECT_DOUBLE_EQ(counters[i].time_us, series[i].time_s * 1e6);
    ASSERT_EQ(counters[i].series.size(), 2u);
    EXPECT_EQ(counters[i].series[0].first, "cpu_w");
    EXPECT_DOUBLE_EQ(counters[i].series[0].second, series[i].cpu_power_w);
    EXPECT_EQ(counters[i].series[1].first, "mem_w");
    EXPECT_DOUBLE_EQ(counters[i].series[1].second, series[i].mem_power_w);
  }
}

}  // namespace
}  // namespace clip::runtime
