// Unit tests for the runtime module: jobs, launch scripts, the launcher with
// persistent knowledge DB, the comparison harness, telemetry (energy
// integral invariant + the Chrome-trace counter bridge), the queue's
// pending-job index, and how often its admission pass consults CLIP.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <set>

#include "baselines/all_in.hpp"
#include "baselines/lower_limit.hpp"
#include "runtime/comparison.hpp"
#include "runtime/job.hpp"
#include "runtime/launcher.hpp"
#include "runtime/pending_index.hpp"
#include "runtime/queue.hpp"
#include "runtime/telemetry.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "workloads/catalog.hpp"
#include "workloads/random.hpp"
#include "test_support.hpp"

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
  std::filesystem::path db_path_ =
      test::case_temp_path("clip_launcher_db", ".csv");
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

// ----------------------------------------------------------- pending index ----

TEST(PendingIndex, FirstSkipsJobsWhoseNeedExceedsTheReach) {
  PendingIndex idx(10);
  EXPECT_TRUE(idx.empty());
  EXPECT_EQ(idx.first(0), PendingIndex::npos);
  idx.set(2, 8);
  idx.set(3, 0);
  idx.set(7, 4);
  EXPECT_EQ(idx.size(), 3u);
  EXPECT_EQ(idx.first(0), 2u);
  EXPECT_EQ(idx.first(0, 3), 3u);
  EXPECT_EQ(idx.first(4, 3), PendingIndex::npos);
  EXPECT_EQ(idx.first(4, 4), 7u);
  EXPECT_EQ(idx.first(8), PendingIndex::npos);
  EXPECT_EQ(idx.first(10), PendingIndex::npos);
  idx.set(2, 0);  // a need can change in place
  EXPECT_EQ(idx.size(), 3u);
  EXPECT_EQ(idx.first(0, 0), 2u);
  idx.erase(3);
  idx.erase(3);  // erasing a job that is not pending is a no-op
  EXPECT_EQ(idx.size(), 2u);
  EXPECT_EQ(idx.first(3, 0), PendingIndex::npos);
  EXPECT_THROW(idx.set(10, 0), PreconditionError);
  EXPECT_THROW(idx.set(0, -1), PreconditionError);
}

TEST(PendingIndex, MatchesALinearScanUnderRandomEdits) {
  for (const std::size_t jobs : {1u, 2u, 5u, 64u, 100u}) {
    PendingIndex idx(jobs);
    std::vector<int> need(jobs, -1);  // -1: not pending
    Rng rng(jobs);
    for (int step = 0; step < 2000; ++step) {
      const auto j = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(jobs) - 1));
      if (rng.uniform(0.0, 1.0) < 0.4) {
        idx.erase(j);
        need[j] = -1;
      } else {
        need[j] = rng.uniform_int(0, 8);
        idx.set(j, need[j]);
      }
      const auto from = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(jobs)));
      const int reach = rng.uniform_int(0, 9);
      std::size_t want = PendingIndex::npos;
      for (std::size_t k = from; k < jobs && want == PendingIndex::npos; ++k)
        if (need[k] >= 0 && need[k] <= reach) want = k;
      ASSERT_EQ(idx.first(from, reach), want)
          << "jobs=" << jobs << " step=" << step;
      ASSERT_EQ(idx.size(), static_cast<std::size_t>(std::count_if(
                                need.begin(), need.end(),
                                [](int v) { return v >= 0; })));
    }
  }
}

// --------------------------------------------------------- queue admission ----

// The admission pass consults CLIP only for jobs that can start. A pinned job
// wider than the free nodes is skipped once CLIP knows its app, and the pass
// ends when no node or no minimum node power is left. A first-sight app
// still goes through schedule(), so each app is characterized once, at the
// instant it always was, and the report equals the one recorded when the
// pass consulted CLIP for every pending job (~1,900 schedules per stream).

/// 200 jobs over 32 distinct random apps; every fifth job is pinned to 1,
/// 2, 4 or 8 nodes in turn, as perfbench's queue-deep streams are.
std::vector<QueueJob> pinned_stream() {
  static const int kNodeCounts[] = {1, 2, 4, 8};
  auto pool = workloads::random_signatures(0x5EED, 32);
  // The generator numbers names process-wide; fix them so the report, and
  // with it the recorded fingerprint, does not depend on test order.
  for (std::size_t k = 0; k < pool.size(); ++k)
    pool[k].name = "pool-" + std::to_string(k);
  Rng rng(0xADD);
  std::vector<QueueJob> jobs;
  for (int i = 0; i < 200; ++i) {
    QueueJob job;
    job.app = pool[static_cast<std::size_t>(rng.uniform_int(0, 31))];
    if (i % 5 == 4) job.requested_nodes = kNodeCounts[(i / 5) % 4];
    jobs.push_back(std::move(job));
  }
  return jobs;
}

void expect_consult_contract(bool backfill, std::uint64_t recorded) {
  sim::SimExecutor ex{sim::MachineSpec{}};  // noisy meter: profiling draws
  core::ClipScheduler sched{ex, workloads::training_benchmarks()};
  obs::ObsSession session;
  sched.set_observer(&session);
  QueueOptions opt;
  opt.cluster_budget = Watts(700.0);
  opt.backfill = backfill;
  const std::vector<QueueJob> jobs = pinned_stream();
  QueueEventLoop loop(ex, sched, opt, jobs);
  const QueueReport r = loop.run();

  std::set<std::string> apps;
  for (const auto& job : jobs) apps.insert(job.app.name);
  std::uint64_t starts = 0;
  for (const auto& out : r.jobs)
    starts += static_cast<std::uint64_t>(out.attempts);
  const auto counter = [&](const char* name) -> std::uint64_t {
    const auto* c = session.metrics().find_counter(name);
    return c != nullptr ? c->value() : 0;
  };
  EXPECT_EQ(r.jobs_completed(), jobs.size());
  EXPECT_EQ(counter("scheduler.db_misses"), apps.size());
  EXPECT_LE(counter("scheduler.schedules"), starts + apps.size());
  EXPECT_EQ(test::fnv1a(test::report_fingerprint(r)), recorded);
}

TEST(QueueAdmission, ConsultsClipOnlyForJobsThatCanStart) {
  expect_consult_contract(true, 0xc7d9b04c7c6ab8e9ULL);
}

TEST(QueueAdmission, ConsultsClipOnlyForJobsThatCanStartWithoutBackfill) {
  expect_consult_contract(false, 0xf5e1c44f7afe514fULL);
}

}  // namespace
}  // namespace clip::runtime
