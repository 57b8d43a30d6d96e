// Tests for the fault-injection subsystem (clip::fault) and the resilient
// runtime: plan validation and seeded generation, the injector's window
// resolution, the budget guard, crash/requeue/claw-back behavior of the
// power-aware queue, launcher degradation, and knowledge-DB hardening.
// All of it is seeded and deterministic — see docs/robustness.md.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <unistd.h>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "core/scheduler.hpp"
#include "fault/budget_guard.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "obs/session.hpp"
#include "obs/timeline.hpp"
#include "runtime/launcher.hpp"
#include "runtime/queue.hpp"
#include "runtime/run_report.hpp"
#include "sim/executor.hpp"
#include "sim/power_meter.hpp"
#include "test_support.hpp"
#include "util/check.hpp"
#include "util/strings.hpp"
#include "workloads/catalog.hpp"

namespace clip {
namespace {

sim::MeterOptions no_noise() {
  sim::MeterOptions m;
  m.enabled = false;
  return m;
}

std::string metrics_fingerprint(obs::ObsSession& session) {
  std::ostringstream os;
  session.metrics().summary_table().print(os);
  return os.str();
}

/// One self-contained queue run: fresh executor/scheduler/queue so repeated
/// runs share no state (the knowledge DB warms per scheduler).
struct QueueRun {
  runtime::QueueReport report;
  std::string report_fp;
  std::string metrics_fp;
};

QueueRun run_queue(const std::vector<workloads::WorkloadSignature>& jobs,
                   runtime::QueueOptions opt,
                   const fault::FaultPlan* plan = nullptr) {
  sim::SimExecutor ex{sim::MachineSpec{}, no_noise()};
  core::ClipScheduler sched{ex, workloads::training_benchmarks()};
  obs::ObsSession session;
  runtime::PowerAwareJobQueue queue(ex, sched, opt);
  queue.set_observer(&session);
  std::optional<fault::FaultInjector> injector;
  if (plan != nullptr) {
    injector.emplace(*plan, ex.spec().nodes);
    queue.set_fault_injector(&*injector);
  }
  QueueRun out;
  out.report = queue.run(jobs);
  out.report_fp = test::report_fingerprint(out.report);
  out.metrics_fp = metrics_fingerprint(session);
  return out;
}

std::uint64_t counter_of(obs::ObsSession& s, const char* name) {
  const auto* c = s.metrics().find_counter(name);
  return c != nullptr ? c->value() : 0;
}

// ------------------------------------------------------------- fault plan ----

TEST(FaultPlan, ValidateRejectsOutOfRangeNode) {
  fault::FaultPlan plan;
  plan.crashes.push_back({99, 10.0});
  EXPECT_THROW(plan.validate(8), PreconditionError);
  plan.crashes[0].node = -1;
  EXPECT_THROW(plan.validate(8), PreconditionError);
  plan.crashes[0].node = 7;
  EXPECT_NO_THROW(plan.validate(8));
}

TEST(FaultPlan, ValidateRejectsBadFields) {
  fault::FaultPlan plan;
  plan.degrades.push_back({0, 5.0, 0.0});  // factor must be in (0, 1]
  EXPECT_THROW(plan.validate(8), PreconditionError);
  plan.degrades[0].speed_factor = 1.5;
  EXPECT_THROW(plan.validate(8), PreconditionError);
  plan.degrades.clear();
  plan.meter_faults.push_back({0, 5.0, -1.0, fault::MeterFaultKind::kDropout,
                               0.0});
  EXPECT_THROW(plan.validate(8), PreconditionError);
  plan.meter_faults.clear();
  plan.cap_violations.push_back({0, 5.0, 30.0, -40.0});
  EXPECT_THROW(plan.validate(8), PreconditionError);
}

TEST(FaultPlan, RandomIsSeedDeterministic) {
  const auto a = fault::FaultPlan::random(7, 8, 500.0);
  const auto b = fault::FaultPlan::random(7, 8, 500.0);
  EXPECT_EQ(a.describe(), b.describe());
  EXPECT_EQ(a.size(), b.size());
  const auto c = fault::FaultPlan::random(8, 8, 500.0);
  EXPECT_NE(a.describe(), c.describe());
}

TEST(FaultPlan, RandomHonorsShape) {
  fault::FaultPlanShape shape;
  shape.crashes = 2;
  shape.degrades = 3;
  shape.meter_faults = 4;
  shape.cap_violations = 5;
  const auto plan = fault::FaultPlan::random(1, 8, 1000.0, shape);
  EXPECT_EQ(plan.crashes.size(), 2u);
  EXPECT_EQ(plan.degrades.size(), 3u);
  EXPECT_EQ(plan.meter_faults.size(), 4u);
  EXPECT_EQ(plan.cap_violations.size(), 5u);
  EXPECT_FALSE(plan.empty());
  EXPECT_NO_THROW(plan.validate(8));
}

// ----------------------------------------------------------- retry policy ----

TEST(RetryPolicy, BackoffGrowsExponentially) {
  fault::RetryPolicy p;
  p.backoff_base_s = 5.0;
  p.backoff_factor = 2.0;
  EXPECT_DOUBLE_EQ(p.backoff_s(1), 5.0);
  EXPECT_DOUBLE_EQ(p.backoff_s(2), 10.0);
  EXPECT_DOUBLE_EQ(p.backoff_s(3), 20.0);
}

TEST(RetryPolicy, ValidateRejectsBadFields) {
  fault::RetryPolicy p;
  p.max_attempts = 0;
  EXPECT_THROW(p.validate(), PreconditionError);
  p.max_attempts = 3;
  p.backoff_factor = 0.5;
  EXPECT_THROW(p.validate(), PreconditionError);
}

// --------------------------------------------------------------- injector ----

TEST(FaultInjector, ResolveCrashAbortsRun) {
  fault::FaultPlan plan;
  plan.crashes.push_back({2, 50.0});
  fault::FaultInjector inj(plan, 8);
  const auto res = inj.resolve(10.0, 100.0, {1, 2});
  EXPECT_TRUE(res.crashed);
  EXPECT_EQ(res.crashed_node, 2);
  EXPECT_DOUBLE_EQ(res.end_s, 50.0);
  // A run not holding the crashed node is untouched.
  const auto clean = inj.resolve(10.0, 100.0, {0, 3});
  EXPECT_FALSE(clean.crashed);
  EXPECT_DOUBLE_EQ(clean.end_s, 110.0);
  EXPECT_TRUE(inj.node_crashed(2, 60.0));
  EXPECT_FALSE(inj.node_crashed(2, 40.0));
}

TEST(FaultInjector, ResolveDegradeStretchesPiecewise) {
  fault::FaultPlan plan;
  plan.degrades.push_back({1, 50.0, 0.5});
  fault::FaultInjector inj(plan, 8);
  // 100 s of work from t=0: 50 s at full rate, the remaining 50 s of work
  // at half speed takes 100 s -> ends at 150.
  const auto res = inj.resolve(0.0, 100.0, {1});
  EXPECT_FALSE(res.crashed);
  EXPECT_DOUBLE_EQ(res.end_s, 150.0);
  EXPECT_DOUBLE_EQ(res.slowdown, 1.5);
  // A job started after the degrade runs at the degraded rate throughout.
  const auto after = inj.resolve(100.0, 100.0, {1});
  EXPECT_DOUBLE_EQ(after.end_s, 300.0);
  // The job paces at its slowest node even when healthy nodes are held too.
  const auto mixed = inj.resolve(100.0, 100.0, {0, 1});
  EXPECT_DOUBLE_EQ(mixed.end_s, 300.0);
}

TEST(FaultInjector, MeterCorruptionIsWindowed) {
  fault::FaultPlan plan;
  plan.meter_faults.push_back(
      {3, 100.0, 50.0, fault::MeterFaultKind::kStuckAt, 77.0});
  plan.meter_faults.push_back(
      {4, 100.0, 50.0, fault::MeterFaultKind::kDropout, 0.0});
  plan.meter_faults.push_back(
      {5, 100.0, 50.0, fault::MeterFaultKind::kSpike, 10.0});
  fault::FaultInjector inj(plan, 8);
  EXPECT_DOUBLE_EQ(inj.observed_node_power(3, 120.0, 200.0), 77.0);
  EXPECT_DOUBLE_EQ(inj.observed_node_power(4, 120.0, 200.0), 0.0);
  EXPECT_DOUBLE_EQ(inj.observed_node_power(5, 120.0, 200.0), 2000.0);
  // Outside the window — and on unaffected nodes — truth passes through.
  EXPECT_DOUBLE_EQ(inj.observed_node_power(3, 99.0, 200.0), 200.0);
  EXPECT_DOUBLE_EQ(inj.observed_node_power(3, 150.0, 200.0), 200.0);
  EXPECT_DOUBLE_EQ(inj.observed_node_power(0, 120.0, 200.0), 200.0);
}

TEST(FaultInjector, CapExcessTruncationAndViolatingNodes) {
  fault::FaultPlan plan;
  plan.cap_violations.push_back({2, 100.0, 200.0, 40.0});
  fault::FaultInjector inj(plan, 8);
  EXPECT_DOUBLE_EQ(inj.cap_excess_w({2}, 150.0), 40.0);
  EXPECT_DOUBLE_EQ(inj.cap_excess_w({3}, 150.0), 0.0);
  EXPECT_DOUBLE_EQ(inj.cap_excess_w({2}, 99.0), 0.0);
  EXPECT_EQ(inj.violating_nodes({1, 2, 3}, 150.0), std::vector<int>{2});
  // Claw-back truncates the window at the enforcement instant.
  EXPECT_EQ(inj.truncate_cap_violations(2, 150.0), 1);
  EXPECT_DOUBLE_EQ(inj.cap_excess_w({2}, 151.0), 0.0);
  EXPECT_TRUE(inj.violating_nodes({1, 2, 3}, 151.0).empty());
  EXPECT_EQ(inj.truncate_cap_violations(2, 160.0), 0);
}

TEST(FaultInjector, WakeupsAreSortedWindowEdges) {
  fault::FaultPlan plan;
  plan.crashes.push_back({0, 300.0});
  plan.meter_faults.push_back(
      {1, 100.0, 50.0, fault::MeterFaultKind::kDropout, 0.0});
  plan.cap_violations.push_back({2, 200.0, 40.0, 30.0});
  fault::FaultInjector inj(plan, 8);
  const std::vector<double> expect = {100.0, 150.0, 200.0, 240.0, 300.0};
  EXPECT_EQ(inj.wakeups(), expect);
}

// ------------------------------------------------------------ budget guard ----

TEST(BudgetGuard, FiltersImplausibleReadings) {
  fault::BudgetGuardOptions opt;
  opt.min_plausible_node_w = 5.0;
  opt.max_plausible_node_w = 500.0;
  fault::BudgetGuard guard(opt, Watts(1000.0));
  EXPECT_DOUBLE_EQ(guard.filter_reading(120.0, 100.0), 120.0);
  EXPECT_DOUBLE_EQ(guard.filter_reading(0.0, 100.0), 100.0);     // dropout
  EXPECT_DOUBLE_EQ(guard.filter_reading(2400.0, 100.0), 100.0);  // spike
  EXPECT_EQ(guard.rejected_reads(), 2u);
}

TEST(BudgetGuard, OvershootAndAccounting) {
  fault::BudgetGuard guard(fault::BudgetGuardOptions{}, Watts(1000.0));
  EXPECT_FALSE(guard.overshoot(999.0));
  EXPECT_FALSE(guard.overshoot(1000.0));
  EXPECT_TRUE(guard.overshoot(1040.0));
  guard.account(10.0, 900.0);   // under budget: nothing accrues
  guard.account(5.0, 1040.0);   // 40 W over for 5 s
  EXPECT_DOUBLE_EQ(guard.violation_s(), 5.0);
  EXPECT_DOUBLE_EQ(guard.violation_ws(), 200.0);
  fault::BudgetGuardOptions off;
  off.enabled = false;
  fault::BudgetGuard disabled(off, Watts(1000.0));
  EXPECT_FALSE(disabled.overshoot(5000.0));
}

// --------------------------------------------------------- resilient queue ----

TEST(ResilientQueue, EmptyPlanIsByteIdenticalToNoInjector) {
  runtime::QueueOptions opt;
  opt.cluster_budget = Watts(700.0);
  const auto jobs = workloads::paper_benchmarks();
  const QueueRun plain = run_queue(jobs, opt);
  const fault::FaultPlan empty;
  const QueueRun faulted = run_queue(jobs, opt, &empty);
  EXPECT_EQ(plain.report_fp, faulted.report_fp);
  EXPECT_EQ(plain.report.retries, 0);
  EXPECT_EQ(faulted.report.retries, 0);
  EXPECT_EQ(faulted.report.violation_s, 0.0);
  EXPECT_EQ(faulted.report.jobs_completed(), jobs.size());
}

TEST(ResilientQueue, SurvivesTwoOfEightNodeCrashes) {
  runtime::QueueOptions opt;
  opt.cluster_budget = Watts(700.0);
  const auto jobs = workloads::paper_benchmarks();
  const QueueRun baseline = run_queue(jobs, opt);
  const double makespan = baseline.report.makespan_s;
  ASSERT_GT(makespan, 0.0);

  fault::FaultPlan plan;
  plan.crashes.push_back({2, 0.25 * makespan});
  plan.crashes.push_back({5, 0.5 * makespan});

  sim::SimExecutor ex{sim::MachineSpec{}, no_noise()};
  core::ClipScheduler sched{ex, workloads::training_benchmarks()};
  obs::ObsSession session;
  runtime::PowerAwareJobQueue queue(ex, sched, opt);
  queue.set_observer(&session);
  fault::FaultInjector injector(plan, ex.spec().nodes);
  queue.set_fault_injector(&injector);
  const auto report = queue.run(jobs);

  // Acceptance scenario: every job completes despite losing 2 of 8 nodes.
  EXPECT_EQ(report.jobs_completed(), jobs.size());
  EXPECT_EQ(report.jobs_failed, 0);
  EXPECT_EQ(report.crashed_nodes.size(), 2u);
  EXPECT_LE(report.retries,
            static_cast<int>(jobs.size()) * opt.retry.max_attempts);
  // No cap violations were injected, so the bound held throughout.
  EXPECT_DOUBLE_EQ(report.violation_s, 0.0);
  // Note: makespan may go *either* way — power, not nodes, is the binding
  // constraint, so concentrating 700 W on 6 survivors can speed jobs up.
  EXPECT_GT(report.makespan_s, 0.0);
  EXPECT_TRUE(std::isfinite(report.makespan_s));
  // Reserved power never exceeds the budget at any start instant.
  for (const auto& a : report.jobs) {
    double watts = 0.0;
    for (const auto& b : report.jobs)
      if (b.start_s <= a.start_s && a.start_s < b.end_s) watts += b.budget_w;
    EXPECT_LE(watts, 700.0 * 1.001) << "at t=" << a.start_s;
  }
  EXPECT_EQ(counter_of(session, "fault.crashes"), 2u);
  EXPECT_EQ(counter_of(session, "queue.retries"),
            static_cast<std::uint64_t>(report.retries));
}

TEST(ResilientQueue, AllNodesDeadMarksJobsFailed) {
  runtime::QueueOptions opt;
  opt.cluster_budget = Watts(700.0);
  fault::FaultPlan plan;
  for (int n = 0; n < 8; ++n) plan.crashes.push_back({n, 5.0});
  const std::vector<workloads::WorkloadSignature> jobs = {
      *workloads::find_benchmark("CoMD"), *workloads::find_benchmark("EP")};
  const QueueRun run = run_queue(jobs, opt, &plan);
  // Every job is accounted for: completed or failed, nothing in limbo.
  EXPECT_EQ(run.report.jobs_completed() +
                static_cast<std::size_t>(run.report.jobs_failed),
            jobs.size());
  EXPECT_EQ(run.report.jobs_failed, static_cast<int>(jobs.size()));
  EXPECT_EQ(run.report.crashed_nodes.size(), 8u);
  for (const auto& j : run.report.jobs) {
    EXPECT_FALSE(j.completed);
    EXPECT_LE(j.attempts, opt.retry.max_attempts);
  }
}

TEST(ResilientQueue, GuardClawsBackCapViolation) {
  runtime::QueueOptions opt;
  opt.cluster_budget = Watts(700.0);
  opt.guard.reaction_s = 2.0;
  fault::FaultPlan plan;
  plan.cap_violations.push_back({0, 1.0, 1e6, 100.0});  // effectively forever
  const std::vector<workloads::WorkloadSignature> jobs = {
      *workloads::find_benchmark("CoMD"), *workloads::find_benchmark("EP"),
      *workloads::find_benchmark("LULESH")};
  const QueueRun run = run_queue(jobs, opt, &plan);
  EXPECT_EQ(run.report.jobs_completed(), jobs.size());
  // The guard detected the overshoot and re-programmed the cap...
  EXPECT_GE(run.report.caps_reprogrammed, 1);
  // ...so the violation lasted about the reaction latency, not the window.
  EXPECT_GT(run.report.violation_s, 0.0);
  EXPECT_LE(run.report.violation_s, 10.0 * opt.guard.reaction_s);
  EXPECT_GT(run.report.violation_ws, 0.0);
}

TEST(ResilientQueue, DisabledGuardAccountsFullViolationWindow) {
  runtime::QueueOptions with_guard;
  with_guard.cluster_budget = Watts(700.0);
  runtime::QueueOptions no_guard = with_guard;
  no_guard.guard.enabled = false;
  fault::FaultPlan plan;
  plan.cap_violations.push_back({0, 1.0, 1e6, 100.0});
  const std::vector<workloads::WorkloadSignature> jobs = {
      *workloads::find_benchmark("CoMD"), *workloads::find_benchmark("EP")};
  const QueueRun guarded = run_queue(jobs, with_guard, &plan);
  const QueueRun unguarded = run_queue(jobs, no_guard, &plan);
  EXPECT_EQ(unguarded.report.caps_reprogrammed, 0);
  // Unenforced, the violation persists while node 0 is active; the guard
  // cuts it to roughly its reaction latency.
  EXPECT_GT(unguarded.report.violation_s, guarded.report.violation_s);
}

TEST(ResilientQueue, MeterDropoutDoesNotTriggerFalseReaction) {
  runtime::QueueOptions opt;
  opt.cluster_budget = Watts(700.0);
  fault::FaultPlan plan;
  plan.meter_faults.push_back(
      {0, 0.0, 1e6, fault::MeterFaultKind::kDropout, 0.0});
  plan.meter_faults.push_back(
      {1, 0.0, 1e6, fault::MeterFaultKind::kSpike, 50.0});
  const std::vector<workloads::WorkloadSignature> jobs = {
      *workloads::find_benchmark("CoMD"), *workloads::find_benchmark("EP")};
  const QueueRun run = run_queue(jobs, opt, &plan);
  EXPECT_EQ(run.report.jobs_completed(), jobs.size());
  // Implausible readings were filtered instead of believed...
  EXPECT_GT(run.report.meter_reads_rejected, 0u);
  // ...so no cap was clawed back and no violation was recorded.
  EXPECT_EQ(run.report.caps_reprogrammed, 0);
  EXPECT_DOUBLE_EQ(run.report.violation_s, 0.0);
}

TEST(ResilientQueue, DegradeStretchesMakespan) {
  runtime::QueueOptions opt;
  opt.cluster_budget = Watts(700.0);
  const std::vector<workloads::WorkloadSignature> jobs = {
      *workloads::find_benchmark("CoMD"), *workloads::find_benchmark("EP")};
  const QueueRun baseline = run_queue(jobs, opt);
  fault::FaultPlan plan;
  for (int n = 0; n < 8; ++n) plan.degrades.push_back({n, 0.0, 0.5});
  const QueueRun degraded = run_queue(jobs, opt, &plan);
  EXPECT_EQ(degraded.report.jobs_completed(), jobs.size());
  EXPECT_GT(degraded.report.makespan_s, baseline.report.makespan_s * 1.5);
}

TEST(ResilientQueue, SameSeedIsByteIdenticalAcrossRuns) {
  runtime::QueueOptions opt;
  opt.cluster_budget = Watts(700.0);
  const auto jobs = workloads::paper_benchmarks();
  fault::FaultPlanShape shape;
  shape.crashes = 2;
  shape.cap_violations = 2;
  const auto plan = fault::FaultPlan::random(42, 8, 2000.0, shape);
  const QueueRun a = run_queue(jobs, opt, &plan);
  const QueueRun b = run_queue(jobs, opt, &plan);
  EXPECT_EQ(a.report_fp, b.report_fp);
  EXPECT_EQ(a.metrics_fp, b.metrics_fp);
}

TEST(ResilientQueue, ValidationNamesTheOffendingField) {
  sim::SimExecutor ex{sim::MachineSpec{}, no_noise()};
  core::ClipScheduler sched{ex, workloads::training_benchmarks()};
  const auto message_of = [](auto&& fn) -> std::string {
    try {
      fn();
    } catch (const PreconditionError& e) {
      return e.what();
    }
    return {};
  };
  runtime::QueueOptions opt;
  opt.cluster_budget = Watts(0.0);
  EXPECT_NE(message_of([&] {
              runtime::PowerAwareJobQueue q(ex, sched, opt);
            }).find("cluster_budget"),
            std::string::npos);
  opt.cluster_budget = Watts(-5.0);
  EXPECT_NE(message_of([&] {
              runtime::PowerAwareJobQueue q(ex, sched, opt);
            }).find("cluster_budget"),
            std::string::npos);
  opt.cluster_budget = Watts(100.0);
  opt.min_node_power_w = -1.0;
  EXPECT_NE(message_of([&] {
              runtime::PowerAwareJobQueue q(ex, sched, opt);
            }).find("min_node_power_w"),
            std::string::npos);
  opt.min_node_power_w = 200.0;  // exceeds the 100 W budget
  EXPECT_NE(message_of([&] {
              runtime::PowerAwareJobQueue q(ex, sched, opt);
            }).find("min_node_power_w"),
            std::string::npos);
  runtime::QueueOptions ok;
  ok.cluster_budget = Watts(700.0);
  runtime::PowerAwareJobQueue queue(ex, sched, ok);
  const std::string msg = message_of([&] {
    (void)queue.run({runtime::QueueJob{*workloads::find_benchmark("EP"), 99}});
  });
  EXPECT_NE(msg.find("requested_nodes"), std::string::npos);
  EXPECT_NE(msg.find("99"), std::string::npos);
}

TEST(ResilientQueue, RequestedNodesIsHonored) {
  sim::SimExecutor ex{sim::MachineSpec{}, no_noise()};
  core::ClipScheduler sched{ex, workloads::training_benchmarks()};
  runtime::QueueOptions opt;
  opt.cluster_budget = Watts(900.0);
  runtime::PowerAwareJobQueue queue(ex, sched, opt);
  const auto report =
      queue.run({runtime::QueueJob{*workloads::find_benchmark("CoMD"), 2}});
  ASSERT_EQ(report.jobs.size(), 1u);
  EXPECT_EQ(report.jobs[0].nodes, 2);
  EXPECT_TRUE(report.jobs[0].completed);
}

// ----------------------------------------------------- launcher degradation ----

TEST(LauncherResilience, FallsBackOnCorruptKnowledgeRecord) {
  sim::SimExecutor ex{sim::MachineSpec{}, no_noise()};
  runtime::Launcher launcher(ex, workloads::training_benchmarks());
  obs::ObsSession session;
  launcher.set_observer(&session);

  const auto app = *workloads::find_benchmark("CoMD");
  core::KnowledgeRecord bad;
  bad.name = app.name;
  bad.parameters = app.parameters;
  bad.perf_ratio = -1.0;  // physically impossible
  bad.time_all_s = 10.0;
  bad.time_half_s = 14.0;
  bad.cpu_power_all_w = 150.0;
  launcher.scheduler().knowledge_db().insert(bad);

  runtime::JobSpec spec;
  spec.app = app;
  spec.cluster_budget = Watts(700.0);
  const auto result = launcher.run(spec);
  EXPECT_EQ(result.method, "CLIP-fallback");
  EXPECT_GT(result.measurement.time.value(), 0.0);
  // Conservative degraded-mode shape: half the nodes, all cores.
  EXPECT_EQ(result.plan.nodes, ex.spec().nodes / 2);
  EXPECT_EQ(result.plan.node.threads, ex.spec().shape.total_cores());
  EXPECT_EQ(counter_of(session, "runtime.fallbacks"), 1u);

  // A healthy app on the same launcher still schedules normally.
  runtime::JobSpec healthy;
  healthy.app = *workloads::find_benchmark("EP");
  healthy.cluster_budget = Watts(700.0);
  EXPECT_EQ(launcher.run(healthy).method, "CLIP");
}

TEST(LauncherResilience, UserErrorsStillThrow) {
  sim::SimExecutor ex{sim::MachineSpec{}, no_noise()};
  runtime::Launcher launcher(ex, workloads::training_benchmarks());
  runtime::JobSpec spec;
  spec.app = *workloads::find_benchmark("CoMD");
  spec.cluster_budget = Watts(-100.0);
  EXPECT_THROW((void)launcher.run(spec), PreconditionError);
}

TEST(LauncherResilience, SurvivesCorruptDbFileAtConstruction) {
  const auto path = test::case_temp_path("clip_test_fault_corrupt_db", ".csv");
  {
    std::ofstream os(path);
    os << "not,a,knowledge,db\n1,2,3\n";
  }
  sim::SimExecutor ex{sim::MachineSpec{}, no_noise()};
  runtime::Launcher launcher(ex, workloads::training_benchmarks(), path);
  EXPECT_FALSE(launcher.db_load_error().empty());
  EXPECT_EQ(launcher.scheduler().knowledge_db().size(), 0u);
  // The launcher still works: the app simply re-characterizes.
  runtime::JobSpec spec;
  spec.app = *workloads::find_benchmark("EP");
  spec.cluster_budget = Watts(700.0);
  EXPECT_EQ(launcher.run(spec).method, "CLIP");
  std::filesystem::remove(path);
}

// ------------------------------------------------------ knowledge-DB hardening ----

class KnowledgeDbHardening : public ::testing::Test {
 protected:
  void SetUp() override {
    core::KnowledgeRecord r;
    r.name = "app";
    r.parameters = "n=1";
    r.perf_ratio = 0.6;
    r.time_all_s = 10.0;
    r.time_half_s = 16.0;
    r.cpu_power_all_w = 150.0;
    r.mem_power_all_w = 20.0;
    db_.insert(r);
    r.parameters = "n=2";
    db_.insert(r);
    path_ = test::case_temp_path("clip_test_fault_kdb", ".csv");
    db_.save(path_);
  }
  void TearDown() override { std::filesystem::remove(path_); }

  /// Load must throw and leave the two staged records untouched.
  void expect_rejected() {
    EXPECT_THROW(db_.load(path_), PreconditionError);
    EXPECT_EQ(db_.size(), 2u);
    EXPECT_TRUE(db_.lookup("app", "n=1").has_value());
    EXPECT_TRUE(db_.lookup("app", "n=2").has_value());
  }

  core::KnowledgeDb db_;
  std::filesystem::path path_;
};

TEST_F(KnowledgeDbHardening, RoundTripStillWorks) {
  core::KnowledgeDb fresh;
  fresh.load(path_);
  EXPECT_EQ(fresh.size(), 2u);
}

TEST_F(KnowledgeDbHardening, EmptyFileRejectsCleanly) {
  std::ofstream(path_, std::ios::trunc).close();
  expect_rejected();
}

TEST_F(KnowledgeDbHardening, WrongColumnCountRejectsCleanly) {
  std::ofstream os(path_, std::ios::trunc);
  os << "name,parameters,class\napp,n=3,linear\n";
  os.close();
  expect_rejected();
}

TEST_F(KnowledgeDbHardening, PartialLastLineRejectsCleanly) {
  // Truncate the file mid-row, as a crashed writer would leave it.
  const auto size = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, size - 30);
  expect_rejected();
}

TEST_F(KnowledgeDbHardening, GarbageNumericRejectsWithRowContext) {
  // Corrupt one numeric field of the first row in an otherwise well-formed
  // file. A suffix after a valid prefix ("0.6zz") and a fractional or
  // out-of-range integer column ("1.5", "1e10") are refused, never read as
  // 0.6 or truncated to 1.
  std::ifstream is(path_);
  const std::string content((std::istreambuf_iterator<char>(is)),
                            std::istreambuf_iterator<char>());
  is.close();
  const std::size_t row = content.find('\n') + 1;
  const std::size_t row_end = content.find('\n', row);
  const struct {
    std::size_t column;  ///< 3 = inflection, 4 = perf_ratio, 12 = threads
    const char* value;
  } cases[] = {{4, "garbage!"}, {4, "0.6zz"}, {3, "1.5"}, {3, "1e10"},
               {12, "1.5"}};
  for (const auto& c : cases) {
    std::vector<std::string> fields =
        split(content.substr(row, row_end - row), ',');
    ASSERT_GT(fields.size(), c.column);
    fields[c.column] = c.value;
    std::string line;
    for (const std::string& f : fields) line += (line.empty() ? "" : ",") + f;
    std::ofstream os(path_, std::ios::trunc);
    os << content.substr(0, row) << line << content.substr(row_end);
    os.close();
    try {
      db_.load(path_);
      FAIL() << "expected PreconditionError for " << c.value;
    } catch (const PreconditionError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("row"), std::string::npos) << msg;
      EXPECT_NE(msg.find(c.value), std::string::npos) << msg;
    }
    EXPECT_EQ(db_.size(), 2u);
  }
}

// ------------------------------------------- flight recorder integration ----

/// Runs the acceptance scenario (2-of-8 crashes plus one guarded cap
/// violation) with the flight recorder attached and persists the run record.
/// When $CLIP_FLIGHT_DIR is set (as scripts/ci.sh does), the record is also
/// written there, so a red ctest leaves the telemetry behind as an artifact.
struct FlightRecordedRun {
  runtime::QueueReport report;
  obs::Timeline timeline;
};

void run_crash_scenario(FlightRecordedRun& out) {
  runtime::QueueOptions opt;
  opt.cluster_budget = Watts(700.0);
  opt.guard.reaction_s = 2.0;
  const auto jobs = workloads::paper_benchmarks();
  const double makespan = run_queue(jobs, opt).report.makespan_s;

  fault::FaultPlan plan;
  plan.crashes.push_back({2, 0.25 * makespan});
  plan.crashes.push_back({5, 0.5 * makespan});
  plan.cap_violations.push_back({0, 0.1 * makespan, 1e6, 100.0});

  sim::SimExecutor ex{sim::MachineSpec{}, no_noise()};
  core::ClipScheduler sched{ex, workloads::training_benchmarks()};
  runtime::PowerAwareJobQueue queue(ex, sched, opt);
  fault::FaultInjector injector(plan, ex.spec().nodes);
  queue.set_fault_injector(&injector);
  queue.set_timeline(&out.timeline);
  out.report = queue.run(jobs);
}

TEST(FlightRecorder, ReportViolationSecondsMatchBudgetGuardGroundTruth) {
  FlightRecordedRun run;
  run_crash_scenario(run);
  ASSERT_EQ(run.report.crashed_nodes.size(), 2u);
  ASSERT_GT(run.report.violation_s, 0.0);

  const auto dir = std::filesystem::temp_directory_path() /
                   ("flight_gt." + std::to_string(::getpid()));
  runtime::write_run_record(dir, Watts(700.0), run.report, run.timeline);

  // The rendered reports carry the BudgetGuard's accounting bit-for-bit:
  // shortest-exact formatting means a string compare is an exact compare.
  const std::string exact = obs::format_exact(run.report.violation_s);
  const std::string json = runtime::render_json_report(dir);
  EXPECT_NE(json.find("\"violation_s\": " + exact), std::string::npos)
      << json;
  const std::string md = runtime::render_markdown_report(dir);
  EXPECT_NE(md.find("| cap violation (s) | " + exact + " |"),
            std::string::npos);

  // Rendering is deterministic across repeats.
  EXPECT_EQ(json, runtime::render_json_report(dir));
  EXPECT_EQ(md, runtime::render_markdown_report(dir));

  // The timeline's own copy of the final accounting agrees too.
  const auto viol = run.timeline.samples("budget.violation_s");
  ASSERT_EQ(viol.size(), 1u);
  EXPECT_EQ(viol[0].value, run.report.violation_s);
  std::filesystem::remove_all(dir);
}

TEST(FlightRecorder, FaultEventsLandOnTheTimeline) {
  FlightRecordedRun run;
  run_crash_scenario(run);
  const auto faults = run.timeline.events("fault");
  std::size_t crashes = 0;
  std::size_t claw_backs = 0;
  std::size_t cap_violations = 0;
  for (const auto& e : faults) {
    if (e.label.rfind("crash ", 0) == 0) ++crashes;
    if (e.label.rfind("claw-back ", 0) == 0) ++claw_backs;
    if (e.label.rfind("cap-violation ", 0) == 0) ++cap_violations;
  }
  EXPECT_EQ(crashes, 2u);
  EXPECT_EQ(cap_violations, 1u);
  EXPECT_EQ(static_cast<int>(claw_backs), run.report.caps_reprogrammed);
  // fault.active tracks the injections.
  const auto active = run.timeline.summary("fault.active");
  EXPECT_GT(active.count, 0u);
  EXPECT_GE(active.max, 1.0);
  // Crashed nodes leave job-crash events behind.
  std::size_t job_crashes = 0;
  for (const auto& e : run.timeline.events("job"))
    if (e.label.rfind("crash ", 0) == 0) ++job_crashes;
  EXPECT_GE(job_crashes, 1u);
}

TEST(FlightRecorder, ArchivesRunRecordIntoFlightDirWhenSet) {
  FlightRecordedRun run;
  run_crash_scenario(run);
  const char* env = std::getenv("CLIP_FLIGHT_DIR");
  // Outside CI the behavior is exercised against a temp stand-in.
  const std::filesystem::path base =
      env != nullptr && *env != '\0'
          ? std::filesystem::path(env)
          : std::filesystem::temp_directory_path() /
                ("flight_dump." + std::to_string(::getpid()));
  const auto dir = base / "fault_integration";
  runtime::write_run_record(dir, Watts(700.0), run.report, run.timeline);
  for (const char* f :
       {runtime::RunRecordFiles::kTimeline, runtime::RunRecordFiles::kJobs,
        runtime::RunRecordFiles::kSummary})
    EXPECT_TRUE(std::filesystem::exists(dir / f)) << f;
  // Prove the dump is renderable — what a post-mortem will do first.
  EXPECT_NE(runtime::render_markdown_report(dir).find("# CLIP run report"),
            std::string::npos);
  if (env == nullptr || *env == '\0') std::filesystem::remove_all(base);
}

TEST(KnowledgeRecordValidate, RejectsImpossibleFields) {
  core::KnowledgeRecord r;
  r.name = "app";
  r.perf_ratio = 0.6;
  r.time_all_s = 10.0;
  r.time_half_s = 16.0;
  r.cpu_power_all_w = 150.0;
  EXPECT_NO_THROW(r.validate());
  r.time_all_s = 0.0;
  EXPECT_THROW(r.validate(), PreconditionError);
  r.time_all_s = 10.0;
  r.cpu_power_all_w = -5.0;
  EXPECT_THROW(r.validate(), PreconditionError);
}

}  // namespace
}  // namespace clip
