// Tests for the dynamic/operational layers: the time-stepped RAPL
// controller (cross-validated against the analytic solver), telemetry
// recording, and the host governor driving real kernels.
#include <gtest/gtest.h>

#include <filesystem>

#include "core/host_governor.hpp"
#include "runtime/telemetry.hpp"
#include "sim/executor.hpp"
#include "sim/rapl.hpp"
#include "sim/rapl_controller.hpp"
#include "util/check.hpp"
#include "workloads/catalog.hpp"
#include "workloads/kernels.hpp"
#include "workloads/phases.hpp"
#include "test_support.hpp"

namespace clip {
namespace {

sim::MeterOptions no_noise() {
  sim::MeterOptions m;
  m.enabled = false;
  return m;
}

// ---------------------------------------------------------- RAPL controller ----

class RaplControllerTest : public ::testing::Test {
 protected:
  sim::MachineSpec spec_;
  sim::RaplControllerSim controller_{spec_};
};

TEST_F(RaplControllerTest, SteadyStatePowerRespectsCap) {
  const auto w = *workloads::find_benchmark("CoMD");
  for (double cap : {45.0, 70.0, 95.0, 120.0}) {
    const sim::RaplTrace trace = controller_.simulate(
        w, 24, parallel::AffinityPolicy::kScatter, 68.0, Watts(cap));
    // Window-average enforcement: the steady-state mean sits at/below the
    // cap (individual instants may poke above while the window absorbs it).
    EXPECT_LE(trace.avg_power_w, cap * 1.02) << cap;
  }
}

TEST_F(RaplControllerTest, ConvergesToAnalyticSolverThroughput) {
  // The dynamic controller and the closed-form solver are two views of the
  // same contract: their steady-state throughput must agree.
  const sim::RaplSolver solver(spec_);
  for (const char* name : {"CoMD", "BT-MZ", "TeaLeaf"}) {
    const auto w = *workloads::find_benchmark(name);
    for (double cap : {50.0, 80.0, 110.0}) {
      sim::NodeConfig cfg;
      cfg.threads = 24;
      cfg.affinity = parallel::AffinityPolicy::kScatter;
      cfg.cpu_cap = Watts(cap);
      cfg.mem_cap = Watts(1e9);
      const sim::OperatingPoint op = solver.solve(w, 1.0, cfg);
      const double analytic_throughput =
          1.0 / op.perf.time.value();  // work per second at the solved point

      const sim::RaplTrace trace = controller_.simulate(
          w, 24, parallel::AffinityPolicy::kScatter, 68.0, Watts(cap));
      // Normalize the analytic throughput the same way (vs top state).
      sim::NodeConfig top = cfg;
      top.cpu_cap = Watts(1e9);
      const double top_throughput =
          1.0 / solver.solve(w, 1.0, top).perf.time.value();
      EXPECT_NEAR(trace.throughput,
                  analytic_throughput / top_throughput, 0.08)
          << name << " cap=" << cap;
    }
  }
}

TEST_F(RaplControllerTest, GenerousCapSitsAtTopState) {
  const auto w = *workloads::find_benchmark("EP");
  const sim::RaplTrace trace = controller_.simulate(
      w, 24, parallel::AffinityPolicy::kScatter, 68.0, Watts(500.0));
  EXPECT_NEAR(trace.avg_freq_ghz, 2.3, 1e-9);
  EXPECT_DOUBLE_EQ(trace.duty_low_fraction(), 0.0);
  EXPECT_NEAR(trace.throughput, 1.0, 1e-9);
}

TEST_F(RaplControllerTest, IntermediateCapOscillatesBetweenNearbyStates) {
  const auto w = *workloads::find_benchmark("CoMD");
  // Pick a cap strictly between two state powers: the controller should
  // duty-cycle between the states bracketing it.
  const sim::RaplTrace trace = controller_.simulate(
      w, 24, parallel::AffinityPolicy::kScatter, 68.0, Watts(100.0));
  double lo = 1e9, hi = 0.0;
  for (std::size_t i = trace.freq_ghz.size() / 2;
       i < trace.freq_ghz.size(); ++i) {
    lo = std::min(lo, trace.freq_ghz[i]);
    hi = std::max(hi, trace.freq_ghz[i]);
  }
  EXPECT_GT(hi, lo);            // it does oscillate
  EXPECT_LE(hi - lo, 0.2 + 1e-9);  // within the bracketing states
  EXPECT_GT(trace.duty_low_fraction(), 0.0);
  EXPECT_LT(trace.duty_low_fraction(), 1.0);
}

TEST_F(RaplControllerTest, ConvergesFromAnyInitialState) {
  const auto w = *workloads::find_benchmark("CoMD");
  sim::RaplControllerOptions from_bottom;
  from_bottom.initial_state = 0;
  sim::RaplControllerOptions from_top;
  from_top.initial_state = spec_.ladder.state_count() - 1;
  const auto a = controller_.simulate(
      w, 24, parallel::AffinityPolicy::kScatter, 68.0, Watts(90.0),
      from_bottom);
  const auto b = controller_.simulate(
      w, 24, parallel::AffinityPolicy::kScatter, 68.0, Watts(90.0),
      from_top);
  EXPECT_NEAR(a.avg_power_w, b.avg_power_w, 1.5);
  EXPECT_NEAR(a.throughput, b.throughput, 0.02);
}

TEST_F(RaplControllerTest, TraceShapesConsistent) {
  const auto w = *workloads::find_benchmark("BT-MZ");
  sim::RaplControllerOptions opt;
  opt.steps = 500;
  const auto trace = controller_.simulate(
      w, 16, parallel::AffinityPolicy::kScatter, 68.0, Watts(80.0), opt);
  EXPECT_EQ(trace.time_s.size(), 500u);
  EXPECT_EQ(trace.power_w.size(), 500u);
  EXPECT_EQ(trace.freq_ghz.size(), 500u);
}

TEST_F(RaplControllerTest, InvalidOptionsRejected) {
  const auto w = *workloads::find_benchmark("CoMD");
  sim::RaplControllerOptions opt;
  opt.steps = 5;
  EXPECT_THROW((void)controller_.simulate(
                   w, 24, parallel::AffinityPolicy::kScatter, 68.0,
                   Watts(90.0), opt),
               PreconditionError);
}

// ----------------------------------------------------------------- telemetry ----

class TelemetryTest : public ::testing::Test {
 protected:
  sim::SimExecutor ex_{sim::MachineSpec{}, no_noise()};
  std::filesystem::path path_ =
      test::case_temp_path("clip_telemetry", ".csv");
  void TearDown() override { std::filesystem::remove(path_); }
};

TEST_F(TelemetryTest, FlatSeriesCoversRunAndAllNodes) {
  const auto w = *workloads::find_benchmark("BT-MZ");
  sim::ClusterConfig cfg;
  cfg.nodes = 4;
  cfg.node.threads = 16;
  const auto m = ex_.run_exact(w, cfg);
  runtime::Telemetry telemetry;
  const auto series = telemetry.record(m, 16);
  ASSERT_FALSE(series.empty());
  EXPECT_EQ(series.size() % 4, 0u);  // all nodes sampled each tick
  EXPECT_NEAR(series.back().time_s, m.time.value(), 0.2);
}

TEST_F(TelemetryTest, EnergyIntegralMatchesMeasurement) {
  const auto w = *workloads::find_benchmark("CoMD");
  sim::ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.node.threads = 24;
  const auto m = ex_.run_exact(w, cfg);
  runtime::TelemetryOptions opt;
  opt.sample_period_s = 0.01;
  opt.noise_sigma = 0.0;
  runtime::Telemetry telemetry(opt);
  const auto series = telemetry.record(m, 24);
  const double integral =
      runtime::Telemetry::energy_j(series, opt.sample_period_s);
  EXPECT_NEAR(integral, m.energy.value(), m.energy.value() * 0.02);
}

TEST_F(TelemetryTest, PhasedSeriesStepsAtBoundaries) {
  const auto p = *workloads::find_phased("BT-MZ-phased");
  sim::PhasedClusterConfig cfg;
  cfg.nodes = 4;
  cfg.phase_nodes = {sim::NodeConfig{.threads = 24},
                     sim::NodeConfig{.threads = 8}};
  const auto m = ex_.run_phased_exact(p, cfg);
  runtime::Telemetry telemetry;
  const auto series = telemetry.record_phased(m, 4);
  // Both phase labels appear, in order, and the thread column steps.
  bool saw_solve = false, saw_exchange = false;
  for (const auto& s : series) {
    if (s.phase == "solve") {
      saw_solve = true;
      EXPECT_EQ(s.threads, 24);
      EXPECT_FALSE(saw_exchange) << "phases out of order";
    }
    if (s.phase == "exch_qbc") {
      saw_exchange = true;
      EXPECT_EQ(s.threads, 8);
    }
  }
  EXPECT_TRUE(saw_solve);
  EXPECT_TRUE(saw_exchange);
}

TEST_F(TelemetryTest, CsvExportRoundTrips) {
  const auto w = *workloads::find_benchmark("EP");
  sim::ClusterConfig cfg;
  cfg.nodes = 1;
  cfg.node.threads = 24;
  const auto m = ex_.run_exact(w, cfg);
  runtime::Telemetry telemetry;
  const auto series = telemetry.record(m, 24);
  runtime::Telemetry::write(path_, series);
  const CsvDocument doc = read_csv(path_);
  EXPECT_EQ(doc.rows.size(), series.size());
  EXPECT_EQ(doc.column_index("cpu_w"), 3);
}

TEST(TelemetryOptionsTest, Validation) {
  runtime::TelemetryOptions opt;
  opt.sample_period_s = 0.0;
  EXPECT_THROW(runtime::Telemetry t(opt), PreconditionError);
}

// ------------------------------------------------------------- host governor ----

sim::MachineSpec small_host_model() {
  sim::MachineSpec model;
  model.nodes = 1;
  model.shape = {.sockets = 2, .cores_per_socket = 2};
  return model;
}

TEST(HostGovernor, DecisionIsAppliedToThePool) {
  parallel::ThreadPool pool(4);
  core::HostGovernor governor(small_host_model());
  const auto decision = governor.govern(
      pool,
      [](parallel::ThreadPool& p) {
        return workloads::jacobi_stencil(p, 96, 10);
      },
      Watts(40.0));
  EXPECT_EQ(pool.concurrency(), decision.node.config.threads);
  EXPECT_GE(decision.node.config.threads, 1);
  EXPECT_LE(decision.node.config.threads, 4);
  EXPECT_GT(decision.full_time_s, 0.0);
  EXPECT_GT(decision.half_time_s, 0.0);
}

TEST(HostGovernor, BudgetSplitsAreConsistent) {
  parallel::ThreadPool pool(4);
  core::HostGovernor governor(small_host_model());
  const Watts budget(36.0);
  const auto decision = governor.govern(
      pool,
      [](parallel::ThreadPool& p) {
        return workloads::stream_triad(p, 1 << 15, 10);
      },
      budget);
  EXPECT_LE(decision.node.config.cpu_cap.value() +
                decision.node.config.mem_cap.value(),
            budget.value() + 0.6);
}

TEST(HostGovernor, ProfileCarriesRealMeasurements) {
  parallel::ThreadPool pool(2);
  core::HostGovernor governor(small_host_model());
  const auto decision = governor.govern(
      pool,
      [](parallel::ThreadPool& p) {
        return workloads::spmv(p, 1 << 14, 10);
      },
      Watts(40.0));
  EXPECT_GT(decision.profile.per_core_bw_gbps, 0.0);
  EXPECT_GT(decision.profile.node_bw_gbps, 0.0);
  EXPECT_NEAR(decision.profile.perf_ratio_half_over_all,
              decision.full_time_s / decision.half_time_s, 1e-12);
}

TEST(HostGovernor, RejectsNonPositiveBudget) {
  parallel::ThreadPool pool(2);
  core::HostGovernor governor(small_host_model());
  EXPECT_THROW(
      (void)governor.govern(
          pool,
          [](parallel::ThreadPool& p) {
            return workloads::monte_carlo_pi(p, 10000);
          },
          Watts(0.0)),
      PreconditionError);
}

}  // namespace
}  // namespace clip
