// Tests for the fast evaluation engine: the host-parallel + pruned oracle
// search and its bound memo, the two-phase comparison harness, and the
// knowledge-DB reuse paths. The load-bearing property throughout is
// *determinism*: memoization, pruning and parallelism must never change a
// single output byte.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/all_in.hpp"
#include "baselines/clip_adapter.hpp"
#include "baselines/coordinated.hpp"
#include "baselines/lower_limit.hpp"
#include "baselines/oracle.hpp"
#include "core/scheduler.hpp"
#include "obs/session.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"
#include "runtime/comparison.hpp"
#include "sim/executor.hpp"
#include "workloads/catalog.hpp"

namespace clip {
namespace {

sim::MeterOptions no_noise() {
  sim::MeterOptions m;
  m.enabled = false;
  return m;
}

std::uint64_t counter(obs::ObsSession& s, std::string_view name) {
  const obs::Counter* c = s.metrics().find_counter(name);
  return c == nullptr ? 0 : c->value();
}

sim::ClusterConfig small_config(int threads) {
  sim::ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.node.threads = threads;
  cfg.node.affinity = parallel::AffinityPolicy::kScatter;
  cfg.node.cpu_cap = Watts(80.0);
  cfg.node.mem_cap = Watts(30.0);
  return cfg;
}

// ------------------------------------------------------------ the oracle ----

TEST(OracleEngine, PrunedParallelCachedSearchMatchesLegacyOptimum) {
  const auto w = *workloads::find_benchmark("SP-MZ");

  // Legacy shape: serial, unpruned, unmemoized — the pre-engine behaviour.
  sim::SimExecutor legacy_ex(sim::MachineSpec{}, no_noise());
  baselines::OracleScheduler legacy(legacy_ex,
                                    baselines::OracleOptions{false});

  // Engine shape: pruned, bound-memoized, fanned out over a pool.
  sim::SimExecutor fast_ex(sim::MachineSpec{}, no_noise());
  parallel::ThreadPool pool(4);
  baselines::OracleScheduler fast(fast_ex);
  fast.set_pool(&pool);

  for (double budget : {700.0, 1000.0}) {
    const sim::ClusterConfig a = legacy.plan(w, Watts(budget));
    const sim::ClusterConfig b = fast.plan(w, Watts(budget));
    // Pruning may pick a different configuration only on an exact tie, so
    // the contract is equality of the optimal *time*.
    EXPECT_EQ(legacy_ex.run_exact(w, a).time.value(),
              legacy_ex.run_exact(w, b).time.value())
        << "budget " << budget;
    EXPECT_LT(fast.last_search_cost(), legacy.last_search_cost())
        << "budget " << budget;
    EXPECT_GT(fast.last_search_cost(), 0);
  }
}

TEST(OracleEngine, CacheMakesBudgetSweepsCheaper) {
  // The uncapped bound runs are budget-independent, so the bound memo
  // serves a second budget's bounds without re-running them.
  const auto w = *workloads::find_benchmark("miniAero");
  sim::SimExecutor ex(sim::MachineSpec{}, no_noise());
  obs::ObsSession session;
  ex.set_observer(&session);
  baselines::OracleScheduler oracle(ex);

  (void)oracle.plan(w, Watts(900.0));
  const std::uint64_t runs_first = counter(session, "sim.runs");
  const int cost_first = oracle.last_search_cost();
  (void)oracle.plan(w, Watts(1000.0));
  const std::uint64_t runs_second = counter(session, "sim.runs") - runs_first;

  // The same second budget from a cold memo pays for its bounds.
  sim::SimExecutor cold_ex(sim::MachineSpec{}, no_noise());
  obs::ObsSession cold_session;
  cold_ex.set_observer(&cold_session);
  baselines::OracleScheduler cold(cold_ex);
  (void)cold.plan(w, Watts(1000.0));
  EXPECT_LT(runs_second, counter(cold_session, "sim.runs"));
  // Reported search cost counts every requested bound, memoized or not.
  EXPECT_EQ(oracle.last_search_cost(), cold.last_search_cost());

  // Re-planning the first budget reuses every bound: it pays only for the
  // cap frontiers, yet reports the same search cost as the first time.
  const std::uint64_t runs_before_replay = counter(session, "sim.runs");
  (void)oracle.plan(w, Watts(900.0));
  EXPECT_LT(counter(session, "sim.runs") - runs_before_replay, runs_first);
  EXPECT_EQ(oracle.last_search_cost(), cost_first);
}

TEST(OracleEngine, BoundMemoNeverSharesAcrossModelFields) {
  // Two signatures with the same name and input deck that differ in one
  // model field are different workloads: the second must pay for every
  // bound, exactly as on a cold memo.
  const auto w = *workloads::find_benchmark("TeaLeaf");
  workloads::WorkloadSignature twin = w;
  twin.ipc += 0.25;
  ASSERT_EQ(twin.name, w.name);
  ASSERT_EQ(twin.parameters, w.parameters);
  ASSERT_NE(twin, w);

  sim::SimExecutor ex(sim::MachineSpec{}, no_noise());
  obs::ObsSession session;
  ex.set_observer(&session);
  baselines::OracleScheduler oracle(ex);
  (void)oracle.plan(w, Watts(800.0));
  const std::uint64_t before = counter(session, "sim.runs");
  const sim::ClusterConfig warm = oracle.plan(twin, Watts(800.0));
  const std::uint64_t warm_runs = counter(session, "sim.runs") - before;

  sim::SimExecutor cold_ex(sim::MachineSpec{}, no_noise());
  obs::ObsSession cold_session;
  cold_ex.set_observer(&cold_session);
  baselines::OracleScheduler cold(cold_ex);
  const sim::ClusterConfig fresh = cold.plan(twin, Watts(800.0));
  EXPECT_EQ(warm_runs, counter(cold_session, "sim.runs"));
  EXPECT_EQ(ex.run_exact(twin, warm).time.value(),
            ex.run_exact(twin, fresh).time.value());

  // The original signature, by contrast, is served from the memo.
  const std::uint64_t before_again = counter(session, "sim.runs");
  (void)oracle.plan(w, Watts(800.0));
  EXPECT_LT(counter(session, "sim.runs") - before_again, warm_runs);
}

// ------------------------------------------------- the comparison result ----

runtime::ComparisonCell make_cell(const std::string& app, double budget,
                                  const std::string& method, double rel) {
  runtime::ComparisonCell c;
  c.app = app;
  c.parameters = "C";
  c.budget_w = budget;
  c.method = method;
  c.relative_performance = rel;
  return c;
}

TEST(ComparisonResultIndex, FindLocatesCellsAndTracksGrowth) {
  runtime::ComparisonResult r;
  r.cells.push_back(make_cell("a", 600.0, "CLIP", 1.0));
  r.cells.push_back(make_cell("b", 600.0, "CLIP", 2.0));

  const auto* cell = r.find("b", "C", 600.0, "CLIP");
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->relative_performance, 2.0);
  EXPECT_EQ(r.find("a", "C", 700.0, "CLIP"), nullptr);
  EXPECT_EQ(r.find("a", "C", 600.0, "Oracle"), nullptr);

  // Growth after a lookup: the index rebuilds and sees the new cell.
  r.cells.push_back(make_cell("c", 700.0, "Oracle", 3.0));
  const auto* late = r.find("c", "C", 700.0, "Oracle");
  ASSERT_NE(late, nullptr);
  EXPECT_EQ(late->relative_performance, 3.0);
}

TEST(ComparisonResultIndex, FirstOccurrenceWinsLikeTheLinearScan) {
  runtime::ComparisonResult r;
  r.cells.push_back(make_cell("a", 600.0, "CLIP", 1.5));
  r.cells.push_back(make_cell("a", 600.0, "CLIP", 9.9));  // duplicate key
  const auto* cell = r.find("a", "C", 600.0, "CLIP");
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->relative_performance, 1.5);
}

TEST(ComparisonResultIndex, MeanImprovementUsesTheIndexCorrectly) {
  runtime::ComparisonResult r;
  r.cells.push_back(make_cell("a", 600.0, "CLIP", 1.2));
  r.cells.push_back(make_cell("a", 600.0, "All-In", 1.0));
  r.cells.push_back(make_cell("b", 600.0, "CLIP", 1.5));
  r.cells.push_back(make_cell("b", 600.0, "All-In", 1.0));
  EXPECT_NEAR(r.mean_improvement("CLIP", "All-In"), (0.2 + 0.5) / 2.0, 1e-12);
  EXPECT_NEAR(r.mean_improvement("CLIP", "All-In", {600.0}),
              (0.2 + 0.5) / 2.0, 1e-12);
}

// --------------------------------------------------------- determinism ----

void register_methods(runtime::ComparisonHarness& harness,
                      sim::SimExecutor& ex, parallel::ThreadPool* pool) {
  harness.add_method(
      std::make_shared<baselines::AllInScheduler>(ex.spec()));
  harness.add_method(
      std::make_shared<baselines::LowerLimitScheduler>(ex.spec()));
  harness.add_method(
      std::make_shared<baselines::CoordinatedScheduler>(ex));
  harness.add_method(std::make_shared<baselines::ClipAdapter>(
      ex, workloads::training_benchmarks()));
  auto oracle = std::make_shared<baselines::OracleScheduler>(ex);
  oracle->set_pool(pool);
  harness.add_method(std::move(oracle));
}

/// Byte-exact serialization of a full result — what the bench CSVs are a
/// projection of.
std::string serialize(const runtime::ComparisonResult& r) {
  std::ostringstream os;
  for (const auto& c : r.cells) {
    char row[128];
    // clip-lint: allow(D3) %.17g is the full round-trip precision; this fingerprint reference must match the bench CSV bytes
    std::snprintf(row, sizeof(row), "%.17g,%.17g,%.17g\n", c.budget_w,
                  c.time_s, c.relative_performance);
    os << c.app << ',' << c.parameters << ',' << c.method << ',' << row;
  }
  return os.str();
}

TEST(EvalEngineDeterminism, ParallelCachedHarnessIsByteIdenticalToSerial) {
  // A fig8-shaped run: paper benchmarks × two high budgets × all five
  // methods. Side A is the historical serial engine; side B turns
  // everything on. Fresh executors per side so the meter's noise stream
  // starts from the same seed.
  const std::vector<workloads::WorkloadSignature> apps(
      workloads::paper_benchmarks().begin(),
      workloads::paper_benchmarks().begin() + 5);
  const std::vector<double> budgets = {1000.0, 1200.0};

  sim::SimExecutor serial_ex{sim::MachineSpec{}};
  runtime::ComparisonHarness serial_harness(serial_ex);
  register_methods(serial_harness, serial_ex, nullptr);
  const auto serial = serial_harness.run(apps, budgets);

  sim::SimExecutor fast_ex{sim::MachineSpec{}};
  parallel::ThreadPool pool(4);
  runtime::ComparisonHarness fast_harness(fast_ex);
  register_methods(fast_harness, fast_ex, &pool);
  const auto fast = fast_harness.run(apps, budgets, &pool);

  ASSERT_EQ(serial.cells.size(), fast.cells.size());
  EXPECT_EQ(serialize(serial), serialize(fast));
}

// ------------------------------------------------- knowledge-DB reuse ----

TEST(KnowledgeReuse, BudgetSweepProfilesEachApplicationOnce) {
  sim::SimExecutor ex{sim::MachineSpec{}};
  core::ClipScheduler sched(ex, workloads::training_benchmarks());
  obs::ObsSession session;
  sched.set_observer(&session);

  const auto w = *workloads::find_benchmark("BT-MZ");
  for (double budget : {600.0, 800.0, 1000.0, 1200.0})
    (void)sched.schedule(w, Watts(budget));

  EXPECT_LE(counter(session, "profiler.samples"), 3u);
  EXPECT_EQ(counter(session, "scheduler.db_misses"), 1u);
  EXPECT_EQ(counter(session, "scheduler.db_hits"), 3u);
}

TEST(KnowledgeReuse, SeededSchedulerSkipsProfilingEntirely) {
  sim::SimExecutor ex{sim::MachineSpec{}};
  const auto w = *workloads::find_benchmark("TeaLeaf");

  core::ClipScheduler first(ex, workloads::training_benchmarks());
  const auto original = first.schedule(w, Watts(800.0));

  core::ClipScheduler second(ex, workloads::training_benchmarks());
  obs::ObsSession session;
  second.set_observer(&session);
  EXPECT_GT(second.seed_knowledge_from(first.knowledge_db()), 0u);
  const auto seeded = second.schedule(w, Watts(800.0));

  EXPECT_EQ(counter(session, "profiler.samples"), 0u);
  EXPECT_EQ(counter(session, "scheduler.db_hits"), 1u);
  EXPECT_TRUE(seeded.from_knowledge_db);
  EXPECT_EQ(original.cluster.nodes, seeded.cluster.nodes);
  EXPECT_EQ(original.cluster.node.threads, seeded.cluster.node.threads);
}

TEST(KnowledgeReuse, MergeSkipsForeignAndExistingRecords) {
  core::KnowledgeDbShape here;
  here.machine_fingerprint = "machine-A";
  core::KnowledgeDb mine(here);
  core::KnowledgeRecord r;
  r.name = "app";
  r.parameters = "C";
  mine.insert(r);

  core::KnowledgeDb theirs(here);
  core::KnowledgeRecord same = r;  // existing key: kept, not overwritten
  theirs.insert(same);
  core::KnowledgeRecord fresh = r;
  fresh.parameters = "D";
  theirs.insert(fresh);

  core::KnowledgeDbShape elsewhere;
  elsewhere.machine_fingerprint = "machine-B";
  core::KnowledgeDb far(elsewhere);
  core::KnowledgeRecord foreign = r;
  foreign.parameters = "E";
  far.insert(foreign);  // stamped with machine-B

  EXPECT_EQ(mine.merge_from(theirs), 1u);   // only the "D" record is new
  EXPECT_EQ(mine.merge_from(far), 0u);      // foreign fingerprint rejected
  EXPECT_EQ(mine.size(), 2u);
}

// ------------------------------------------------------ tsan smoke test ----

TEST(EvalEngineConcurrency, SharedCacheUnderParallelForIsRaceFree) {
  // One executor shared by every worker, as the pooled oracle and harness
  // share theirs: exact runs from many threads must be race-free (the tsan
  // preset runs this) and agree with a serial run.
  sim::SimExecutor ex(sim::MachineSpec{}, no_noise());
  const auto w = *workloads::find_benchmark("EP");

  const sim::Measurement expected = ex.run_exact(w, small_config(8));
  parallel::ThreadPool pool(4);
  std::vector<double> times(256, 0.0);
  parallel::parallel_for(
      pool, 0, static_cast<std::int64_t>(times.size()),
      [&](std::int64_t i) {
        const auto m = ex.run_exact(w, small_config(2 + 2 * (i % 4)));
        times[static_cast<std::size_t>(i)] = m.time.value();
      },
      parallel::Schedule::kDynamic, 1);

  for (std::size_t i = 0; i < times.size(); ++i) {
    if (i % 4 == 3) {
      EXPECT_EQ(times[i], expected.time.value());
    }
    EXPECT_GT(times[i], 0.0);
  }
}

}  // namespace
}  // namespace clip
