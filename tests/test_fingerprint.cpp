// Tests for knowledge-database machine fingerprinting: a profile recorded
// on one machine is not evidence about another.
#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>

#include "core/knowledge_db.hpp"
#include "core/scheduler.hpp"
#include "runtime/launcher.hpp"
#include "sim/executor.hpp"
#include "sim/presets.hpp"
#include "workloads/catalog.hpp"
#include "test_support.hpp"

namespace clip::core {
namespace {

sim::MeterOptions no_noise() {
  sim::MeterOptions m;
  m.enabled = false;
  return m;
}

TEST(Fingerprint, DistinctMachinesHaveDistinctFingerprints) {
  std::set<std::string> prints;
  for (const auto& p : sim::all_presets())
    prints.insert(p.spec.fingerprint());
  EXPECT_EQ(prints.size(), sim::all_presets().size());
}

TEST(Fingerprint, SameSpecSameFingerprint) {
  EXPECT_EQ(sim::MachineSpec{}.fingerprint(),
            sim::haswell_testbed().fingerprint());
}

TEST(Fingerprint, SensitiveToPowerParameters) {
  sim::MachineSpec a;
  sim::MachineSpec b;
  b.core_max_w += 0.5;
  EXPECT_NE(a.fingerprint(), b.fingerprint());
}

class FingerprintDbTest : public ::testing::Test {
 protected:
  std::filesystem::path path_ =
      test::case_temp_path("clip_fingerprint_db", ".csv");
  void SetUp() override { std::filesystem::remove(path_); }
  void TearDown() override { std::filesystem::remove(path_); }
};

TEST_F(FingerprintDbTest, InsertStampsTheMachine) {
  KnowledgeDb db(KnowledgeDbShape{24, "machine-A"});
  KnowledgeRecord r;
  r.name = "X";
  r.parameters = std::string(1, 'p');
  db.insert(r);
  EXPECT_EQ(db.lookup("X", "p")->machine, "machine-A");
}

TEST_F(FingerprintDbTest, ForeignRecordsDroppedOnLoad) {
  {
    KnowledgeDb writer(KnowledgeDbShape{24, "machine-A"});
    KnowledgeRecord r;
    r.name = "X";
    r.parameters = std::string(1, 'p');
    writer.insert(r);
    writer.save(path_);
  }
  KnowledgeDb same(KnowledgeDbShape{24, "machine-A"});
  same.load(path_);
  EXPECT_EQ(same.size(), 1u);
  EXPECT_EQ(same.last_load_dropped(), 0u);

  KnowledgeDb other(KnowledgeDbShape{24, "machine-B"});
  other.load(path_);
  EXPECT_EQ(other.size(), 0u);
  EXPECT_EQ(other.last_load_dropped(), 1u);
}

TEST_F(FingerprintDbTest, EmptyFingerprintAcceptsLegacyRecords) {
  {
    KnowledgeDb writer(KnowledgeDbShape{24, "machine-A"});
    KnowledgeRecord r;
    r.name = "X";
    r.parameters = std::string(1, 'p');
    writer.insert(r);
    writer.save(path_);
  }
  KnowledgeDb legacy(KnowledgeDbShape{24, ""});
  legacy.load(path_);
  EXPECT_EQ(legacy.size(), 1u);
}

TEST_F(FingerprintDbTest, LauncherReprofilesOnForeignDb) {
  const auto app = *workloads::find_benchmark("TeaLeaf");
  // Record on the Haswell testbed.
  {
    sim::SimExecutor ex(sim::haswell_testbed(), no_noise());
    runtime::Launcher launcher(ex, workloads::training_benchmarks(),
                               path_);
    runtime::JobSpec spec;
    spec.app = app;
    spec.cluster_budget = Watts(800.0);
    (void)launcher.run(spec);
  }
  // A different machine must not reuse those profiles.
  sim::SimExecutor other(sim::broadwell_fat(), no_noise());
  runtime::Launcher launcher(other, workloads::training_benchmarks(),
                             path_);
  runtime::JobSpec spec;
  spec.app = app;
  spec.cluster_budget = Watts(800.0);
  const auto result = launcher.run(spec);
  EXPECT_GT(result.scheduling_overhead.value(), 0.0)
      << "foreign profile was reused instead of re-profiling";
}

TEST_F(FingerprintDbTest, SchedulerDbCarriesExecutorFingerprint) {
  sim::SimExecutor ex(sim::MachineSpec{}, no_noise());
  ClipScheduler sched(ex, workloads::training_benchmarks());
  EXPECT_EQ(sched.knowledge_db().shape().machine_fingerprint,
            ex.spec().fingerprint());
}

}  // namespace
}  // namespace clip::core
