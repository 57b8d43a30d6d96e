// Fuzz-style property suites over randomly generated workloads and swept
// operating conditions: the simulator's physical invariants and CLIP's
// guarantees must hold across the whole valid signature space, not just the
// calibrated catalog.
#include <gtest/gtest.h>


#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>

#include "core/knowledge_db.hpp"
#include "core/profiler.hpp"
#include "core/scheduler.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "lint.hpp"
#include "obs/timeline.hpp"
#include "runtime/journal.hpp"
#include "runtime/queue.hpp"
#include "sim/executor.hpp"
#include "sim/rapl_controller.hpp"
#include "util/check.hpp"
#include "util/fsio.hpp"
#include "util/strings.hpp"
#include "workloads/catalog.hpp"
#include "workloads/phases.hpp"
#include "workloads/random.hpp"
#include "test_support.hpp"

namespace clip {
namespace {

sim::MeterOptions no_noise() {
  sim::MeterOptions m;
  m.enabled = false;
  return m;
}

sim::SimExecutor& fuzz_executor() {
  static sim::SimExecutor ex{sim::MachineSpec{}, no_noise()};
  return ex;
}

core::ClipScheduler& fuzz_scheduler() {
  static core::ClipScheduler sched{fuzz_executor(),
                                   workloads::training_benchmarks()};
  return sched;
}

// ------------------------------------------------- random-workload sweep ----

class RandomWorkload : public ::testing::TestWithParam<int> {
 protected:
  static workloads::WorkloadSignature workload(int index) {
    // One deterministic batch shared across the suite.
    static const auto batch = workloads::random_signatures(0xF00D, 48);
    return batch[static_cast<std::size_t>(index)];
  }
};

INSTANTIATE_TEST_SUITE_P(Batch, RandomWorkload, ::testing::Range(0, 48));

TEST_P(RandomWorkload, SimulatorInvariantsHold) {
  const auto w = workload(GetParam());
  auto& ex = fuzz_executor();
  sim::ClusterConfig cfg;
  cfg.nodes = 1;
  cfg.node.affinity = parallel::AffinityPolicy::kScatter;
  cfg.node.threads = 1;
  const double t1 = ex.run_exact(w, cfg).time.value();
  double prev_power = 0.0;
  for (int n : {4, 12, 24}) {
    cfg.node.threads = n;
    const auto m = ex.run_exact(w, cfg);
    EXPECT_TRUE(std::isfinite(m.time.value()));
    EXPECT_GT(m.time.value(), 0.0);
    EXPECT_LE(t1 / m.time.value(), n * 1.0001);  // speedup <= ideal
    // More threads at the same frequency never draw less power.
    EXPECT_GE(m.avg_power.value(), prev_power - 1e-9);
    prev_power = m.avg_power.value();
  }
}

TEST_P(RandomWorkload, ProfilerAndClassifierNeverChoke) {
  const auto w = workload(GetParam());
  core::SmartProfiler profiler(fuzz_executor());
  const core::ScalabilityClassifier classifier;
  const auto p = profiler.profile(w);
  EXPECT_GT(p.perf_ratio_half_over_all, 0.0);
  EXPECT_LT(p.perf_ratio_half_over_all, 5.0);
  EXPECT_NO_THROW((void)classifier.classify(p));
  EXPECT_GE(p.per_core_bw_gbps, 0.0);
  EXPECT_LE(p.memory_intensity, 1.0);
}

TEST_P(RandomWorkload, ClipSchedulesAndRespectsBudget) {
  const auto w = workload(GetParam());
  auto& sched = fuzz_scheduler();
  auto& ex = fuzz_executor();
  for (double budget : {500.0, 900.0, 1300.0}) {
    const auto d = sched.schedule(w, Watts(budget));
    const auto m = ex.run_exact(w, d.cluster);
    EXPECT_LE(m.avg_power.value(), budget * 1.01) << budget;
    EXPECT_GE(d.cluster.nodes, 1);
    EXPECT_GE(d.cluster.node.threads, 1);
  }
}

TEST_P(RandomWorkload, CapEnforcementUnderRandomCaps) {
  const auto w = workload(GetParam());
  auto& ex = fuzz_executor();
  Rng rng(0xCAFE + static_cast<std::uint64_t>(GetParam()));
  const auto& spec = ex.spec();
  const double base_w = spec.shape.sockets * spec.socket_base_w;
  for (int trial = 0; trial < 4; ++trial) {
    sim::ClusterConfig cfg;
    cfg.nodes = static_cast<int>(rng.uniform_int(1, 8));
    cfg.node.threads = static_cast<int>(rng.uniform_int(1, 24));
    cfg.node.affinity = rng.uniform() < 0.5
                            ? parallel::AffinityPolicy::kCompact
                            : parallel::AffinityPolicy::kScatter;
    cfg.node.cpu_cap = Watts(rng.uniform(35.0, 140.0));
    cfg.node.mem_cap = Watts(rng.uniform(12.0, 40.0));
    sim::Measurement m;
    try {
      m = ex.run_exact(w, cfg);
    } catch (const PreconditionError&) {
      continue;  // e.g. memory-bound workload with a sub-base DRAM cap
    }
    for (const auto& node : m.nodes) {
      const double enforceable =
          std::max(cfg.node.cpu_cap.value(),
                   base_w + spec.shape.total_cores() * spec.core_max_w / 16.0);
      EXPECT_LE(node.cpu_power.value(), enforceable + 1e-9);
      EXPECT_GT(node.time.value(), 0.0);
    }
  }
}

// ------------------------------------------------------ phased sweeps ----

class PhasedSweep
    : public ::testing::TestWithParam<std::tuple<std::string, double>> {};

std::vector<std::string> phased_names() {
  std::vector<std::string> names;
  for (const auto& p : workloads::phased_benchmarks())
    names.push_back(p.name);
  return names;
}

INSTANTIATE_TEST_SUITE_P(
    All, PhasedSweep,
    ::testing::Combine(::testing::ValuesIn(phased_names()),
                       ::testing::Values(550.0, 750.0, 1050.0, 1350.0)));

TEST_P(PhasedSweep, PhaseAwareNeverLosesToFlatAndStaysInBudget) {
  const auto [name, budget] = GetParam();
  const auto p = *workloads::find_phased(name);
  auto& sched = fuzz_scheduler();
  auto& ex = fuzz_executor();

  const auto flat = sched.schedule(p.blended(), Watts(budget));
  sim::PhasedClusterConfig flat_cfg;
  flat_cfg.nodes = flat.cluster.nodes;
  flat_cfg.phase_nodes.assign(p.phases.size(), flat.cluster.node);
  const auto flat_m = ex.run_phased_exact(p, flat_cfg);

  const auto phased = sched.schedule_phased(p, Watts(budget));
  const auto phased_m = ex.run_phased_exact(p, phased.cluster);

  EXPECT_LT(phased_m.time.value(), flat_m.time.value() * 1.001);
  for (const auto& pm : phased_m.phases)
    EXPECT_LE(pm.avg_power.value(), budget * 1.01) << pm.phase;
}

TEST_P(PhasedSweep, BlendEnergyAccountingConsistent) {
  const auto [name, budget] = GetParam();
  const auto p = *workloads::find_phased(name);
  auto& sched = fuzz_scheduler();
  auto& ex = fuzz_executor();
  const auto d = sched.schedule_phased(p, Watts(budget));
  const auto m = ex.run_phased_exact(p, d.cluster);
  double phase_energy = 0.0;
  for (const auto& pm : m.phases) phase_energy += pm.energy.value();
  EXPECT_NEAR(m.energy.value(), phase_energy, 1e-6);
  EXPECT_NEAR(m.avg_power.value(),
              m.energy.value() / m.time.value(), 1e-9);
}

// ------------------------------------------------- fault-plan fuzzing ----
//
// Random fault plans against the resilient queue: whatever combination of
// crashes, degrades, meter faults and cap violations a seed draws, the queue
// must terminate, account every job as completed-or-failed, never reserve
// more power than the budget, and never record more violation energy than
// the plan actually injected.

class FaultPlanFuzz : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Seeds, FaultPlanFuzz, ::testing::Range(0, 12));

TEST_P(FaultPlanFuzz, QueueSurvivesArbitrarySeededFaults) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  auto& ex = fuzz_executor();
  auto& sched = fuzz_scheduler();

  fault::FaultPlanShape shape;
  shape.crashes = static_cast<int>(seed % 4);        // 0..3 of 8 nodes
  shape.degrades = static_cast<int>((seed / 4) % 3);
  shape.meter_faults = 2;
  shape.cap_violations = 2;
  const double horizon = 4000.0;
  const auto plan =
      fault::FaultPlan::random(0xFA01 + seed, ex.spec().nodes, horizon, shape);

  runtime::QueueOptions opt;
  opt.cluster_budget = Watts(700.0);
  runtime::PowerAwareJobQueue queue(ex, sched, opt);
  fault::FaultInjector injector(plan, ex.spec().nodes);
  queue.set_fault_injector(&injector);

  const auto& jobs = workloads::paper_benchmarks();
  const auto report = queue.run(jobs);  // termination is the first property

  // Every submitted job is accounted for: completed or failed, no limbo.
  EXPECT_EQ(report.jobs.size(), jobs.size());
  EXPECT_EQ(report.jobs_completed() +
                static_cast<std::size_t>(report.jobs_failed),
            jobs.size());
  EXPECT_TRUE(std::isfinite(report.makespan_s));
  EXPECT_GE(report.makespan_s, 0.0);
  EXPECT_LE(report.crashed_nodes.size(),
            static_cast<std::size_t>(shape.crashes));

  // Reserved power never exceeds the budget at any start instant, and no
  // job lands on a node set larger than the cluster.
  for (const auto& a : report.jobs) {
    if (a.nodes == 0) continue;  // never placed (all nodes dead)
    EXPECT_LE(a.nodes, ex.spec().nodes);
    EXPECT_LE(a.attempts, opt.retry.max_attempts);
    double reserved = 0.0;
    for (const auto& b : report.jobs)
      if (b.nodes > 0 && b.start_s <= a.start_s && a.start_s < b.end_s)
        reserved += b.budget_w;
    EXPECT_LE(reserved, opt.cluster_budget.value() * 1.001)
        << "seed " << seed << " t=" << a.start_s;
  }

  // Violation energy is bounded by what the plan injected: the cluster can
  // only exceed the budget through unenforced cap excess.
  double injected_ws = 0.0;
  for (const auto& v : plan.cap_violations)
    injected_ws += v.excess_w * v.duration_s;
  // Slack: measured draw may exceed a job's reserved slice by the queue's
  // 1 % + 1 W shaping tolerance, integrated over the run.
  const double slack =
      (0.01 * opt.cluster_budget.value() + 1.0) * report.makespan_s;
  EXPECT_LE(report.violation_ws, injected_ws + slack) << "seed " << seed;
  if (plan.cap_violations.empty()) {
    EXPECT_LE(report.violation_ws, slack);
  }
}

// -------------------------------------------- randomized kill-point fuzz ----
//
// The crash-consistency analogue of the fault-plan fuzzer: random fault
// plans (degraded-mode windows included), a journaled reference run, then
// random kill points — every recovery must reproduce the reference run
// byte-for-byte. The exhaustive every-boundary sweep lives in
// tests/test_recovery.cpp; this suite varies the *plans* instead.

std::string report_fingerprint(const runtime::QueueReport& r) {
  std::ostringstream os;
  os << std::hexfloat << r.makespan_s << '|' << r.total_energy_j << '|'
     << r.node_seconds_used << '|' << r.retries << '|' << r.jobs_failed << '|'
     << r.caps_reprogrammed << '|' << r.violation_s << '|' << r.violation_ws;
  for (const auto& j : r.jobs)
    os << '\n'
       << j.app << ',' << j.start_s << ',' << j.end_s << ',' << j.nodes << ','
       << j.budget_w << ',' << j.attempts << ',' << j.completed << ','
       << j.crashed_node;
  return os.str();
}

class RecoveryFuzz : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Seeds, RecoveryFuzz, ::testing::Range(0, 6));

TEST_P(RecoveryFuzz, RandomKillPointsRecoverByteIdentically) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  auto& ex = fuzz_executor();
  auto& sched = fuzz_scheduler();

  fault::FaultPlanShape shape;
  shape.crashes = static_cast<int>(seed % 3);
  shape.degrades = static_cast<int>((seed / 3) % 2);
  shape.meter_faults = 1;
  shape.cap_violations = 1;
  shape.meter_blackouts = static_cast<int>(seed % 2);
  shape.budget_cuts = static_cast<int>((seed + 1) % 2);
  const auto plan =
      fault::FaultPlan::random(0x1EC0 + seed, ex.spec().nodes, 60.0, shape);

  runtime::QueueOptions opt;
  opt.cluster_budget = Watts(700.0);
  std::vector<runtime::QueueJob> jobs;
  for (const auto& a : workloads::paper_benchmarks()) jobs.push_back({a, 0});

  // Warm the knowledge DB so the reference run and every recovery schedule
  // from identical cached profiles.
  {
    runtime::PowerAwareJobQueue warm(ex, sched, opt);
    (void)warm.run(jobs);
  }

  const auto run_with = [&](runtime::Journal* journal,
                            runtime::Journal* resume) {
    runtime::QueueEventLoop loop(ex, sched, opt, jobs);
    std::optional<fault::FaultInjector> injector;
    if (!plan.empty()) {
      injector.emplace(plan, ex.spec().nodes);
      loop.set_fault_injector(&*injector);
    }
    if (journal != nullptr) loop.set_journal(journal);
    return resume != nullptr ? loop.recover(*resume) : loop.run();
  };

  runtime::Journal reference;
  const std::string ref = report_fingerprint(run_with(&reference, nullptr));

  Rng rng(0x171F + seed);
  for (int trial = 0; trial < 5; ++trial) {
    const auto kill = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(reference.size())));
    runtime::Journal j = reference;
    j.truncate(kill);
    EXPECT_EQ(report_fingerprint(run_with(nullptr, &j)), ref)
        << "seed " << seed << " kill@" << kill << " of " << reference.size();
  }
}

// ------------------------------------------------ snapshot decoder fuzz ----
//
// `clipctl recover` feeds journal files from disk to the snapshot decoder,
// and a CRC only proves the bytes are the ones written, not that a sane
// loop wrote them. Real snapshot payloads from a faulted,
// redistribution-enabled run are mutated byte-wise (flip, delete, insert)
// and token-wise (duplicate, swap), re-appended as a well-formed record and
// recovered: every case must either be refused with PreconditionError or
// run to completion — never crash, hang, or trip a sanitizer.

struct SnapshotCorpus {
  runtime::QueueOptions opt;
  std::vector<runtime::QueueJob> jobs;
  fault::FaultPlan plan;
  runtime::Journal reference;
  std::vector<std::size_t> snapshots;  ///< record indices of the snapshots

  static runtime::JournalOptions journal_options() {
    runtime::JournalOptions jopt;
    jopt.snapshot_every = 5;
    return jopt;
  }

  SnapshotCorpus() : reference(journal_options()) {
    opt.cluster_budget = Watts(700.0);
    opt.redist.enabled = true;
    opt.redist.period_s = 4.0;
    for (const auto& a : workloads::paper_benchmarks()) jobs.push_back({a, 0});
    {
      runtime::PowerAwareJobQueue warm(fuzz_executor(), fuzz_scheduler(), opt);
      (void)warm.run(jobs);
    }
    plan.crashes.push_back({3, 12.0});
    plan.cap_violations.push_back({0, 6.0, 20.0, 90.0});
    plan.meter_faults.push_back(
        {5, 4.0, 10.0, fault::MeterFaultKind::kSpike, 40.0});
    (void)recover_or_run(&reference, nullptr);
    for (std::size_t i = 0; i < reference.size(); ++i)
      if (reference.records()[i].kind == "snapshot") snapshots.push_back(i);
  }

  runtime::QueueReport recover_or_run(runtime::Journal* journal,
                                      runtime::Journal* resume) const {
    runtime::QueueEventLoop loop(fuzz_executor(), fuzz_scheduler(), opt, jobs);
    fault::FaultInjector injector(plan, fuzz_executor().spec().nodes);
    loop.set_fault_injector(&injector);
    if (journal != nullptr) loop.set_journal(journal);
    return resume != nullptr ? loop.recover(*resume) : loop.run();
  }
};

const SnapshotCorpus& snapshot_corpus() {
  static const SnapshotCorpus corpus;
  return corpus;
}

std::string join_tokens(const std::vector<std::string>& tokens) {
  std::string out;
  for (const std::string& t : tokens) out += (out.empty() ? "" : " ") + t;
  return out;
}

/// One seeded mutation of `payload`; never introduces a newline (a journal
/// record cannot hold one, so such a payload never reaches the decoder).
std::string mutate(const std::string& payload, Rng& rng) {
  std::string out = payload;
  const auto pos = [&](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  const auto byte = [&] {
    char b = '\n';
    while (b == '\n') b = static_cast<char>(rng.uniform_int(1, 255));
    return b;
  };
  switch (rng.uniform_int(0, 4)) {
    case 0: {  // flip one bit
      const std::size_t p = pos(out.size());
      out[p] = static_cast<char>(out[p] ^ (1 << rng.uniform_int(0, 7)));
      if (out[p] == '\n') out[p] = '?';
      break;
    }
    case 1:  // delete one byte
      out.erase(pos(out.size()), 1);
      break;
    case 2:  // insert one byte
      out.insert(pos(out.size() + 1), 1, byte());
      break;
    case 3: {  // duplicate one token in place
      std::vector<std::string> tokens = split(out, ' ');
      const std::size_t t = pos(tokens.size());
      tokens.insert(tokens.begin() + static_cast<std::ptrdiff_t>(t),
                    tokens[t]);
      out = join_tokens(tokens);
      break;
    }
    default: {  // swap two tokens
      std::vector<std::string> tokens = split(out, ' ');
      std::swap(tokens[pos(tokens.size())], tokens[pos(tokens.size())]);
      out = join_tokens(tokens);
      break;
    }
  }
  return out;
}

class SnapshotFuzz : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotFuzz, ::testing::Range(0, 16));

TEST_P(SnapshotFuzz, MutatedSnapshotsAreRefusedOrRecovered) {
  const SnapshotCorpus& c = snapshot_corpus();
  ASSERT_GE(c.snapshots.size(), 3u);
  const auto& records = c.reference.records();
  Rng rng(0x5A4F + static_cast<std::uint64_t>(GetParam()));
  for (int trial = 0; trial < 24; ++trial) {
    const std::size_t snap = c.snapshots[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(c.snapshots.size()) - 1))];
    const std::string bad = mutate(records[snap].payload, rng);
    runtime::Journal j(SnapshotCorpus::journal_options());
    for (std::size_t k = 0; k < snap; ++k)
      j.append(records[k].kind, records[k].payload);
    j.append("snapshot", bad);
    try {
      (void)c.recover_or_run(nullptr, &j);
    } catch (const PreconditionError&) {
      // Refused: the decoder (or a check downstream of it) caught the damage.
    }
  }
}

// ------------------------------------- journal file and timeline CSV fuzz ----
//
// `clipctl journal`/`recover` read journal files from disk and
// `clipctl report` reads a run's timeline CSV: both parsers see outside
// bytes. The seeds are the real files of a faulted, journaled, recorded
// queue run, mutated byte-wise (flip, delete, insert — newlines included)
// and line-wise. A mutated journal is either refused with PreconditionError
// (damaged header) or loads a byte prefix of itself: every kept record
// saves back to the exact line it was read from and every later line is
// counted as dropped. A mutated timeline CSV is either refused with
// PreconditionError or loads into a timeline whose export reloads to
// itself. Neither may crash, hang or trip a sanitizer.

std::string read_file(const std::filesystem::path& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

/// `text` split the way std::getline reads it: a final newline ends the
/// last line rather than starting an empty one.
std::vector<std::string> getline_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) lines.push_back(line);
  return lines;
}

struct RecordedRun {
  std::string journal;   ///< bytes of the saved journal file
  std::string timeline;  ///< bytes of the run's timeline CSV

  RecordedRun() {
    runtime::QueueOptions opt;
    opt.cluster_budget = Watts(700.0);
    opt.redist.enabled = true;
    opt.redist.period_s = 4.0;
    std::vector<runtime::QueueJob> jobs;
    for (const auto& a : workloads::paper_benchmarks()) jobs.push_back({a, 0});
    fault::FaultPlan plan;
    plan.crashes.push_back({3, 12.0});
    plan.cap_violations.push_back({0, 6.0, 20.0, 90.0});
    plan.meter_faults.push_back(
        {5, 4.0, 10.0, fault::MeterFaultKind::kSpike, 40.0});

    runtime::JournalOptions jopt;
    jopt.snapshot_every = 16;
    runtime::Journal j(jopt);
    obs::Timeline tl;
    runtime::QueueEventLoop loop(fuzz_executor(), fuzz_scheduler(), opt, jobs);
    fault::FaultInjector injector(plan, fuzz_executor().spec().nodes);
    loop.set_fault_injector(&injector);
    loop.set_journal(&j);
    loop.set_timeline(&tl);
    (void)loop.run();

    const auto jpath = test::case_temp_path("corpus.clipj");
    j.save(jpath);
    journal = read_file(jpath);
    std::filesystem::remove(jpath);
    const auto tpath = test::case_temp_path("corpus.csv");
    tl.write_csv(tpath);
    timeline = read_file(tpath);
    std::filesystem::remove(tpath);
  }
};

const RecordedRun& recorded_run() {
  static const RecordedRun run;
  return run;
}

/// One to three seeded byte edits of `text`: flip a bit, delete a byte or
/// insert any byte; `newlines` false keeps '\n' out of the edited bytes.
std::string edit_bytes(std::string text, bool newlines, Rng& rng) {
  const auto pos = [&](std::size_t n) {  // in [0, n)
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  const auto byte = [&] {
    char b = static_cast<char>(rng.uniform_int(0, 255));
    while (!newlines && b == '\n') b = static_cast<char>(rng.uniform_int(0, 255));
    return b;
  };
  for (std::int64_t n = rng.uniform_int(1, 3); n > 0; --n) {
    switch (rng.uniform_int(0, 2)) {
      case 0:  // flip one bit
        if (!text.empty()) {
          char& c = text[pos(text.size())];
          c = static_cast<char>(c ^ (1 << rng.uniform_int(0, 7)));
          if (!newlines && c == '\n') c = '?';
        }
        break;
      case 1:  // delete one byte
        if (!text.empty()) text.erase(pos(text.size()), 1);
        break;
      default:  // insert one byte
        text.insert(pos(text.size() + 1), 1, byte());
        break;
    }
  }
  return text;
}

/// One seeded line-level edit: delete, duplicate or swap whole lines.
std::string edit_lines(const std::string& text, Rng& rng) {
  std::vector<std::string> lines = getline_lines(text);
  const auto pick = [&] {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(lines.size()) - 1));
  };
  switch (rng.uniform_int(0, 2)) {
    case 0:
      lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(pick()));
      break;
    case 1: {
      const std::size_t i = pick();
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(i), lines[i]);
      break;
    }
    default:
      std::swap(lines[pick()], lines[pick()]);
      break;
  }
  std::string out;
  for (const std::string& l : lines) out += l + '\n';
  return out;
}

/// A record line rewritten around `body` with a valid checksum, so the
/// edit reaches the record parser instead of stopping at the CRC.
std::string signed_line(const std::string& body) {
  char crc[9];
  std::snprintf(crc, sizeof crc, "%08x",
                static_cast<unsigned>(runtime::crc32(body)));
  return body + "#" + crc;
}

class JournalFileFuzz : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Seeds, JournalFileFuzz, ::testing::Range(0, 8));

TEST_P(JournalFileFuzz, MutatedFilesAreRefusedOrSalvageAPrefix) {
  const std::string& seed = recorded_run().journal;
  const std::vector<std::string> seed_lines = getline_lines(seed);
  ASSERT_GE(seed_lines.size(), 20u);
  const auto path = test::case_temp_path("mutated.clipj");
  const auto resaved = test::case_temp_path("resaved.clipj");
  Rng rng(0x10AD + static_cast<std::uint64_t>(GetParam()));
  for (int trial = 0; trial < 64; ++trial) {
    std::string bad;
    switch (rng.uniform_int(0, 2)) {
      case 0:  // raw bytes anywhere in the file
        bad = edit_bytes(seed, true, rng);
        break;
      case 1:  // whole lines
        bad = edit_lines(seed, rng);
        break;
      default: {  // one record's body, re-signed
        std::vector<std::string> lines = seed_lines;
        const auto k = static_cast<std::size_t>(rng.uniform_int(
            1, static_cast<std::int64_t>(lines.size()) - 1));
        const std::string body = lines[k].substr(0, lines[k].size() - 9);
        lines[k] = signed_line(edit_bytes(body, false, rng));
        for (const std::string& l : lines) bad += l + '\n';
        break;
      }
    }
    atomic_write_file(path, bad);

    runtime::Journal j;
    runtime::JournalLoadResult r;
    try {
      r = j.load(path);
    } catch (const PreconditionError&) {
      continue;  // refused: the header is no journal's
    }
    const std::vector<std::string> lines = getline_lines(bad);
    ASSERT_FALSE(lines.empty());
    EXPECT_EQ(r.records, j.size());
    EXPECT_EQ(r.records + r.dropped_lines, lines.size() - 1)
        << "trial " << trial << ": every line is kept or dropped";
    EXPECT_EQ(r.salvaged, r.dropped_lines > 0);
    j.save(resaved);
    std::string prefix;
    for (std::size_t i = 0; i <= r.records; ++i) prefix += lines[i] + '\n';
    EXPECT_EQ(read_file(resaved), prefix)
        << "trial " << trial << ": kept records are not a byte prefix ("
        << r.gap << ")";
  }
  std::filesystem::remove(path);
  std::filesystem::remove(resaved);
}

// The journal fuzzer's findings, pinned: a re-signed record whose sequence
// field carries a sign, a leading zero or leading whitespace ends the
// prefix — kept, it would save back as a different line.
TEST(JournalLoad, NonCanonicalSequenceNumbersEndThePrefix) {
  const auto path = test::case_temp_path("seq.clipj");
  for (const std::string seq :
       {"+2", "02", " 2", "\t2", "\v2", "\r2", "-18446744073709551614"}) {
    atomic_write_file(path, "clip-journal v1\n" + signed_line("1 begin x") +
                                "\n" + signed_line(seq + " tick t=1") + "\n" +
                                signed_line("3 end x") + "\n");
    runtime::Journal j;
    const runtime::JournalLoadResult r = j.load(path);
    EXPECT_EQ(r.records, 1u) << "sequence field '" << seq << "'";
    EXPECT_EQ(r.dropped_lines, 2u);
    EXPECT_EQ(r.gap, "line 3: sequence break (expected 2)");
  }
  std::filesystem::remove(path);
}

class TimelineCsvFuzz : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Seeds, TimelineCsvFuzz, ::testing::Range(0, 8));

TEST_P(TimelineCsvFuzz, MutatedCsvIsRefusedOrReloadsToItself) {
  const std::string& seed = recorded_run().timeline;
  ASSERT_GE(getline_lines(seed).size(), 20u);
  Rng rng(0x7C5F + static_cast<std::uint64_t>(GetParam()));
  for (int trial = 0; trial < 64; ++trial) {
    const std::string bad = rng.uniform_int(0, 2) == 0
                                ? edit_lines(seed, rng)
                                : edit_bytes(seed, true, rng);
    obs::Timeline tl;
    try {
      tl.load_csv_string(bad, "fuzzed timeline");
    } catch (const PreconditionError&) {
      continue;
    }
    const std::string exported = tl.to_csv_string();
    obs::Timeline again;
    again.load_csv_string(exported, "re-exported timeline");
    EXPECT_EQ(again.to_csv_string(), exported) << "trial " << trial;
  }
}

// The Launcher loads the knowledge DB from the file its caller names, so
// the DB's CSV parser sees outside bytes too. The seed is a saved DB of the
// paper benchmarks' characterizations, every third record stamped by
// another machine. A mutated file is either refused with PreconditionError,
// leaving the loaded DB exactly as it was, or loads into a DB whose save
// reloads and saves back byte for byte.

/// The bytes `db` saves.
std::string saved_bytes(const core::KnowledgeDb& db,
                        const std::filesystem::path& path) {
  db.save(path);
  return read_file(path);
}

const std::string& knowledge_db_seed() {
  static const std::string seed = [] {
    core::ClipScheduler sched{fuzz_executor(),
                              workloads::training_benchmarks()};
    core::KnowledgeDb db{core::KnowledgeDbShape{24, "fuzz-host"}};
    int n = 0;
    for (const auto& app : workloads::paper_benchmarks()) {
      (void)sched.schedule(app, Watts(1200.0));
      core::KnowledgeRecord r =
          *sched.knowledge_db().lookup(app.name, app.parameters);
      r.machine = n++ % 3 == 2 ? "other-host" : "fuzz-host";
      db.insert(r);
    }
    const auto path = test::case_temp_path("seed.csv");
    std::string bytes = saved_bytes(db, path);
    std::filesystem::remove(path);
    return bytes;
  }();
  return seed;
}

class KnowledgeDbFuzz : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Seeds, KnowledgeDbFuzz, ::testing::Range(0, 8));

TEST_P(KnowledgeDbFuzz, MutatedFilesAreRefusedOrResaveStably) {
  const std::string& seed = knowledge_db_seed();
  ASSERT_GE(getline_lines(seed).size(), 8u);
  const core::KnowledgeDbShape shape{24, "fuzz-host"};
  const auto path = test::case_temp_path("mutated.csv");
  const auto first = test::case_temp_path("first.csv");
  const auto second = test::case_temp_path("second.csv");
  atomic_write_file(path, seed);
  core::KnowledgeDb db{shape};
  db.load(path);
  const std::string before = saved_bytes(db, first);
  ASSERT_GT(db.size(), 0u);

  Rng rng(0xCD6B + static_cast<std::uint64_t>(GetParam()));
  for (int trial = 0; trial < 64; ++trial) {
    std::string bad;
    switch (rng.uniform_int(0, 2)) {
      case 0:  // truncate anywhere, as a torn copy would
        bad = seed.substr(0, static_cast<std::size_t>(rng.uniform_int(
                                 0, static_cast<std::int64_t>(seed.size()))));
        break;
      case 1:
        bad = edit_lines(seed, rng);
        break;
      default:
        bad = edit_bytes(seed, true, rng);
        break;
    }
    atomic_write_file(path, bad);

    try {
      db.load(path);
    } catch (const PreconditionError&) {
      EXPECT_EQ(saved_bytes(db, first), before)
          << "trial " << trial << ": a refused load changed the DB";
      continue;
    }
    const std::string once = saved_bytes(db, first);
    core::KnowledgeDb again{shape};
    again.load(first);
    EXPECT_EQ(saved_bytes(again, second), once)
        << "trial " << trial << ": save -> load -> save is not byte-stable";
    atomic_write_file(path, seed);
    db.load(path);  // back to the seed for the next trial's refusal check
  }
  std::filesystem::remove(path);
  std::filesystem::remove(first);
  std::filesystem::remove(second);
}

// The knowledge-DB fuzzer's finding, pinned: format_double cut its output
// at 63 characters, so a value past ~1e56 saved as a different number and
// the next save changed the file again.
TEST(KnowledgeDbLoad, HugeValuesSaveEveryDigit) {
  const auto path = test::case_temp_path("huge.csv");
  core::KnowledgeRecord r;
  r.name = "app";
  r.perf_ratio = 0.5;
  r.time_all_s = 1.0;
  r.time_half_s = 2.0;
  r.cpu_power_all_w = 100.0;
  r.memory_intensity = 2117e122;
  core::KnowledgeDb db;
  db.insert(r);
  const std::string once = saved_bytes(db, path);
  core::KnowledgeDb again;
  again.load(path);
  EXPECT_EQ(again.lookup("app", "")->memory_intensity, 2117e122);
  EXPECT_EQ(saved_bytes(again, path), once);
  std::filesystem::remove(path);
}

// --------------------------------------------------- controller sweeps ----

class ControllerSweep : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Caps, ControllerSweep,
                         ::testing::Values(40, 55, 70, 85, 100, 115, 130));

TEST_P(ControllerSweep, ThroughputBoundedAndMonotone) {
  const double cap = GetParam();
  const sim::MachineSpec spec;
  const sim::RaplControllerSim controller(spec);
  const auto w = *workloads::find_benchmark("BT-MZ");
  const auto trace = controller.simulate(
      w, 24, parallel::AffinityPolicy::kScatter, 68.0, Watts(cap));
  EXPECT_GT(trace.throughput, 0.0);
  EXPECT_LE(trace.throughput, 1.0 + 1e-9);
  const auto looser = controller.simulate(
      w, 24, parallel::AffinityPolicy::kScatter, 68.0, Watts(cap + 15.0));
  EXPECT_GE(looser.throughput, trace.throughput - 0.02);
}

// ----------------------------------------------- static-analyzer fuzz ----
//
// clip-analyze runs over every source file in CI, so its lexer, directive
// parser, function-span detector and flow engine must survive arbitrary
// byte soup: unterminated strings/comments, unbalanced braces, truncated
// directives, init-list lookalikes. The property is "never crash, never
// hang, always deterministic" — the exact findings on garbage are
// unspecified but must be well-formed and stable across runs.

class LintFuzz : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Soup, LintFuzz, ::testing::Range(0, 64));

TEST_P(LintFuzz, AnalyzerNeverChokesOnTokenSoup) {
  static const char* const kPieces[] = {
      "{", "}", "(", ")", "[", "]", ";", ":", "::", "->", ".", ",", "<",
      ">", "=", "+", "-", "*", "&", "|", "==", "&&", "#", "\"lit\"", "'c'",
      "\"unterminated", "/* unterminated", "//", "\\", "0x1f", "12.5",
      "try", "catch", "if", "for", "while", "operator", "noexcept",
      "return", "struct", "const", "static", "else", "do",
      "lock_guard", "scoped_lock", "unique_lock", "lock", "mu_",
      "jlog", "append_or_verify", "known_record_kinds", "journal_",
      "append", "load", "state_", "x_",
      "// clip-lint: journaled(state_, x_)",
      "// clip-lint: guards(mu_: state_)",
      "// clip-lint: guards(mu_@label: x_)",
      "// clip-lint: fallible(load)",
      "// clip-lint: allow(J1) reason",
      "// clip-lint: allow(",
      "// clip-lint: guards(",
      "// clip-lint:",
      "#include <mutex>",
  };
  constexpr std::size_t kVocab = sizeof(kPieces) / sizeof(kPieces[0]);

  Rng rng(0x11A7F022u + static_cast<std::uint64_t>(GetParam()));
  std::string src;
  const int pieces = static_cast<int>(rng.uniform_int(1, 400));
  for (int i = 0; i < pieces; ++i) {
    src += kPieces[rng.uniform_int(0, static_cast<std::int64_t>(kVocab) - 1)];
    const double sep = rng.uniform();
    src += sep < 0.70 ? " " : (sep < 0.95 ? "\n" : "");
  }
  // Half the cases additionally truncate mid-byte, modeling a torn read.
  if (rng.uniform() < 0.5 && !src.empty())
    src.resize(static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(src.size()) - 1)));

  const lint::FileResult a = lint::analyze_source(src, "soup.cpp");
  const lint::FileResult b = lint::analyze_source(src, "soup.cpp");
  ASSERT_EQ(a.findings.size(), b.findings.size()) << "non-deterministic";
  const auto& rules = lint::known_rules();
  for (std::size_t i = 0; i < a.findings.size(); ++i) {
    EXPECT_EQ(a.findings[i].rule, b.findings[i].rule);
    EXPECT_EQ(a.findings[i].line, b.findings[i].line);
    EXPECT_EQ(a.findings[i].message, b.findings[i].message);
    EXPECT_GE(a.findings[i].line, 0);
    EXPECT_NE(std::find(rules.begin(), rules.end(), a.findings[i].rule),
              rules.end())
        << a.findings[i].rule;
  }
  // The project passes must also digest fuzzed facts without incident.
  std::vector<lint::FileResult> files = {a};
  (void)lint::project_rules(files);
}

}  // namespace
}  // namespace clip
