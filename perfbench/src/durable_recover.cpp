// Workload `durable-recover`: the journaled, recorded, faulted coordinator
// and its crash recovery.
//
// Each stream of a few hundred jobs runs once through a QueueEventLoop with
// a Journal, a Timeline and a FaultInjector attached, on the `combined`
// scenario of bench/resilience_scenarios.hpp (a crash, a thermal degrade,
// a meter dropout and an unenforced cap violation) with runtime power
// redistribution on. That reference run writes journal records and
// snapshots; its journal is then cut at evenly spaced record boundaries and
// every cut is recovered with fresh attachments, which reads them back
// (restore the latest snapshot, replay-verify the suffix, resume). This is
// the only workload where the journal and the timeline meet: snapshots
// embed the flight record.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/scheduler.hpp"
#include "fault/injector.hpp"
#include "job_stream.hpp"
#include "obs/session.hpp"
#include "obs/timeline.hpp"
#include "resilience_scenarios.hpp"
#include "runtime/journal.hpp"
#include "runtime/queue.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace clip;

namespace {

constexpr int kStreams = 24;
constexpr int kPool = 24;
constexpr int kJobs = 160;
/// Cuts per stream: record 0, the end of the journal and the boundaries
/// evenly spaced between them.
constexpr int kCuts = 8;
/// Recoveries per timed run: the p90 of their latency has ten beyond it.
constexpr std::size_t kMinRecoveries = 100;
constexpr double kBudgetW = 700.0;

/// Bit-exact textual fingerprint of one run, as bench/recovery.cpp builds
/// it: hexfloat report scalars, the per-job table and the timeline CSV.
std::string fingerprint(const runtime::QueueReport& r,
                        const obs::Timeline& timeline) {
  std::ostringstream os;
  os << std::hexfloat << r.makespan_s << '|' << r.mean_turnaround_s << '|'
     << r.total_energy_j << '|' << r.retries << '|' << r.jobs_failed << '|'
     << r.caps_reprogrammed << '|' << r.violation_s << '|' << r.violation_ws;
  for (const auto& j : r.jobs)
    os << '\n'
       << j.app << ',' << j.start_s << ',' << j.end_s << ',' << j.nodes << ','
       << j.budget_w << ',' << j.attempts << ',' << j.completed;
  os << '\n' << timeline.to_csv_string();
  return os.str();
}

/// One stream's fresh coordinator: the noise-free testbed and a CLIP
/// scheduler whose knowledge DB is warmed by one fault-free run (as
/// bench/recovery.cpp does), so the reference run and every recovery
/// schedule from the same cached profiles. The warm run's makespan is the
/// horizon the fault scenario is laid out on.
struct Coordinator {
  sim::SimExecutor ex;
  core::ClipScheduler sched;
  runtime::QueueOptions opt;
  fault::FaultPlan plan;

  explicit Coordinator(const std::vector<runtime::QueueJob>& jobs)
      : ex(bench::make_exact_testbed()),
        sched(ex, workloads::training_benchmarks()) {
    opt.cluster_budget = Watts(kBudgetW);
    opt.redist.enabled = true;
    const double horizon =
        runtime::QueueEventLoop(ex, sched, opt, jobs).run().makespan_s;
    for (auto& s : bench::make_resilience_scenarios(horizon))
      if (s.name == "combined") plan = s.plan;
  }
};

struct Attach {
  bool journal = true;
  bool timeline = true;
};

struct RunResult {
  runtime::QueueReport report;
  std::string fp;
  double run_s = 0.0;  ///< the run() or recover() call alone
};

/// One run of the loop with a fresh injector and timeline: fresh (into
/// `journal` when given) or recovering from `resume`.
RunResult drive(Coordinator& c, const std::vector<runtime::QueueJob>& jobs,
                runtime::Journal* journal, runtime::Journal* resume,
                Attach attach = {}) {
  runtime::QueueEventLoop loop(c.ex, c.sched, c.opt, jobs);
  obs::Timeline timeline;
  if (attach.timeline) loop.set_timeline(&timeline);
  fault::FaultInjector injector(c.plan, c.ex.spec().nodes);
  loop.set_fault_injector(&injector);
  if (journal != nullptr && attach.journal) loop.set_journal(journal);
  RunResult out;
  const auto t0 = Clock::now();
  out.report = resume != nullptr ? loop.recover(*resume) : loop.run();
  out.run_s = seconds_between(t0, Clock::now());
  out.fp = fingerprint(out.report, timeline);
  return out;
}

std::vector<std::size_t> cut_points(std::size_t records) {
  std::vector<std::size_t> cuts;
  for (int k = 0; k <= kCuts; ++k)
    cuts.push_back(records * static_cast<std::size_t>(k) /
                   static_cast<std::size_t>(kCuts));
  return cuts;
}

}  // namespace

void run_durable_recover(const Options& opt, Result& out) {
  const auto streams = make_job_streams(opt.seed, kStreams, kPool, kJobs, 0);
  std::vector<double> setup_s, recover_ms, violation;
  std::vector<std::vector<double>> ref_s(streams.size());
  std::vector<std::uint64_t> first;
  std::size_t ref_jobs = 0;
  int reps = 0;
  HostSpeed speed;
  // Whole repetitions only, so every stream weighs the same in the result.
  for (RepeatUntil loop(opt.seconds, kMinRecoveries);
       loop.more(recover_ms.size()); ++reps) {
    std::vector<double> rep_setup, rep_ref, rep_recover;
    for (std::size_t k = 0; k < streams.size(); ++k) {
      speed.sample();
      const auto& jobs = streams[k].jobs;
      const auto s0 = Clock::now();
      Coordinator c(jobs);
      rep_setup.push_back(seconds_between(s0, Clock::now()));

      runtime::Journal reference;
      const RunResult ref = drive(c, jobs, &reference, nullptr);
      rep_ref.push_back(ref.run_s);
      if (reps == 0) ref_jobs += jobs.size();

      for (const std::size_t cut : cut_points(reference.size())) {
        runtime::Journal cut_journal = reference;
        cut_journal.truncate(cut);
        const RunResult rec = drive(c, jobs, nullptr, &cut_journal);
        rep_recover.push_back(rec.run_s);
        out.check(rec.fp == ref.fp,
                  "durable-recover: stream " + std::to_string(k) +
                      " recovered from record " + std::to_string(cut) +
                      " differs from the uninterrupted run");
      }
      const std::uint64_t h = digest(kDigestSeed, ref.fp);
      if (reps == 0) {
        first.push_back(h);
        violation.push_back(ref.report.violation_ws);
      }
      out.check(h == first[k], "durable-recover: repetition " +
                                   std::to_string(reps) +
                                   " changed stream " + std::to_string(k));
    }
    const double f = speed.end_repetition();
    for (std::size_t k = 0; k < streams.size(); ++k) {
      setup_s.push_back(rep_setup[k] * f);
      ref_s[k].push_back(rep_ref[k] * f);
    }
    for (const double r : rep_recover) recover_ms.push_back(r * f * 1e3);
  }
  out.digest = kDigestSeed;
  for (const std::uint64_t h : first)
    out.digest = digest(out.digest, std::to_string(h));
  out.set("setup_s", median(setup_s), "s");
  out.set("throughput_per_s",
          median_rate(static_cast<double>(ref_jobs), ref_s), "1/s",
          "durable_jobs_per_s", "jobs/s");
  out.set("op_ms_p50", quantile(recover_ms, 0.5), "ms", "recover_ms_p50");
  out.set("op_ms_p90", quantile(recover_ms, 0.9), "ms", "recover_ms_p90");
  out.set("sim_violation_ws",
          sum(violation) / static_cast<double>(violation.size()), "J");
  out.note("durable-recover: " + std::to_string(reps) + " repetitions x " +
           std::to_string(kStreams) + " streams of " +
           std::to_string(kJobs) + " jobs, " + std::to_string(kCuts + 1) +
           " recoveries each; sim_violation_ws is the mean over streams");
  out.note(speed.describe());
}

void trace_durable_recover(const Options& opt, Tracer& tracer,
                           Result& out) {
  const auto streams = make_job_streams(opt.seed, kStreams, kPool, kJobs, 0);

  // Untraced reference repetition, with the process counters around it.
  std::vector<double> violation;
  // Held by pointer: the scheduler keeps the address of its executor.
  std::vector<std::unique_ptr<Coordinator>> coords;
  std::vector<RunResult> plain;
  const ProcUsage u0 = proc_usage();
  out.digest = kDigestSeed;
  for (const JobStream& st : streams) {
    Coordinator& c =
        *coords.emplace_back(std::make_unique<Coordinator>(st.jobs));
    runtime::Journal reference;
    plain.push_back(drive(c, st.jobs, &reference, nullptr));
    for (const std::size_t cut : cut_points(reference.size())) {
      runtime::Journal j = reference;
      j.truncate(cut);
      (void)drive(c, st.jobs, nullptr, &j);
    }
    violation.push_back(plain.back().report.violation_ws);
    out.digest =
        digest(out.digest,
               std::to_string(digest(kDigestSeed, plain.back().fp)));
  }
  const ProcUsage du = proc_usage() - u0;
  out.set("proc.user_cpu_ms", du.user_ms, "ms");
  out.set("proc.sys_cpu_ms", du.sys_ms, "ms");
  out.set("proc.minor_faults", du.minor_faults, "count");
  out.set("sim_violation_ws",
          sum(violation) / static_cast<double>(violation.size()), "J");

  // Traced pass: spans around the loop's run() and recover(), around
  // Journal::truncate, and around the timeline export.
  const double pass_start = tracer.now_s();
  double traced_ref_s = 0.0;
  double resume_s = 0.0, csv_s = 0.0;
  double records = 0.0, snapshot_bytes = 0.0, snapshots = 0.0, bytes = 0.0,
         replayed = 0.0, samples = 0.0;
  double regrants = 0.0, claws = 0.0, retries = 0.0, caps = 0.0,
         rejected = 0.0;
  std::vector<runtime::Journal> references;
  references.reserve(streams.size());
  std::size_t jobs = 0;
  for (std::size_t k = 0; k < streams.size(); ++k) {
    const auto& st = streams[k];
    Coordinator& c = *coords[k];
    runtime::Journal& reference = references.emplace_back();
    RunResult ref;
    {
      runtime::QueueEventLoop loop(c.ex, c.sched, c.opt, st.jobs);
      obs::Timeline timeline;
      loop.set_timeline(&timeline);
      fault::FaultInjector injector(c.plan, c.ex.spec().nodes);
      loop.set_fault_injector(&injector);
      loop.set_journal(&reference);
      const double t0 = tracer.now_s();
      {
        auto sp = tracer.span("runtime.queue.run");
        ref.report = loop.run();
      }
      traced_ref_s += tracer.now_s() - t0;
      const double c0 = tracer.now_s();
      std::string csv;
      {
        auto sp = tracer.span("obs.timeline.to_csv_string");
        csv = timeline.to_csv_string();
      }
      csv_s += tracer.now_s() - c0;
      ref.fp = fingerprint(ref.report, timeline);
      samples += static_cast<double>(timeline.total_samples());
    }
    out.check(ref.fp == plain[k].fp,
              "durable-recover: tracing changed the reference run");
    jobs += st.jobs.size();
    records += static_cast<double>(reference.size());
    for (const auto& r : reference.records()) {
      bytes += static_cast<double>(r.kind.size() + r.payload.size());
      if (r.kind == "snapshot") {
        snapshot_bytes += static_cast<double>(r.payload.size());
        snapshots += 1.0;
      }
    }
    const auto last = reference.last_snapshot();
    replayed += static_cast<double>(reference.size() -
                                    (last.has_value() ? *last + 1 : 0));
    const auto& rep = ref.report;
    regrants += rep.redist_regrants;
    claws += rep.redist_claw_backs;
    retries += rep.retries;
    caps += rep.caps_reprogrammed;
    rejected += static_cast<double>(rep.meter_reads_rejected);

    for (const std::size_t cut : cut_points(reference.size())) {
      runtime::Journal j = reference;
      {
        auto sp = tracer.span("runtime.journal.truncate");
        j.truncate(cut);
      }
      runtime::QueueEventLoop loop(c.ex, c.sched, c.opt, st.jobs);
      obs::Timeline timeline;
      loop.set_timeline(&timeline);
      fault::FaultInjector injector(c.plan, c.ex.spec().nodes);
      loop.set_fault_injector(&injector);
      const double r0 = tracer.now_s();
      runtime::QueueReport r;
      {
        auto sp = tracer.span("runtime.recover");
        r = loop.recover(j);
      }
      if (cut == reference.size()) resume_s += tracer.now_s() - r0;
      out.check(fingerprint(r, timeline) == plain[k].fp,
                "durable-recover: stream " + std::to_string(k) +
                    " recovered from record " + std::to_string(cut) +
                    " differs from the uninterrupted run");
    }
  }
  const double pass_end = tracer.now_s();
  const double n = static_cast<double>(streams.size());
  const double per_job = 1.0 / static_cast<double>(jobs);
  out.set("runtime.queue.us_per_job", traced_ref_s * 1e6 * per_job, "us");
  out.set("runtime.journal.records_per_job", records * per_job, "records");
  out.set("runtime.journal.snapshot_bytes",
          snapshots > 0 ? snapshot_bytes / snapshots : 0.0, "B");
  out.set("runtime.journal.bytes_per_job", bytes * per_job, "B");
  out.set("runtime.recover.resume_ms", resume_s * 1e3 / n, "ms");
  out.set("runtime.recover.replayed_records", replayed / n, "records");
  out.set("runtime.redist.regrants", regrants / n, "count");
  out.set("runtime.redist.claw_backs", claws / n, "count");
  out.set("fault.retries", retries / n, "count");
  out.set("fault.caps_reprogrammed", caps / n, "count");
  out.set("fault.meter_reads_rejected", rejected / n, "count");
  out.set("obs.timeline.samples", samples / n, "count");
  out.set("obs.timeline.csv_ms", csv_s * 1e3 / n, "ms");
  const double covered = tracer.layer_self_s(pass_start, pass_end);
  out.set("trace.coverage", covered / (pass_end - pass_start), "ratio");
  out.note("trace: layer spans cover " + fmt(covered) + " s of the " +
           fmt(pass_end - pass_start) +
           " s traced pass; not accounted for by any layer: copying each "
           "reference journal before a cut, building loops, injectors and "
           "timelines, and fingerprinting recovered runs");

  // Journal::append reached directly with the reference run's records.
  {
    double append_s = 0.0;
    double appended = 0.0;
    for (const runtime::Journal& reference : references) {
      runtime::Journal copy;
      const double t0 = tracer.now_s();
      {
        auto sp = tracer.span("runtime.journal.append");
        for (const auto& r : reference.records())
          copy.append(r.kind, r.payload);
      }
      append_s += tracer.now_s() - t0;
      appended += static_cast<double>(reference.size());
    }
    out.set("runtime.journal.append_us", append_s * 1e6 / appended, "us");
  }

  // Hook costs from attachment on/off deltas: every stream's run() call,
  // bare, journal-only, timeline-only and with both, three times in
  // rotating order; medians per configuration.
  std::vector<double> cfg_s[4];
  const Attach configs[4] = {{false, false}, {true, false}, {false, true},
                             {true, true}};
  for (int round = 0; round < 3; ++round)
    for (int i = 0; i < 4; ++i) {
      const Attach a = configs[(i + round) % 4];
      double t = 0.0;
      for (std::size_t k = 0; k < streams.size(); ++k) {
        runtime::Journal j;
        t += drive(*coords[k], streams[k].jobs, &j, nullptr, a).run_s;
      }
      cfg_s[(i + round) % 4].push_back(t * 1e3 / n);
    }
  const double bare = median(cfg_s[0]), journal = median(cfg_s[1]),
               timeline = median(cfg_s[2]), both = median(cfg_s[3]);
  out.note("reference run per stream: bare " + fmt(bare) +
           " ms, journal only " + fmt(journal) + " ms, timeline only " +
           fmt(timeline) + " ms, both " + fmt(both) + " ms");
  out.set("runtime.journal.cost_ms", journal - bare, "ms");
  out.set("obs.timeline.cost_ms", timeline - bare, "ms");
  out.set("obs.journal_timeline.interaction_ms",
          both - journal - timeline + bare, "ms");
  // Tracing overhead: the traced reference runs against the untraced runs
  // with both attachments, which do the same work after the same warm-up.
  out.set("trace.overhead_pct",
          (traced_ref_s * 1e3 / n / both - 1.0) * 100.0, "%");
}

}  // namespace perfbench
