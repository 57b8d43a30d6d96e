// Workload `queue-deep`: deep job streams through a bare QueueEventLoop.
//
// Each stream's jobs, drawn with repeats from a seeded pool of distinct
// apps, are all submitted at once to a fault-free event loop at 700 W with
// no journal, timeline or observer. CLIP sees every pool app once (a
// knowledge-DB miss) and every repeat as a hit, so the admission pass and
// CLIP's cached decisions dominate; the simulator's share is one exact run
// per start and the oracle is not used at all. Streams hold a few hundred
// jobs, not thousands: with a fifth of the jobs pinned to a node count the
// per-job cost grows with depth (README.md, findings), and a stream of
// 2000 jobs takes about 20 s, too long to repeat within one run.
#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/scheduler.hpp"
#include "job_stream.hpp"
#include "obs/session.hpp"
#include "runtime/queue.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace clip;

namespace {

constexpr int kStreams = 48;
constexpr int kPool = 32;
constexpr int kJobs = 200;
/// Every fifth job arrives pinned to a node count.
constexpr int kPinnedEvery = 5;
/// Stream runs per timed run: the p90 of their latency has ten beyond it.
constexpr std::size_t kMinRuns = 100;
/// Streams the traced run uses (it runs each several ways).
constexpr std::size_t kTraceStreams = 4;
constexpr double kBudgetW = 700.0;

runtime::QueueOptions queue_options() {
  runtime::QueueOptions opt;
  opt.cluster_budget = Watts(kBudgetW);
  return opt;
}

/// One repetition's fresh coordinator: the noisy testbed (as the queue
/// benches use) and a CLIP scheduler trained on the paper's suite. Both are
/// rebuilt per repetition: a reused executor's meter noise stream moves on
/// and a reused scheduler's knowledge DB is warm, which changes the outputs.
struct Coordinator {
  sim::SimExecutor ex;
  core::ClipScheduler sched;
  Coordinator()
      : ex(bench::make_testbed()),
        sched(ex, workloads::training_benchmarks()) {}
};

std::uint64_t report_digest(const runtime::QueueReport& r) {
  std::uint64_t h = digest(kDigestSeed, r.makespan_s);
  for (const auto& j : r.jobs) {
    h = digest(h, j.app);
    h = digest(h, j.start_s);
    h = digest(h, j.end_s);
    h = digest(h, static_cast<double>(j.nodes));
    h = digest(h, j.budget_w);
  }
  return h;
}

void check_report(const runtime::QueueReport& r, std::size_t jobs,
                  Result& out) {
  out.check(r.jobs.size() == jobs, "queue-deep: report lost jobs");
  for (const auto& j : r.jobs)
    out.check(j.completed, "queue-deep: job " + j.app + " did not complete");
  out.check(r.violation_ws == 0.0,
            "queue-deep: budget violated by " + fmt(r.violation_ws) + " W*s");
}

}  // namespace

void run_queue_deep(const Options& opt, Result& out) {
  const auto streams =
      make_job_streams(opt.seed, kStreams, kPool, kJobs, kPinnedEvery);
  std::vector<double> setup_s, run_ms, makespans;
  std::vector<std::vector<double>> stream_s(streams.size());
  std::vector<std::uint64_t> first;
  std::size_t jobs = 0;
  int reps = 0;
  HostSpeed speed;
  // Whole repetitions only, so every stream weighs the same in the result.
  for (RepeatUntil loop(opt.seconds, kMinRuns); loop.more(run_ms.size());
       ++reps) {
    std::vector<double> rep_setup, rep_run;
    for (std::size_t k = 0; k < streams.size(); ++k) {
      if (k % 2 == 0) speed.sample();
      const auto s0 = Clock::now();
      Coordinator c;
      runtime::QueueEventLoop queue(c.ex, c.sched, queue_options(),
                                    streams[k].jobs);
      rep_setup.push_back(seconds_between(s0, Clock::now()));

      const auto t0 = Clock::now();
      const runtime::QueueReport r = queue.run();
      rep_run.push_back(seconds_between(t0, Clock::now()));
      if (reps == 0) jobs += streams[k].jobs.size();

      check_report(r, streams[k].jobs.size(), out);
      const std::uint64_t h = report_digest(r);
      if (reps == 0) {
        first.push_back(h);
        makespans.push_back(r.makespan_s);
      }
      out.check(h == first[k], "queue-deep: repetition " +
                                   std::to_string(reps) +
                                   " changed stream " + std::to_string(k));
    }
    const double f = speed.end_repetition();
    for (std::size_t k = 0; k < streams.size(); ++k) {
      setup_s.push_back(rep_setup[k] * f);
      run_ms.push_back(rep_run[k] * f * 1e3);
      stream_s[k].push_back(rep_run[k] * f);
    }
  }
  out.digest = kDigestSeed;
  for (const std::uint64_t h : first)
    out.digest = digest(out.digest, std::to_string(h));
  out.set("setup_s", median(setup_s), "s");
  out.set("throughput_per_s",
          median_rate(static_cast<double>(jobs), stream_s), "1/s",
          "queue_jobs_per_s", "jobs/s");
  out.set("op_ms_p50", quantile(run_ms, 0.5), "ms", "queue_stream_ms_p50");
  out.set("op_ms_p90", quantile(run_ms, 0.9), "ms", "queue_stream_ms_p90");
  out.set("sim_makespan_s",
          sum(makespans) / static_cast<double>(makespans.size()), "s");
  out.note("queue-deep: " + std::to_string(reps) + " repetitions x " +
           std::to_string(kStreams) + " streams of " +
           std::to_string(kJobs) + " jobs, each over " +
           std::to_string(kPool) + " distinct apps, at " + fmt(kBudgetW) +
           " W; sim_makespan_s is the mean over streams");
  out.note(speed.describe());
}

void trace_queue_deep(const Options& opt, Tracer& tracer, Result& out) {
  auto streams =
      make_job_streams(opt.seed, kStreams, kPool, kJobs, kPinnedEvery);

  // Untraced runs of every stream (so sim_makespan_s matches the timed
  // run), with the process counters around them. The first kTraceStreams
  // run untraced again just before and just after their traced runs, as
  // the baseline of the tracing overhead.
  struct Pass {
    double first_s = 0.0;  ///< run time of the first kTraceStreams
    std::uint64_t first_digest = kDigestSeed;
    std::uint64_t digest = kDigestSeed;  ///< of every stream run
  };
  const auto plain_pass = [&](std::size_t count,
                              std::vector<double>* makespans) {
    Pass p;
    for (std::size_t k = 0; k < count; ++k) {
      Coordinator c;
      runtime::QueueEventLoop queue(c.ex, c.sched, queue_options(),
                                    streams[k].jobs);
      const auto t0 = Clock::now();
      const runtime::QueueReport r = queue.run();
      const std::uint64_t h = report_digest(r);
      p.digest = digest(p.digest, std::to_string(h));
      if (makespans != nullptr) makespans->push_back(r.makespan_s);
      if (k >= kTraceStreams) continue;
      p.first_s += seconds_between(t0, Clock::now());
      p.first_digest = digest(p.first_digest, std::to_string(h));
    }
    return p;
  };
  std::vector<double> makespans;
  const ProcUsage u0 = proc_usage();
  const Pass all = plain_pass(streams.size(), &makespans);
  const ProcUsage du = proc_usage() - u0;
  out.set("proc.user_cpu_ms", du.user_ms, "ms");
  out.set("proc.sys_cpu_ms", du.sys_ms, "ms");
  out.set("proc.minor_faults", du.minor_faults, "count");
  out.set("sim_makespan_s",
          sum(makespans) / static_cast<double>(makespans.size()), "s");
  out.digest = all.digest;
  streams.resize(kTraceStreams);
  const double before_s = plain_pass(kTraceStreams, nullptr).first_s;

  // Traced runs: one span around the loop's public run(), with an
  // observation session on the executor for the simulator's counters.
  const double pass_start = tracer.now_s();
  double traced_s = 0.0;
  double sim_runs = 0.0;
  std::uint64_t traced_digest = kDigestSeed;
  std::size_t jobs = 0;
  for (const JobStream& st : streams) {
    Coordinator c;
    obs::ObsSession session;
    c.ex.set_observer(&session);
    runtime::QueueEventLoop queue(c.ex, c.sched, queue_options(), st.jobs);
    const double t0 = tracer.now_s();
    runtime::QueueReport r;
    {
      auto sp = tracer.span("runtime.queue.run");
      r = queue.run();
    }
    traced_s += tracer.now_s() - t0;
    jobs += st.jobs.size();
    check_report(r, st.jobs.size(), out);
    traced_digest = digest(traced_digest, std::to_string(report_digest(r)));
    const obs::Counter* runs = session.metrics().find_counter("sim.runs");
    sim_runs += runs == nullptr ? 0.0 : static_cast<double>(runs->value());
  }
  const double pass_end = tracer.now_s();
  // Warm untraced baseline: the same runs just before and just after.
  const double plain_s =
      0.5 * (before_s + plain_pass(kTraceStreams, nullptr).first_s);
  out.check(traced_digest == all.first_digest,
            "queue-deep: the observer changed the simulated outputs");
  out.set("runtime.queue.us_per_job",
          traced_s * 1e6 / static_cast<double>(jobs), "us");
  out.set("sim.runs", sim_runs / static_cast<double>(streams.size()),
          "count");
  out.set("trace.overhead_pct", (traced_s / plain_s - 1.0) * 100.0, "%");
  const double covered = tracer.layer_self_s(pass_start, pass_end);
  out.set("trace.coverage", covered / (pass_end - pass_start), "ratio");
  out.note("trace: the traced queue runs cover " + fmt(covered) + " s of " +
           fmt(pass_end - pass_start) +
           " s; not accounted for by any layer: building a fresh "
           "coordinator before each run");

  // CLIP reached directly with the queue's inputs: each job in stream order
  // asks for a decision at the full budget (the first sight of a pool app
  // is a knowledge-DB miss, a repeat a hit), and each job with a launch
  // line is then constrained to its node count with a proportional slice,
  // as try_start does. Each decision's configuration is then timed on the
  // simulator, as try_start does before placing the job.
  std::vector<double> hit_us, miss_us, constrained_us, exact_us;
  for (const JobStream& st : streams) {
    Coordinator c;
    std::size_t kdb = c.sched.knowledge_db().size();
    for (const auto& job : st.jobs) {
      const double t0 = tracer.now_s();
      core::ScheduleDecision d;
      {
        auto sp = tracer.span("core.schedule");
        d = c.sched.schedule(job.app, Watts(kBudgetW));
      }
      const double dt = tracer.now_s() - t0;
      const std::size_t now = c.sched.knowledge_db().size();
      (now > kdb ? miss_us : hit_us).push_back(dt * 1e6);
      kdb = now;
      if (job.requested_nodes > 0 && job.requested_nodes != d.cluster.nodes) {
        const int n = job.requested_nodes;
        const double slice = kBudgetW * n / std::max(d.cluster.nodes, n);
        const double c0 = tracer.now_s();
        {
          auto sp = tracer.span("core.schedule_constrained");
          d = c.sched.schedule_constrained(job.app, Watts(slice), n);
        }
        constrained_us.push_back((tracer.now_s() - c0) * 1e6);
      }
      const double e0 = tracer.now_s();
      {
        auto sp = tracer.span("sim.run_exact");
        (void)c.ex.run_exact(job.app, d.cluster);
      }
      exact_us.push_back((tracer.now_s() - e0) * 1e6);
    }
  }
  out.set("core.schedule_hit_us", median(hit_us), "us");
  out.set("core.schedule_miss_us", median(miss_us), "us");
  out.set("core.schedule_constrained_us", median(constrained_us), "us");
  out.set("core.kdb_hit_ratio",
          static_cast<double>(hit_us.size()) /
              static_cast<double>(hit_us.size() + miss_us.size()),
          "ratio");
  out.set("sim.run_exact_us", median(exact_us), "us");

  // Admission cost against depth: per-job cost of whole streams over
  // per-job cost of their first eighths, each run on a coordinator whose
  // knowledge DB already holds every pool app (so both depths pay only
  // admission and cached decisions, not first-sight profiling).
  const auto per_job_s = [&](std::size_t n) {
    double total = 0.0;
    for (const JobStream& st : streams) {
      Coordinator c;
      for (const auto& app : st.pool)
        (void)c.sched.schedule(app, Watts(kBudgetW));
      std::vector<runtime::QueueJob> prefix(
          st.jobs.begin(), st.jobs.begin() + static_cast<long>(n));
      runtime::QueueEventLoop queue(c.ex, c.sched, queue_options(),
                                    std::move(prefix));
      const auto t0 = Clock::now();
      (void)queue.run();
      total += seconds_between(t0, Clock::now());
    }
    return total / static_cast<double>(n * streams.size());
  };
  out.set("runtime.queue.depth_growth",
          per_job_s(kJobs) / per_job_s(kJobs / 8), "ratio");
}

}  // namespace perfbench
