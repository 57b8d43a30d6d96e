// Workload `sweep`: the Fig. 8/9 method comparison on seeded random apps.
//
// Every app's full budget sweep (seven budgets × All-In, Lower Limit,
// Coordinated, CLIP, Oracle) is one ComparisonHarness::run call, made
// serially. The engine comes from the figure binaries' shared setup code
// (bench::BenchContext with default flags, bench::make_testbed,
// BenchContext::attach, bench::register_all_methods), rebuilt for every
// repetition, so whatever evaluation mechanisms the figure binaries use by
// default are what this workload measures. The simulator and the oracle's
// search do almost all the work; the queue, journal and timeline do none.
#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "bench_common.hpp"
#include "obs/session.hpp"
#include "workloads.hpp"
#include "workloads/random.hpp"

namespace perfbench {

using namespace clip;

namespace {

/// Apps per repetition: enough that one seed's mix of classes and search
/// costs averages out, small enough for several repetitions per run.
constexpr int kApps = 960;
/// Samples needed so the p90 of app latencies has ten beyond it.
constexpr std::size_t kMinAppSamples = 100;
const std::vector<double> kBudgets = {500.0,  600.0,  700.0, 800.0,
                                      1000.0, 1200.0, 1400.0};

std::vector<workloads::WorkloadSignature> make_apps(std::uint64_t seed) {
  std::vector<workloads::WorkloadSignature> apps =
      workloads::random_signatures(seed, kApps);
  bool seen[3] = {false, false, false};
  for (const auto& a : apps) seen[static_cast<int>(a.expected_class)] = true;
  if (!(seen[0] && seen[1] && seen[2]))
    throw std::runtime_error("sweep: seed draws fewer than three classes");
  return apps;
}

/// argv for bench::BenchContext, which parses the figure binaries' flags.
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : args_(std::move(args)) {
    args_.insert(args_.begin(), "perfbench");
    for (std::string& a : args_) ptrs_.push_back(a.data());
  }
  [[nodiscard]] int argc() const { return static_cast<int>(ptrs_.size()); }
  [[nodiscard]] char** argv() { return ptrs_.data(); }

 private:
  std::vector<std::string> args_;
  std::vector<char*> ptrs_;
};

/// One repetition's engine, built the way the figure binaries build theirs.
/// `methods` = false leaves the harness empty for callers that register
/// their own (traced) method instances.
struct Engine {
  Argv args;
  bench::BenchContext ctx;
  sim::SimExecutor ex;
  runtime::ComparisonHarness harness;

  explicit Engine(std::vector<std::string> flags, bool methods = true)
      : args(std::move(flags)),
        ctx(args.argc(), args.argv()),
        ex(bench::make_testbed()),
        harness(ex) {
    ctx.attach(ex);
    if (methods) bench::register_all_methods(harness, ex, &ctx);
  }
};

/// Watts a plan's caps allow: per-node CPU cap (or its override) plus the
/// node's DRAM cap, over the active nodes.
double plan_cap_watts(const sim::ClusterConfig& p) {
  double w = 0.0;
  for (int n = 0; n < p.nodes; ++n) {
    const double cpu = p.cpu_cap_overrides.empty()
                           ? p.node.cpu_cap.value()
                           : p.cpu_cap_overrides[static_cast<std::size_t>(n)]
                                 .value();
    w += cpu + p.node.mem_cap.value();
  }
  return w;
}

/// Every app whose Oracle cells are searched again without pruning: 48 of
/// the 960, spread over the seed's draw.
constexpr std::size_t kOracleRecheckEvery = 20;

/// Digest of one app's cells: what each method planned and how long the
/// plan ran.
std::uint64_t cells_digest(const runtime::ComparisonResult& r) {
  std::uint64_t h = kDigestSeed;
  for (const auto& c : r.cells) {
    h = digest(h, c.app);
    h = digest(h, c.method);
    h = digest(h, c.budget_w);
    h = digest(h, c.time_s);
    h = digest(h, c.plan.describe());
  }
  return h;
}

/// The sweep's correctness checks, applied app by app on an executor of
/// their own (no exact-run cache, no observer), so checking leaves the
/// measured engine untouched:
///  * every plan's simulated draw (Measurement::avg_power, the CPU and DRAM
///    watts of all active nodes) fits its budget, the budget criterion of
///    the repository's own tests (OracleRespectsBudget);
///  * on every kOracleRecheckEvery-th app, an unpruned, serial, unmemoized
///    OracleScheduler finds the same optimal time in every cell as the
///    Oracle the figure binaries register: pruning, bound memoization, the
///    batch frontier and the exact-run cache must not change the optimum
///    (oracle.hpp).
/// Two properties the schedulers do not promise are counted, not failed:
/// cap sums above the budget (Coordinated gives the DRAM cap 0.5 W of
/// headroom over its predicted draw) and methods faster than the Oracle
/// (the Oracle searches a discrete DRAM-cap grid, so an off-grid split can
/// win). See perfbench/README.md.
class SweepChecker {
 public:
  explicit SweepChecker(Result& out)
      : out_(&out), ex_(bench::make_testbed()) {}

  void check(std::size_t index, const workloads::WorkloadSignature& app,
             const runtime::ComparisonResult& r) {
    std::map<double, double> oracle_time;
    for (const auto& c : r.cells)
      if (c.method == "Oracle") oracle_time[c.budget_w] = c.time_s;
    for (const auto& c : r.cells) {
      const std::string cell =
          c.method + " on " + c.app + " @" + fmt(c.budget_w) + " W";
      const double draw = ex_.run_exact(app, c.plan).avg_power.value();
      out_->check(draw <= c.budget_w * (1.0 + 1e-9),
                  "sweep: " + cell + " draws " + fmt(draw) + " W");
      const double caps_over = plan_cap_watts(c.plan) - c.budget_w;
      if (caps_over > c.budget_w * 1e-9) {
        ++caps_above_;
        max_caps_over_w_ = std::max(max_caps_over_w_, caps_over);
      }
      const auto it = oracle_time.find(c.budget_w);
      out_->check(it != oracle_time.end() && it->second > 0.0,
                  "sweep: no Oracle cell for " + cell);
      if (it == oracle_time.end() || it->second <= 0.0) continue;
      const double oracle = it->second;
      if (c.time_s * (1.0 + 1e-4) < oracle) {
        ++oracle_beaten_;
        max_beaten_ = std::max(max_beaten_, 1.0 - c.time_s / oracle);
      }
      if (c.method == "CLIP") clip_over_oracle_.push_back(c.time_s / oracle);
    }
    if (index % kOracleRecheckEvery == 0) {
      baselines::OracleOptions unpruned;
      unpruned.prune = false;
      baselines::OracleScheduler full(ex_, unpruned);
      for (const auto& [budget, time] : oracle_time) {
        const double t =
            ex_.run_exact(app, full.plan(app, Watts(budget))).time.value();
        out_->check(t == time, "sweep: Oracle on " + app.name + " @" +
                                   fmt(budget) + " W took " + fmt(time) +
                                   " s; the unpruned search finds " + fmt(t) +
                                   " s");
        ++oracle_rechecked_;
      }
    }
    digest_ = digest(digest_, std::to_string(cells_digest(r)));
  }

  /// Digest of every checked app's cells, in order.
  [[nodiscard]] std::uint64_t outputs_digest() const { return digest_; }
  /// CLIP's time over the Oracle's, per (app, budget).
  [[nodiscard]] const std::vector<double>& clip_over_oracle() const {
    return clip_over_oracle_;
  }
  /// One report line on what was checked and the two counted properties.
  [[nodiscard]] std::string describe() const {
    return "sweep checks: every cell's simulated draw against its budget; " +
           std::to_string(oracle_rechecked_) +
           " Oracle cells against an unpruned search. Counted, not failed: " +
           std::to_string(caps_above_) +
           " cells with caps summing above their budget (by up to " +
           fmt(max_caps_over_w_) + " W); " + std::to_string(oracle_beaten_) +
           " cells faster than the Oracle's (by up to " +
           fmt(max_beaten_ * 100.0) + "%)";
  }

 private:
  Result* out_;
  sim::SimExecutor ex_;
  std::uint64_t digest_ = kDigestSeed;
  std::vector<double> clip_over_oracle_;
  std::size_t caps_above_ = 0;
  double max_caps_over_w_ = 0.0;
  std::size_t oracle_beaten_ = 0;
  double max_beaten_ = 0.0;
  std::size_t oracle_rechecked_ = 0;
};

/// What one pass over the apps measured.
struct PassTiming {
  double run_s = 0.0;  ///< inside harness.run, summed over apps
  std::size_t cells = 0;
  std::uint64_t digest = kDigestSeed;  ///< of every cell's time
};

/// Serial pass over every app with a fresh shared-setup engine built from
/// the figure binaries' `flags`.
PassTiming timed_pass(const std::vector<workloads::WorkloadSignature>& apps,
                      std::vector<std::string> flags) {
  Engine e(std::move(flags));
  PassTiming t;
  for (const auto& app : apps) {
    const auto t0 = Clock::now();
    const runtime::ComparisonResult r =
        e.harness.run({app}, kBudgets, e.ctx.pool());
    t.run_s += seconds_between(t0, Clock::now());
    t.cells += r.cells.size();
    for (const auto& c : r.cells) t.digest = digest(t.digest, c.time_s);
  }
  return t;
}

}  // namespace

void run_sweep(const Options& opt, Result& out) {
  const auto apps = make_apps(opt.seed);

  // Untimed verification pass, which also warms the host up: every cell is
  // checked once here, and every timed repetition must then reproduce this
  // pass's cells exactly.
  SweepChecker checker(out);
  std::size_t cells = 0;
  {
    Engine e({});
    for (std::size_t a = 0; a < apps.size(); ++a) {
      const runtime::ComparisonResult r =
          e.harness.run({apps[a]}, kBudgets, e.ctx.pool());
      cells += r.cells.size();
      checker.check(a, apps[a], r);
    }
  }

  std::vector<double> setup_s, app_ms;
  std::vector<std::vector<double>> app_s(apps.size());
  int reps = 0;
  HostSpeed speed;
  const std::size_t sample_every = std::max<std::size_t>(1, apps.size() / 8);
  for (RepeatUntil loop(opt.seconds, kMinAppSamples);
       loop.more(app_ms.size());) {
    speed.sample();
    const auto s0 = Clock::now();
    Engine e({});
    const double setup = seconds_between(s0, Clock::now());

    std::uint64_t h = kDigestSeed;
    std::vector<double> rep_s(apps.size());
    for (std::size_t a = 0; a < apps.size(); ++a) {
      if (a > 0 && a % sample_every == 0) speed.sample();
      const auto t0 = Clock::now();
      const runtime::ComparisonResult r =
          e.harness.run({apps[a]}, kBudgets, e.ctx.pool());
      rep_s[a] = seconds_between(t0, Clock::now());
      h = digest(h, std::to_string(cells_digest(r)));
    }
    const double k = speed.end_repetition();
    setup_s.push_back(setup * k);
    for (std::size_t a = 0; a < apps.size(); ++a) {
      app_s[a].push_back(rep_s[a] * k);
      app_ms.push_back(rep_s[a] * k * 1e3);
    }
    out.check(h == checker.outputs_digest(),
              "sweep: repetition " + std::to_string(reps) +
                  " changed the simulated outputs");
    ++reps;
  }
  out.digest = checker.outputs_digest();
  out.set("setup_s", median(setup_s), "s");
  out.set("throughput_per_s", median_rate(static_cast<double>(cells), app_s),
          "1/s", "sweep_cells_per_s", "cells/s");
  out.set("op_ms_p50", quantile(app_ms, 0.5), "ms", "sweep_app_ms_p50");
  out.set("op_ms_p90", quantile(app_ms, 0.9), "ms", "sweep_app_ms_p90");
  out.set("clip_oracle_time_ratio", geomean(checker.clip_over_oracle()),
          "ratio");
  out.note("sweep: " + std::to_string(reps) + " repetitions x " +
           std::to_string(apps.size()) + " apps x " +
           std::to_string(kBudgets.size()) + " budgets x 5 methods; " +
           std::to_string(app_ms.size()) + " app-sweep samples");
  out.note(speed.describe());
  out.note(checker.describe());
}

namespace {

/// PowerScheduler decorator for the traced run: wraps plan() in a span and
/// then calls `after` with the plan's duration, so the caller can read the
/// inner scheduler's counters.
class TracedMethod final : public baselines::PowerScheduler {
 public:
  using After = std::function<void(double plan_s)>;
  TracedMethod(std::shared_ptr<baselines::PowerScheduler> inner,
               Tracer& tracer, std::string span, After after)
      : inner_(std::move(inner)),
        tracer_(&tracer),
        span_(std::move(span)),
        after_(std::move(after)) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] sim::ClusterConfig plan(const workloads::WorkloadSignature& app,
                                        Watts budget) override {
    const double t0 = tracer_->now_s();
    sim::ClusterConfig cfg;
    {
      auto s = tracer_->span(span_);
      cfg = inner_->plan(app, budget);
    }
    if (after_) after_(tracer_->now_s() - t0);
    return cfg;
  }

 private:
  std::shared_ptr<baselines::PowerScheduler> inner_;
  Tracer* tracer_;
  std::string span_;
  After after_;
};

}  // namespace

void trace_sweep(const Options& opt, Tracer& tracer, Result& out) {
  const auto apps = make_apps(opt.seed);

  // Untraced reference pass: the same work as one timed repetition, with
  // the process counters read around it (set-up included). A second one
  // after the traced pass, averaged with it, is the baseline of the
  // tracing overhead.
  const ProcUsage u0 = proc_usage();
  PassTiming plain = timed_pass(apps, {});
  const ProcUsage du = proc_usage() - u0;
  out.set("proc.user_cpu_ms", du.user_ms, "ms");
  out.set("proc.sys_cpu_ms", du.sys_ms, "ms");
  out.set("proc.minor_faults", du.minor_faults, "count");

  // Traced pass. The methods are the ones register_all_methods registers,
  // each wrapped in a span; the sweep's digest proves the wrapping changed
  // no decision.
  Engine e({}, /*methods=*/false);
  obs::ObsSession session;
  e.ex.set_observer(&session);
  std::vector<double> oracle_ms, oracle_runs, heuristic_us, clip_hit_us,
      clip_miss_us;
  const auto add = [&](std::shared_ptr<baselines::PowerScheduler> m,
                       std::string span, TracedMethod::After after) {
    e.harness.add_method(std::make_shared<TracedMethod>(
        std::move(m), tracer, std::move(span), std::move(after)));
  };
  for (auto m : {std::shared_ptr<baselines::PowerScheduler>(
                     std::make_shared<baselines::AllInScheduler>(e.ex.spec())),
                 std::shared_ptr<baselines::PowerScheduler>(
                     std::make_shared<baselines::LowerLimitScheduler>(
                         e.ex.spec())),
                 std::shared_ptr<baselines::PowerScheduler>(
                     std::make_shared<baselines::CoordinatedScheduler>(
                         e.ex))})
    add(m, "baselines.heuristic.plan",
        [&](double s) { heuristic_us.push_back(s * 1e6); });
  auto clip_adapter = std::make_shared<baselines::ClipAdapter>(
      e.ex, workloads::training_benchmarks());
  std::size_t kdb_size = clip_adapter->scheduler().knowledge_db().size();
  add(clip_adapter, "core.schedule", [&](double s) {
    const std::size_t now = clip_adapter->scheduler().knowledge_db().size();
    (now > kdb_size ? clip_miss_us : clip_hit_us).push_back(s * 1e6);
    kdb_size = now;
  });
  baselines::OracleOptions oracle_opts;
  oracle_opts.prune = e.ctx.prune;
  auto oracle = std::make_shared<baselines::OracleScheduler>(e.ex,
                                                             oracle_opts);
  oracle->set_pool(e.ctx.pool());
  add(oracle, "baselines.oracle.plan", [&](double s) {
    oracle_ms.push_back(s * 1e3);
    oracle_runs.push_back(oracle->last_search_cost());
  });

  const double pass_start = tracer.now_s();
  std::vector<runtime::ComparisonResult> results;
  std::uint64_t traced_digest = kDigestSeed;
  double traced_run_s = 0.0;
  for (const auto& app : apps) {
    auto root = tracer.span("sweep.app");
    const double t0 = tracer.now_s();
    {
      auto s = tracer.span("runtime.harness.run");
      results.push_back(e.harness.run({app}, kBudgets, e.ctx.pool()));
    }
    traced_run_s += tracer.now_s() - t0;
    for (const auto& c : results.back().cells)
      traced_digest = digest(traced_digest, c.time_s);
  }
  const double pass_end = tracer.now_s();
  out.check(traced_digest == plain.digest,
            "sweep: the traced methods changed the simulated outputs");
  SweepChecker checker(out);
  for (std::size_t a = 0; a < apps.size(); ++a)
    checker.check(a, apps[a], results[a]);
  out.digest = checker.outputs_digest();
  out.set("clip_oracle_time_ratio", geomean(checker.clip_over_oracle()),
          "ratio");
  out.note(checker.describe());

  // The harness times its cells inside run(); replay those exact calls
  // (the same grouping into cap frontiers) on a fresh shared-setup engine
  // to price the simulator, and subtract them from the harness's self time.
  Engine probe({});
  std::vector<double> exact_us, batch_points;
  double batch_s = 0.0;
  double probe_s = 0.0;
  for (std::size_t ai = 0; ai < apps.size(); ++ai) {
    const auto& cells = results[ai].cells;
    using Key = std::tuple<int, int, int, int>;
    std::map<Key, std::vector<std::size_t>> groups;
    std::vector<std::size_t> singles;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const auto& p = cells[i].plan;
      if (!p.cpu_cap_overrides.empty()) {
        singles.push_back(i);
        continue;
      }
      groups[Key{p.nodes, p.node.threads, static_cast<int>(p.node.affinity),
                 static_cast<int>(p.node.mem_level)}]
          .push_back(i);
    }
    // The harness's unbounded reference: All-In at 1 MW.
    const sim::ClusterConfig ref =
        baselines::AllInScheduler(probe.ex.spec()).plan(apps[ai], Watts(1e6));
    const double a0 = tracer.now_s();
    {
      const double t0 = tracer.now_s();
      auto s = tracer.span("sim.run_exact");
      (void)probe.ex.run_exact(apps[ai], ref);
      exact_us.push_back((tracer.now_s() - t0) * 1e6);
    }
    for (const auto& [key, members] : groups) {
      std::vector<sim::CapPoint> caps(members.size());
      for (std::size_t k = 0; k < members.size(); ++k) {
        caps[k].cpu_cap = cells[members[k]].plan.node.cpu_cap;
        caps[k].mem_cap = cells[members[k]].plan.node.mem_cap;
      }
      const double t0 = tracer.now_s();
      {
        auto s = tracer.span("sim.run_batch");
        (void)probe.ex.run_batch(apps[ai], cells[members.front()].plan, caps);
      }
      batch_s += tracer.now_s() - t0;
      batch_points.push_back(static_cast<double>(members.size()));
    }
    for (const std::size_t i : singles) {
      const double t0 = tracer.now_s();
      auto s = tracer.span("sim.run_exact");
      (void)probe.ex.run_exact(apps[ai], cells[i].plan);
      exact_us.push_back((tracer.now_s() - t0) * 1e6);
    }
    probe_s += tracer.now_s() - a0;
  }
  const double plan_s = tracer.total_s("baselines.heuristic.plan") +
                        tracer.total_s("core.schedule") +
                        tracer.total_s("baselines.oracle.plan");
  const double harness_total = tracer.total_s("runtime.harness.run");
  const double harness_self = harness_total - plan_s - probe_s;
  // What the harness spans do not account for once planning and the
  // replayed timing runs are removed is the harness's own bookkeeping.
  out.set("runtime.harness.self_ms",
          harness_self * 1e3 / static_cast<double>(apps.size()), "ms");

  out.set("sim.run_exact_us", median(exact_us), "us");
  out.set("sim.run_batch_us_per_point", batch_s * 1e6 / sum(batch_points),
          "us");
  const auto counter = [&](std::string_view name) -> double {
    const obs::Counter* c = session.metrics().find_counter(name);
    return c == nullptr ? 0.0 : static_cast<double>(c->value());
  };
  const obs::Histogram* widths =
      session.metrics().find_histogram("sim.batch_width");
  out.set("sim.batch_width_p50",
          widths == nullptr || widths->count() == 0 ? 0.0
                                                    : widths->quantile(0.5),
          "points");
  out.set("sim.runs", counter("sim.runs"), "count");
  const double hits = counter("sim.exact_cache_hits");
  const double misses = counter("sim.exact_cache_misses");
  out.set("sim.cache_hit_ratio", hits + misses > 0 ? hits / (hits + misses)
                                                   : 0.0,
          "ratio");
  out.set("baselines.oracle.plan_ms", median(oracle_ms), "ms");
  out.set("baselines.oracle.search_runs", median(oracle_runs), "count");
  out.set("baselines.heuristic.plan_us", median(heuristic_us), "us");
  out.set("core.schedule_hit_us", median(clip_hit_us), "us");
  out.set("core.schedule_miss_us", median(clip_miss_us), "us");
  out.set("core.kdb_hit_ratio",
          static_cast<double>(clip_hit_us.size()) /
              static_cast<double>(clip_hit_us.size() + clip_miss_us.size()),
          "ratio");

  const PassTiming plain2 = timed_pass(apps, {});
  out.check(plain2.digest == plain.digest,
            "sweep: a repeated pass changed the simulated outputs");
  plain.run_s = 0.5 * (plain.run_s + plain2.run_s);

  // Pool pass: the same sweep with an nproc-thread pool (--jobs 0).
  const PassTiming pooled = timed_pass(apps, {"--jobs", "0"});
  out.check(pooled.digest == plain.digest,
            "sweep: the thread pool changed the simulated outputs");
  out.set("parallel.pool_speedup",
          (static_cast<double>(pooled.cells) / pooled.run_s) /
              (static_cast<double>(plain.cells) / plain.run_s),
          "ratio");

  out.set("trace.overhead_pct", (traced_run_s / plain.run_s - 1.0) * 100.0,
          "%");
  const double pass_wall = pass_end - pass_start;
  const double covered = tracer.layer_self_s(pass_start, pass_end);
  out.set("trace.coverage", covered / pass_wall, "ratio");
  out.note("trace: the traced sweep pass took " + fmt(pass_wall) +
           " s; layer spans cover " + fmt(covered) +
           " s. Not accounted for by any layer: the benchmark's own loop "
           "between harness calls (sweep.app self time " +
           fmt(tracer.self_s("sweep.app")) +
           " s). The simulator's share of the harness is priced by the "
           "replayed sim.* probes (" + fmt(probe_s) +
           " s), which run outside the pass.");
}

}  // namespace perfbench
