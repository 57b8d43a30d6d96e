// Shared infrastructure for the figure/table reproduction harnesses.
//
// Every binary in bench/ regenerates one table or figure from the paper's
// evaluation (§V) on the simulated testbed and prints the same rows/series
// the paper plots. Common flags (parsed by BenchContext, shared by every
// binary):
//
//   --csv           emit machine-readable CSV instead of the aligned table
//   --jobs N        host threads for the evaluation engine (0 = all cores;
//                   default 1 = serial). Output is identical at any N.
//   --budgets a,b,c override the bench's default cluster budget sweep (W)
//   --stats         print evaluation-engine counters (sim.runs, batch
//                   runs and width) to stderr on exit
//   --no-prune      disable oracle search-space pruning (the pre-engine
//                   evaluation count, for A/B measurement)
//
// See docs/performance.md for the evaluation-engine design.
#pragma once

#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/all_in.hpp"
#include "baselines/clip_adapter.hpp"
#include "baselines/coordinated.hpp"
#include "baselines/lower_limit.hpp"
#include "baselines/oracle.hpp"
#include "obs/session.hpp"
#include "parallel/thread_pool.hpp"
#include "runtime/comparison.hpp"
#include "sim/executor.hpp"
#include "util/check.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "workloads/catalog.hpp"

namespace clip::bench {

struct BenchContext {
  bool csv = false;
  bool stats = false;
  bool prune = true;
  int jobs = 1;
  std::vector<double> budgets_override;

  BenchContext(int argc, char** argv);
  ~BenchContext();

  BenchContext(const BenchContext&) = delete;
  BenchContext& operator=(const BenchContext&) = delete;

  /// The bench's budget sweep: the --budgets override when given, otherwise
  /// the bench's own defaults.
  [[nodiscard]] std::vector<double> budgets_or(
      std::vector<double> defaults) const {
    return budgets_override.empty() ? std::move(defaults) : budgets_override;
  }

  /// Worker pool for --jobs > 1 (lazily spawned; nullptr when serial).
  [[nodiscard]] parallel::ThreadPool* pool() const;

  /// Hook an executor into the evaluation engine: with --stats, attaches
  /// the observation session whose counters are printed on exit. Call once
  /// per executor.
  void attach(sim::SimExecutor& executor) const;

  void print(const Table& table) const {
    if (csv)
      table.print_csv(std::cout);
    else
      table.print(std::cout);
    std::cout << '\n';
  }

 private:
  mutable std::unique_ptr<parallel::ThreadPool> pool_;
  mutable std::unique_ptr<obs::ObsSession> obs_;
};

/// The standard experimental setup: the 8-node Haswell-like cluster with the
/// default measurement noise (as on the real testbed).
inline sim::SimExecutor make_testbed() {
  return sim::SimExecutor(sim::MachineSpec{});
}

/// Noise-free twin for oracle searches and ground-truth curves.
inline sim::SimExecutor make_exact_testbed() {
  sim::MeterOptions quiet;
  quiet.enabled = false;
  return sim::SimExecutor(sim::MachineSpec{}, quiet);
}

/// The four §V-C methods plus the oracle, registered on a harness. With a
/// context, the oracle fans its search grid out over ctx->pool().
void register_all_methods(runtime::ComparisonHarness& harness,
                          sim::SimExecutor& executor,
                          const BenchContext* ctx = nullptr);

/// Build one figure's worth of comparison cells as app-rows ×
/// method-columns of relative performance.
[[nodiscard]] Table render_method_comparison(
    const runtime::ComparisonResult& result,
    const std::vector<workloads::WorkloadSignature>& apps, double budget,
    const std::string& title);

/// Render and print via the context.
void print_method_comparison(const BenchContext& ctx,
                             const runtime::ComparisonResult& result,
                             const std::vector<workloads::WorkloadSignature>&
                                 apps,
                             double budget, const std::string& title);

}  // namespace clip::bench
