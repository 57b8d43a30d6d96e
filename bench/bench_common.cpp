#include "bench_common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>

namespace clip::bench {

namespace {

int parse_int(const std::string& flag, const std::string& value) {
  try {
    return std::stoi(value);
  } catch (const std::exception&) {
    CLIP_REQUIRE(false, "bad value for " + flag + ": " + value);
    return 0;
  }
}

std::vector<double> parse_budgets(const std::string& value) {
  std::vector<double> budgets;
  for (const std::string& part : split(value, ',')) {
    if (part.empty()) continue;
    try {
      budgets.push_back(std::stod(part));
    } catch (const std::exception&) {
      CLIP_REQUIRE(false, "bad value for --budgets: " + value);
    }
  }
  CLIP_REQUIRE(!budgets.empty(), "empty --budgets list");
  return budgets;
}

}  // namespace

BenchContext::BenchContext(int argc, char** argv) {
  const auto take_value = [&](int& i, const std::string& arg,
                              const std::string& flag,
                              std::string& out) -> bool {
    if (arg == flag) {
      CLIP_REQUIRE(i + 1 < argc, flag + " needs a value");
      out = argv[++i];
      return true;
    }
    if (arg.rfind(flag + "=", 0) == 0) {
      out = arg.substr(flag.size() + 1);
      return true;
    }
    return false;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (arg == "--csv") {
      csv = true;
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--no-prune") {
      prune = false;
    } else if (take_value(i, arg, "--jobs", value)) {
      jobs = parse_int("--jobs", value);
      if (jobs <= 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        jobs = hw > 0 ? static_cast<int>(hw) : 1;
      }
    } else if (take_value(i, arg, "--budgets", value)) {
      budgets_override = parse_budgets(value);
    }
    // Unknown arguments are left for the individual bench to interpret.
  }
}

BenchContext::~BenchContext() {
  if (!stats || obs_ == nullptr) return;
  // One parse-friendly line, on stderr so --csv output stays clean.
  const auto value = [this](std::string_view name) -> std::uint64_t {
    const obs::Counter* c = obs_->metrics().find_counter(name);
    return c == nullptr ? 0 : c->value();
  };
  // Median frontier width of the batch path, as an integer (clip-lint D3:
  // the stats line carries counters, not formatted floats).
  const obs::Histogram* widths =
      obs_->metrics().find_histogram("sim.batch_width");
  const std::uint64_t width_p50 =
      widths == nullptr || widths->count() == 0
          ? 0
          : static_cast<std::uint64_t>(std::llround(widths->quantile(0.5)));
  std::cerr << "bench-stats:"
            << " sim.runs=" << value("sim.runs")
            << " sim.batch_runs=" << value("sim.batch_runs")
            << " sim.batch_width_p50=" << width_p50
            << " jobs=" << jobs << '\n';
}

parallel::ThreadPool* BenchContext::pool() const {
  if (jobs <= 1) return nullptr;
  if (pool_ == nullptr)
    pool_ = std::make_unique<parallel::ThreadPool>(jobs);
  return pool_.get();
}

void BenchContext::attach(sim::SimExecutor& executor) const {
  if (stats) {
    if (obs_ == nullptr) obs_ = std::make_unique<obs::ObsSession>();
    executor.set_observer(obs_.get());
  }
}

void register_all_methods(runtime::ComparisonHarness& harness,
                          sim::SimExecutor& executor,
                          const BenchContext* ctx) {
  harness.add_method(
      std::make_shared<baselines::AllInScheduler>(executor.spec()));
  harness.add_method(
      std::make_shared<baselines::LowerLimitScheduler>(executor.spec()));
  harness.add_method(
      std::make_shared<baselines::CoordinatedScheduler>(executor));
  harness.add_method(std::make_shared<baselines::ClipAdapter>(
      executor, workloads::training_benchmarks()));
  baselines::OracleOptions opts;
  if (ctx != nullptr) opts.prune = ctx->prune;
  auto oracle =
      std::make_shared<baselines::OracleScheduler>(executor, opts);
  if (ctx != nullptr) oracle->set_pool(ctx->pool());
  harness.add_method(std::move(oracle));
}

Table render_method_comparison(
    const runtime::ComparisonResult& result,
    const std::vector<workloads::WorkloadSignature>& apps, double budget,
    const std::string& title) {
  static const char* kMethods[] = {"All-In", "Lower Limit", "Coordinated",
                                   "CLIP", "Oracle"};
  Table t({"benchmark", "class", "All-In", "Lower Limit", "Coordinated",
           "CLIP", "Oracle", "CLIP vs best baseline"});
  t.set_title(title);
  for (const auto& w : apps) {
    std::vector<std::string> row;
    row.push_back(w.name + " (" + w.parameters + ")");
    row.push_back(workloads::to_string(w.expected_class));
    double clip = 0.0, best_baseline = 0.0;
    for (const char* method : kMethods) {
      const auto* cell =
          result.find(w.name, w.parameters, budget, method);
      const double rel = cell ? cell->relative_performance : 0.0;
      row.push_back(format_double(rel, 3));
      if (std::string(method) == "CLIP")
        clip = rel;
      else if (std::string(method) != "Oracle")
        best_baseline = std::max(best_baseline, rel);
    }
    row.push_back(best_baseline > 0.0
                      ? format_percent(clip / best_baseline - 1.0)
                      : "n/a");
    t.add_row(std::move(row));
  }
  return t;
}

void print_method_comparison(
    const BenchContext& ctx, const runtime::ComparisonResult& result,
    const std::vector<workloads::WorkloadSignature>& apps, double budget,
    const std::string& title) {
  ctx.print(render_method_comparison(result, apps, budget, title));
}

}  // namespace clip::bench
