#include "sim/executor.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"

namespace clip::sim {

SimExecutor::SimExecutor(MachineSpec spec, MeterOptions meter)
    : spec_(std::move(spec)),
      variability_(spec_),
      rapl_(spec_),
      events_(spec_),
      meter_(meter) {
  spec_.validate();
}

void SimExecutor::set_observer(obs::ObsSession* obs) {
  obs_ = obs;
  if (obs == nullptr) {
    metrics_ = Metrics{};
    return;
  }
  metrics_.runs = &obs->metrics().counter("sim.runs");
  metrics_.node_solves = &obs->metrics().counter("sim.node_solves");
  metrics_.batch_runs = &obs->metrics().counter("sim.batch_runs");
  metrics_.batch_width =
      &obs->metrics().histogram("sim.batch_width", obs::batch_width_spec());
}

NodeMeasurement SimExecutor::node_measurement(
    const workloads::WorkloadSignature& w, int threads,
    const OperatingPoint& op) const {
  NodeMeasurement nm;
  nm.time = op.perf.time;
  nm.frequency = op.frequency;
  nm.duty_factor = op.duty_factor;
  nm.cpu_power = op.cpu_power;
  nm.mem_power = op.mem_power;
  nm.achieved_bw_gbps = op.perf.achieved_bw_gbps;
  nm.saturation = op.perf.saturation;
  nm.events = events_.synthesize(w, threads, op.frequency, op.perf);
  return nm;
}

Measurement SimExecutor::measure(const workloads::WorkloadSignature& w,
                                 const ClusterConfig& cfg,
                                 const RaplSolver::Prepared& prep,
                                 Seconds comm) const {
  Measurement m;
  m.nodes.reserve(static_cast<std::size_t>(cfg.nodes));
  Seconds slowest{0.0};
  if (cfg.cpu_cap_overrides.empty() && variability_.uniform()) {
    // Identical caps and multipliers make every node's solve the same pure
    // function call: solve once, replicate the bit-identical measurement.
    const OperatingPoint op =
        rapl_.solve_prepared(w, prep, cfg.node.cpu_cap, cfg.node.mem_cap,
                             variability_.cpu_multiplier(0));
    const NodeMeasurement nm = node_measurement(w, cfg.node.threads, op);
    slowest = nm.time;
    m.nodes.assign(static_cast<std::size_t>(cfg.nodes), nm);
  } else {
    for (int i = 0; i < cfg.nodes; ++i) {
      NodeConfig node_cfg = cfg.node;
      if (!cfg.cpu_cap_overrides.empty())
        node_cfg.cpu_cap = cfg.cpu_cap_overrides[static_cast<std::size_t>(i)];
      const OperatingPoint op =
          rapl_.solve_prepared(w, prep, node_cfg.cpu_cap, node_cfg.mem_cap,
                               variability_.cpu_multiplier(i));
      NodeMeasurement nm = node_measurement(w, node_cfg.threads, op);
      slowest = std::max(slowest, nm.time);
      m.nodes.push_back(std::move(nm));
    }
  }

  m.comm_time = comm;
  m.time = slowest + m.comm_time;

  double watts = 0.0;
  for (const auto& nm : m.nodes)
    watts += nm.cpu_power.value() + nm.mem_power.value();
  m.avg_power = Watts(watts);
  m.energy = m.avg_power * m.time;
  return m;
}

Measurement SimExecutor::run_exact(const workloads::WorkloadSignature& w,
                                   const ClusterConfig& cfg) const {
  CLIP_REQUIRE(cfg.nodes >= 1 && cfg.nodes <= spec_.nodes,
               "node count outside the cluster");
  CLIP_REQUIRE(cfg.cpu_cap_overrides.empty() ||
                   static_cast<int>(cfg.cpu_cap_overrides.size()) ==
                       cfg.nodes,
               "per-node cap overrides must match the node count");
  obs::ScopedSpan span(obs_, "sim.run", "sim");
  span.arg("app", w.name);
  span.arg("nodes", cfg.nodes);
  if (obs_ != nullptr) {
    metrics_.runs->add();
    metrics_.node_solves->add(static_cast<std::uint64_t>(
        std::max(cfg.nodes, 0)));
  }
  w.validate();

  const double node_work_s = w.node_base_time_s / cfg.nodes;
  const RaplSolver::Prepared prep = rapl_.prepare(w, node_work_s, cfg.node);
  return measure(w, cfg, prep, CommModel::evaluate(w, cfg.nodes, node_work_s));
}

std::vector<Measurement> SimExecutor::run_batch(
    const workloads::WorkloadSignature& w, const ClusterConfig& base,
    const std::vector<CapPoint>& caps) const {
  CLIP_REQUIRE(base.cpu_cap_overrides.empty(),
               "run_batch shares one (workload, placement) prefix — per-node "
               "cap overrides are scalar-only");
  CLIP_REQUIRE(base.nodes >= 1 && base.nodes <= spec_.nodes,
               "node count outside the cluster");

  if (caps.empty()) return {};

  ClusterConfig point = base;
  const auto at = [&point](const CapPoint& c) -> const ClusterConfig& {
    point.node.cpu_cap = c.cpu_cap;
    point.node.mem_cap = c.mem_cap;
    return point;
  };
  // Small frontiers: the scalar path is cheaper than the batch setup (the
  // fig7 small-frontier regression in BENCH_eval_engine.json was exactly
  // this bookkeeping with nothing to amortize it over).
  if (caps.size() < kMinBatchFrontier) {
    std::vector<Measurement> out;
    out.reserve(caps.size());
    for (const CapPoint& c : caps) out.push_back(run_exact(w, at(c)));
    return out;
  }

  obs::ScopedSpan span(obs_, "sim.batch", "sim");
  span.arg("app", w.name);
  span.arg("width", static_cast<int>(caps.size()));
  if (obs_ != nullptr) {
    metrics_.batch_runs->add();
    metrics_.batch_width->record(static_cast<double>(caps.size()));
  }

  // Dedupe within the frontier: distinct planner cells regularly collapse
  // onto one cap point; compute it once and copy the bit-identical result.
  // Frontiers are ~20 points wide (21 at most across the sweep and the
  // figure benches), where a quadratic scan beats any indexed structure.
  // first_of[i] is the first index holding caps[i]'s point.
  std::vector<std::size_t> first_of(caps.size());
  std::size_t unique = 0;
  for (std::size_t i = 0; i < caps.size(); ++i) {
    std::size_t j = 0;
    while (j < i && !(caps[j] == caps[i])) ++j;
    first_of[i] = j;
    if (j == i) ++unique;
  }
  if (obs_ != nullptr) {
    metrics_.runs->add(static_cast<std::uint64_t>(unique));
    metrics_.node_solves->add(static_cast<std::uint64_t>(unique) *
                              static_cast<std::uint64_t>(base.nodes));
  }
  w.validate();

  // Placement and communication are cap-independent: one prepare and one
  // comm evaluation serve the whole frontier.
  const double node_work_s = w.node_base_time_s / base.nodes;
  const RaplSolver::Prepared prep = rapl_.prepare(w, node_work_s, base.node);
  const Seconds comm = CommModel::evaluate(w, base.nodes, node_work_s);

  std::vector<Measurement> out(caps.size());
  for (std::size_t i = 0; i < caps.size(); ++i)
    out[i] = first_of[i] == i ? measure(w, at(caps[i]), prep, comm)
                              : out[first_of[i]];
  return out;
}

Measurement SimExecutor::run(const workloads::WorkloadSignature& w,
                             const ClusterConfig& cfg) {
  Measurement m = run_exact(w, cfg);
  meter_.observe(m);
  return m;
}

PhasedMeasurement SimExecutor::run_phased_exact(
    const workloads::PhasedWorkload& w,
    const PhasedClusterConfig& cfg) const {
  w.validate();
  CLIP_REQUIRE(cfg.phase_nodes.size() == w.phases.size(),
               "one node config per phase required");
  CLIP_REQUIRE(cfg.nodes >= 1 && cfg.nodes <= spec_.nodes,
               "node count outside the cluster");

  PhasedMeasurement total;
  double energy = 0.0;
  for (std::size_t i = 0; i < w.phases.size(); ++i) {
    ClusterConfig phase_cfg;
    phase_cfg.nodes = cfg.nodes;
    phase_cfg.node = cfg.phase_nodes[i];
    const Measurement m = run_exact(w.phase_signature(i), phase_cfg);

    PhaseMeasurement pm;
    pm.phase = w.phases[i].name;
    pm.time = m.time;
    pm.avg_power = m.avg_power;
    pm.energy = m.energy;
    pm.frequency = m.nodes.front().frequency;
    pm.threads = phase_cfg.node.threads;
    total.time += m.time;
    energy += m.energy.value();
    total.phases.push_back(std::move(pm));
  }
  total.energy = Joules(energy);
  total.avg_power = total.energy / total.time;
  return total;
}

}  // namespace clip::sim
