// WorkloadSignature: the contract between a workload and the hardware model.
//
// The paper characterizes applications by how their performance responds to
// concurrency, frequency, memory power and placement (§II), and distills that
// into three scalability classes. Our signature is the generative model
// behind those observations: a small set of physically meaningful parameters
// from which the simulator derives execution time, power draw and hardware
// event rates for any configuration. The catalog (catalog.hpp) instantiates
// one signature per paper benchmark, calibrated so each lands in the paper's
// class with the paper's half/all-core speedup ratio (Fig. 6).
#pragma once

#include <compare>
#include <string>

namespace clip::workloads {

/// Paper §II scalability classes.
enum class ScalabilityClass {
  kLinear,      ///< speedup ∝ n (EP-like, CoMD, AMG, miniMD)
  kLogarithmic, ///< linear until inflection, reduced growth after (BT-MZ, LU-MZ, CloverLeaf)
  kParabolic,   ///< performance *drops* beyond the inflection (SP-MZ, miniAero, TeaLeaf)
};

[[nodiscard]] const char* to_string(ScalabilityClass c);

/// Workload access pattern from paper Table II.
enum class WorkloadPattern {
  kCompute,
  kComputeMemory,
  kMemory,
};

[[nodiscard]] const char* to_string(WorkloadPattern p);

/// Generative performance/power parameters of one application+input pair.
///
/// All times are for the *whole problem*: `node_base_time_s` is the modeled
/// runtime on one node, one core, at nominal frequency; strong scaling
/// divides the work across nodes and threads.
struct WorkloadSignature {
  std::string name;
  std::string parameters;       ///< input deck, e.g. "C" or "-n 240 240 240"
  WorkloadPattern pattern = WorkloadPattern::kCompute;

  // --- Node-level performance model ---------------------------------------
  double node_base_time_s = 100.0;   ///< 1-node 1-core full-frequency runtime
  double serial_fraction = 0.01;     ///< Amdahl serial fraction of node work
  double memory_boundedness = 0.0;   ///< fraction of parallel work limited by DRAM bandwidth (0..1)
  double bw_per_core_gbps = 0.0;     ///< per-core DRAM demand at nominal frequency
  double fork_overhead_s = 1e-3;     ///< per-extra-thread management cost
  double sync_coeff_s = 0.0;         ///< synchronization/contention cost scale
  double sync_exponent = 2.0;        ///< contention growth: sync_coeff*(n-1)^exp
  double shared_data_fraction = 0.2; ///< traffic share touching shared (possibly remote) data

  // --- Power-relevant microarchitectural activity -------------------------
  double compute_intensity = 0.8;    ///< 0..1, scales dynamic core power
  double ipc = 1.6;                  ///< retired instructions per active cycle
  double icache_pressure = 0.05;     ///< 0..1, scales ICACHE miss rate
  double write_fraction = 0.33;      ///< share of DRAM traffic that is writes

  // --- Cluster-level (MPI) model -------------------------------------------
  double comm_latency_s = 0.05;      ///< α term per log2(N) step
  double comm_surface_coeff = 0.0;   ///< β term on per-node halo surface
  bool has_predefined_process_counts = true; ///< NPB-style power-of-two grids

  // --- Ground truth for calibration/tests (not used by CLIP decisions) ----
  ScalabilityClass expected_class = ScalabilityClass::kLinear;

  /// Basic physical validity; throws clip::PreconditionError when violated.
  void validate() const;

  /// Memberwise, in declaration order: two signatures compare equal iff
  /// every field does, so a field added above joins every key built on this
  /// ordering (the oracle's bound memo) without a second edit.
  friend auto operator<=>(const WorkloadSignature&,
                          const WorkloadSignature&) = default;
};

}  // namespace clip::workloads
