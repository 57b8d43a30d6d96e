// Shared pieces of the coordinator benchmark: options, the result record
// every workload fills, order statistics, process counters and the span
// recorder of the traced run.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< span file of the traced run ("" = none)
};

/// What one workload run reports. Metrics keep insertion order so the
/// printed report is stable.
struct Result {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::string alias;       ///< workload-specific name, e.g. sweep_cells_per_s
    std::string alias_unit;  ///< its unit when it reads better than `unit`
  };
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failed checks, for humans
  std::vector<std::string> notes;     ///< human-readable lines
  std::uint64_t digest = 0;           ///< of the simulated outputs

  void set(std::string name, double value, std::string unit,
           std::string alias = "", std::string alias_unit = "");
  /// Count one correctness check; a failed one is remembered by `what`.
  void check(bool ok, const std::string& what);
  void note(std::string line) { notes.push_back(std::move(line)); }
};

// --- order statistics --------------------------------------------------------

/// Linear-interpolation quantile (q in [0, 1]) of an unsorted sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}
[[nodiscard]] double geomean(const std::vector<double>& v);
[[nodiscard]] double sum(const std::vector<double>& v);
/// Work units per host second over items timed once per repetition: each
/// item's median time across repetitions, summed over items, so a transient
/// slowdown of the host during one repetition does not move the rate.
[[nodiscard]] double median_rate(
    double work_units, const std::vector<std::vector<double>>& item_s);
/// `v` with six significant digits, for report lines.
[[nodiscard]] std::string fmt(double v);

// --- process counters --------------------------------------------------------

struct ProcUsage {
  double user_ms = 0.0;
  double sys_ms = 0.0;
  double minor_faults = 0.0;
};
[[nodiscard]] ProcUsage proc_usage();
[[nodiscard]] ProcUsage operator-(const ProcUsage& a, const ProcUsage& b);
/// Peak resident set of this process so far, MiB (Linux /proc).
[[nodiscard]] double peak_rss_mb();

// --- digests -----------------------------------------------------------------

/// FNV-1a over `bytes`, chained from `h` (start from kDigestSeed).
inline constexpr std::uint64_t kDigestSeed = 1469598103934665603ull;
[[nodiscard]] std::uint64_t digest(std::uint64_t h, std::string_view bytes);
[[nodiscard]] std::uint64_t digest(std::uint64_t h, double v);

// --- host-speed normalisation ------------------------------------------------

/// The shared host this benchmark runs on drifts in speed by a third or
/// more over minutes (other tenants' load), which no amount of repetition
/// inside one run removes. Every host time the timed runs report is
/// therefore scaled to a reference speed: a fixed kernel (20000 inserts and
/// lookups in a std::map kept in a static arena, so it neither touches the
/// program's heap nor uses anything from src/) is timed a few times per
/// repetition, and that repetition's times are multiplied by
/// kReferenceKernelS over the kernel's median time. A change to the program
/// cannot move the kernel, so the scaling cancels host drift without hiding
/// the program's own speed.
class HostSpeed {
 public:
  /// The kernel's median time on the host where the benchmark was defined
  /// (4 vCPUs, GCC 12.2, RelWithDebInfo); it sets the reference speed.
  static constexpr double kReferenceKernelS = 0.0054;

  /// Time the kernel once, into the current repetition's samples.
  void sample();
  /// Factor that turns this repetition's host times into reference times;
  /// closes the repetition.
  [[nodiscard]] double end_repetition();
  /// One report line: the kernel's median time against the reference.
  [[nodiscard]] std::string describe() const;

 private:
  std::vector<double> current_;
  std::vector<double> all_;
};

// --- repetition control ------------------------------------------------------

/// Decides when a timed loop may stop: once `seconds` have elapsed and at
/// least `min_samples` samples exist (so every reported percentile has ten
/// samples beyond it), or unconditionally after `hard_cap_s`, which keeps a
/// run inside the benchmark's per-run time limit on a slow host.
class RepeatUntil {
 public:
  RepeatUntil(double seconds, std::size_t min_samples,
              double hard_cap_s = 150.0)
      : start_(Clock::now()),
        seconds_(seconds),
        min_samples_(min_samples),
        hard_cap_s_(hard_cap_s) {}
  [[nodiscard]] bool more(std::size_t samples) const {
    const double t = seconds_between(start_, Clock::now());
    if (t >= hard_cap_s_) return false;
    return t < seconds_ || samples < min_samples_;
  }

 private:
  Clock::time_point start_;
  double seconds_;
  std::size_t min_samples_;
  double hard_cap_s_;
};

// --- traced run --------------------------------------------------------------

/// In-memory span recorder for the traced run. The benchmark wraps each
/// public call it makes into a layer with a span; spans nest by scope, and
/// a span's self time is its duration minus the time its direct children
/// cover (children never overlap: the traced run is single-threaded).
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    int parent = -1;
  };

  class Scope {
   public:
    Scope(Tracer& tracer, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_;
    int saved_parent_;
  };

  Tracer() : origin_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] Scope span(std::string name) {
    return Scope(*this, std::move(name));
  }

  /// Total self time (s) of every span named `name`.
  [[nodiscard]] double self_s(std::string_view name) const;
  /// Total duration (s) of every span named `name`.
  [[nodiscard]] double total_s(std::string_view name) const;
  /// Self time summed over the spans inside [from_s, to_s] whose name
  /// starts with a layer prefix (sim., baselines., core., runtime., fault.,
  /// obs., parallel.): the part of that window the layers account for.
  [[nodiscard]] double layer_self_s(double from_s, double to_s) const;
  /// Seconds since the tracer was created.
  [[nodiscard]] double now_s() const {
    return seconds_between(origin_, Clock::now());
  }
  /// Write every span as CSV (name,start_s,end_s,parent).
  void write(const std::string& path) const;

 private:
  [[nodiscard]] std::vector<double> self_times() const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
  int current_ = -1;
};

}  // namespace perfbench
