#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory_resource>
#include <stdexcept>

namespace perfbench {

void Result::set(std::string name, double value, std::string unit,
                 std::string alias, std::string alias_unit) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m = {std::move(name), value, std::move(unit), std::move(alias),
           std::move(alias_unit)};
      return;
    }
  }
  metrics.push_back({std::move(name), value, std::move(unit),
                     std::move(alias), std::move(alias_unit)});
}

void Result::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double acc = 0.0;
  for (const double x : v) acc += std::log(x);
  return std::exp(acc / static_cast<double>(v.size()));
}

double median_rate(double work_units,
                   const std::vector<std::vector<double>>& item_s) {
  double total = 0.0;
  for (const auto& times : item_s) total += median(times);
  return work_units / total;
}

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

double sum(const std::vector<double>& v) {
  double acc = 0.0;
  for (const double x : v) acc += x;
  return acc;
}

ProcUsage proc_usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return {ms(ru.ru_utime), ms(ru.ru_stime),
          static_cast<double>(ru.ru_minflt)};
}

ProcUsage operator-(const ProcUsage& a, const ProcUsage& b) {
  return {a.user_ms - b.user_ms, a.sys_ms - b.sys_ms,
          a.minor_faults - b.minor_faults};
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter survives execve, so a
  // process started by a large parent would report the parent's peak.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::uint64_t digest(std::uint64_t h, std::string_view bytes) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t digest(std::uint64_t h, double v) {
  char bytes[sizeof(double)];
  std::memcpy(bytes, &v, sizeof(double));
  return digest(h, std::string_view(bytes, sizeof(double)));
}

namespace {

/// Keeps the kernel's result observable so it is not optimised away.
volatile std::uint64_t g_kernel_sink = 0;

/// Static arena for the kernel's tree, so it never touches the heap the
/// program under test has shaped.
alignas(std::max_align_t) unsigned char g_kernel_arena[8u << 20];

}  // namespace

void HostSpeed::sample() {
  const auto t0 = Clock::now();
  std::pmr::monotonic_buffer_resource arena(
      g_kernel_arena, sizeof(g_kernel_arena),
      std::pmr::null_memory_resource());
  std::pmr::map<std::uint64_t, std::uint64_t> tree(&arena);
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  std::uint64_t acc = 0;
  const auto step = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x % 100000;
  };
  for (int i = 0; i < 20000; ++i) tree[step()] += static_cast<unsigned>(i);
  for (int i = 0; i < 20000; ++i) {
    const auto it = tree.find(step());
    if (it != tree.end()) acc += it->second;
  }
  current_.push_back(seconds_between(t0, Clock::now()));
  g_kernel_sink = acc;
}

double HostSpeed::end_repetition() {
  if (current_.empty()) sample();
  const double m = median(current_);
  all_.insert(all_.end(), current_.begin(), current_.end());
  current_.clear();
  return kReferenceKernelS / m;
}

std::string HostSpeed::describe() const {
  const double m = median(all_);
  return "host speed: reference kernel median " + fmt(m * 1e3) +
         " ms over " + std::to_string(all_.size()) +
         " samples (reference " + fmt(kReferenceKernelS * 1e3) +
         " ms); host times are scaled to the reference, by about " +
         fmt(kReferenceKernelS / m) + " on this run";
}

Tracer::Scope::Scope(Tracer& tracer, std::string name)
    : tracer_(&tracer),
      index_(static_cast<int>(tracer.spans_.size())),
      saved_parent_(tracer.current_) {
  tracer.spans_.push_back({std::move(name), 0.0, 0.0, tracer.current_});
  tracer.current_ = index_;
  // Read the clock last so the span excludes its own bookkeeping.
  tracer.spans_[static_cast<std::size_t>(index_)].start_s = tracer.now_s();
}

Tracer::Scope::~Scope() {
  const double end = tracer_->now_s();
  tracer_->spans_[static_cast<std::size_t>(index_)].end_s = end;
  tracer_->current_ = saved_parent_;
}

std::vector<double> Tracer::self_times() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[i] = spans_[i].end_s - spans_[i].start_s;
  for (const Span& s : spans_)
    if (s.parent >= 0)
      self[static_cast<std::size_t>(s.parent)] -= s.end_s - s.start_s;
  return self;
}

double Tracer::self_s(std::string_view name) const {
  const std::vector<double> self = self_times();
  double acc = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].name == name) acc += self[i];
  return acc;
}

double Tracer::total_s(std::string_view name) const {
  double acc = 0.0;
  for (const Span& s : spans_)
    if (s.name == name) acc += s.end_s - s.start_s;
  return acc;
}

double Tracer::layer_self_s(double from_s, double to_s) const {
  static const char* kLayers[] = {"sim.",     "baselines.", "core.",
                                  "runtime.", "fault.",     "obs.",
                                  "parallel."};
  const std::vector<double> self = self_times();
  double acc = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].start_s < from_s || spans_[i].end_s > to_s) continue;
    for (const char* prefix : kLayers)
      if (spans_[i].name.rfind(prefix, 0) == 0) {
        acc += self[i];
        break;
      }
  }
  return acc;
}

void Tracer::write(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write span file " + path);
  os << "name,start_s,end_s,parent\n";
  os.precision(9);
  for (const Span& s : spans_)
    os << s.name << ',' << s.start_s << ',' << s.end_s << ',' << s.parent
       << '\n';
}

}  // namespace perfbench
