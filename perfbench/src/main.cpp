// perfbench — the coordinator benchmark's measuring program.
//
//   perfbench --workload sweep|queue-deep|durable-recover --seed N
//             --seconds S --trace 0|1 [--trace-out spans.csv]
//
// Prints a human-readable report, then as its last line one JSON object
// with every metric the run computed, the correctness counts, a digest of
// the simulated outputs and the build's provenance. perfbench/run.py builds
// this program, runs it and reduces that line to the benchmark's result.
// Exit status: 0 after a completed run (failed checks are reported in the
// JSON, not by the status), 2 on bad arguments or an exception.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "common.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload sweep|queue-deep|"
               "durable-recover --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string v = argv[++i];
    try {
      if (arg == "--workload") {
        o.workload = v;
        have_workload = true;
      } else if (arg == "--seed") {
        o.seed = std::stoull(v);
      } else if (arg == "--seconds") {
        o.seconds = std::stod(v);
      } else if (arg == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        o.trace = v == "1";
      } else if (arg == "--trace-out") {
        o.trace_out = v;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg + ": " + v);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print_report(const Options& opt, const Result& r) {
  std::cout << "perfbench " << opt.workload << " seed=" << opt.seed
            << (opt.trace ? " (traced run)" : " (timed run, tracing off)")
            << '\n';
  for (const auto& line : r.notes) std::cout << "  " << line << '\n';
  for (const auto& m : r.metrics) {
    std::cout << "  " << (m.alias.empty() ? m.name : m.alias) << " = "
              << fmt(m.value) << ' '
              << (m.alias_unit.empty() ? m.unit : m.alias_unit);
    if (!m.alias.empty()) std::cout << "  [" << m.name << ']';
    std::cout << '\n';
  }
  std::cout << "  (" << r.failed << " of " << r.attempted
            << " checks failed)\n";
  for (const auto& f : r.failures) std::cout << "  FAILED: " << f << '\n';
  char hex[24];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(r.digest));
  std::cout << "  outputs digest = " << hex << '\n';
}

void print_json(const Options& opt, const Result& r) {
  char hex[24];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(r.digest));
  std::string s = "{\"workload\": " + json_string(opt.workload) +
                  ", \"seed\": " + std::to_string(opt.seed) +
                  ", \"trace\": " + (opt.trace ? "1" : "0") +
                  ", \"attempted\": " + std::to_string(r.attempted) +
                  ", \"failed\": " + std::to_string(r.failed) +
                  ", \"digest\": \"" + hex + "\", \"provenance\": {" +
                  "\"compiler\": " + json_string(PERFBENCH_COMPILER) +
                  ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
                  ", \"nproc\": " +
                  std::to_string(std::thread::hardware_concurrency()) +
                  ", \"threads\": 1, \"pool_threads\": " +
                  (opt.trace && opt.workload == "sweep"
                       ? std::to_string(std::thread::hardware_concurrency())
                       : std::string("0")) +
                  ", \"seed\": " + std::to_string(opt.seed) +
                  "}, \"metrics\": {";
  bool first = true;
  for (const auto& m : r.metrics) {
    if (!first) s += ", ";
    first = false;
    s += json_string(m.name) + ": {\"value\": " + json_number(m.value) +
         ", \"unit\": " + json_string(m.unit) + "}";
  }
  s += "}}";
  std::cout << s << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  Result r;
  try {
    if (opt.trace) {
      Tracer tracer;
      if (opt.workload == "sweep")
        trace_sweep(opt, tracer, r);
      else if (opt.workload == "queue-deep")
        trace_queue_deep(opt, tracer, r);
      else if (opt.workload == "durable-recover")
        trace_durable_recover(opt, tracer, r);
      else
        usage("unknown workload " + opt.workload);
      if (!opt.trace_out.empty()) tracer.write(opt.trace_out);
    } else {
      if (opt.workload == "sweep")
        run_sweep(opt, r);
      else if (opt.workload == "queue-deep")
        run_queue_deep(opt, r);
      else if (opt.workload == "durable-recover")
        run_durable_recover(opt, r);
      else
        usage("unknown workload " + opt.workload);
      r.set("peak_rss_mb", peak_rss_mb(), "MiB");
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 2;
  }
  for (const auto& m : r.metrics)
    r.check(std::isfinite(m.value), "metric " + m.name + " is not finite");
  r.set("op_failure_ratio",
        r.attempted == 0 ? 1.0
                         : static_cast<double>(r.failed) /
                               static_cast<double>(r.attempted),
        "ratio");
  print_report(opt, r);
  print_json(opt, r);
  return 0;
}
