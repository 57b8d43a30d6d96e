// Helpers shared by the test executables: per-case temp paths and a
// bit-exact fingerprint of a queue report.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <sstream>
#include <string>

#include "runtime/queue.hpp"

namespace clip::test {

/// A temp-directory path unique per test case *and* process:
/// `<stem>.<suite>.<case>.<pid><ext>`. ctest -j runs each gtest case as its
/// own concurrent process, so a fixed path shared by several cases races:
/// one case's TearDown deletes the file another case is reading.
inline std::filesystem::path case_temp_path(const std::string& stem,
                                            const std::string& ext = "") {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = std::string(info->test_suite_name()) + "." + info->name();
  std::replace(name.begin(), name.end(), '/', '_');  // parameterized names
  return std::filesystem::temp_directory_path() /
         (stem + "." + name + "." + std::to_string(::getpid()) + ext);
}

/// Bit-exact textual fingerprint of a QueueReport (hexfloat doubles), for
/// byte-identity assertions.
inline std::string report_fingerprint(const runtime::QueueReport& r) {
  std::ostringstream os;
  os << std::hexfloat;
  os << r.makespan_s << '|' << r.mean_turnaround_s << '|'
     << r.total_energy_j << '|' << r.node_seconds_used << '|'
     << r.node_seconds_available << '|' << r.retries << '|' << r.jobs_failed
     << '|' << r.caps_reprogrammed << '|' << r.violation_s << '|'
     << r.violation_ws << '|' << r.meter_reads_rejected;
  for (int n : r.crashed_nodes) os << "|crash:" << n;
  for (const auto& j : r.jobs)
    os << '\n'
       << j.app << ',' << j.parameters << ',' << j.submit_s << ','
       << j.start_s << ',' << j.end_s << ',' << j.nodes << ',' << j.budget_w
       << ',' << j.power_w << ',' << j.attempts << ',' << j.completed << ','
       << j.crashed_node;
  return os.str();
}

/// 64-bit FNV-1a, to pin a long fingerprint as one recorded constant.
inline std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace clip::test
