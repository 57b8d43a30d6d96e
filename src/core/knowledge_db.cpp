#include "core/knowledge_db.hpp"

#include <charconv>
#include <cmath>

#include "util/check.hpp"
#include "util/csv.hpp"
#include "util/fsio.hpp"
#include "util/strings.hpp"

namespace clip::core {

namespace {

workloads::ScalabilityClass class_from_string(const std::string& s) {
  if (s == "linear") return workloads::ScalabilityClass::kLinear;
  if (s == "logarithmic") return workloads::ScalabilityClass::kLogarithmic;
  if (s == "parabolic") return workloads::ScalabilityClass::kParabolic;
  CLIP_REQUIRE(false, "unknown scalability class in knowledge DB: " + s);
  return workloads::ScalabilityClass::kLinear;
}

parallel::AffinityPolicy affinity_from_string(const std::string& s) {
  if (s == "compact") return parallel::AffinityPolicy::kCompact;
  if (s == "scatter") return parallel::AffinityPolicy::kScatter;
  CLIP_REQUIRE(false, "unknown affinity in knowledge DB: " + s);
  return parallel::AffinityPolicy::kScatter;
}

}  // namespace

ProfileData KnowledgeRecord::to_profile(const KnowledgeDbShape& shape) const {
  ProfileData p;
  p.app_name = name;
  p.app_parameters = parameters;
  p.perf_ratio_half_over_all = perf_ratio;
  p.preferred_affinity = preferred_affinity;
  p.per_core_bw_gbps = per_core_bw_gbps;
  p.node_bw_gbps = node_bw_gbps;
  p.memory_intensity = memory_intensity;

  p.all_core.config.threads = shape.total_cores;
  p.all_core.config.affinity = parallel::AffinityPolicy::kScatter;
  p.all_core.time = Seconds(time_all_s);
  p.all_core.cpu_power = Watts(cpu_power_all_w);
  p.all_core.mem_power = Watts(mem_power_all_w);
  p.all_core.events.read_bw_gbps = p.node_bw_gbps;
  p.all_core.events.cycles_active_per_s = cycles_active_all;
  p.all_core.events.perf_ratio_full_half =
      perf_ratio > 0.0 ? 1.0 / perf_ratio : 0.0;

  p.half_core.config.threads = shape.total_cores / 2;
  p.half_core.config.affinity = preferred_affinity;
  p.half_core.time = Seconds(time_half_s);

  if (validation_threads > 0) {
    SampleProfile v;
    v.config.threads = validation_threads;
    v.config.affinity = preferred_affinity;
    v.time = Seconds(time_validation_s);
    p.validation = v;
  }
  return p;
}

void KnowledgeRecord::validate() const {
  const auto field = [this](const std::string& what) {
    return "knowledge record for '" + name + "': " + what;
  };
  const auto finite_nonneg = [&](double v, const char* f) {
    CLIP_REQUIRE(std::isfinite(v) && v >= 0.0,
                 field(std::string(f) + " must be finite and non-negative (got " +
                       format_double(v, 6) + ")"));
  };
  CLIP_REQUIRE(!name.empty(), "knowledge record has an empty name");
  CLIP_REQUIRE(std::isfinite(perf_ratio) && perf_ratio > 0.0,
               field("perf_ratio must be finite and positive (got " +
                     format_double(perf_ratio, 6) + ")"));
  CLIP_REQUIRE(std::isfinite(time_all_s) && time_all_s > 0.0,
               field("time_all must be finite and positive (got " +
                     format_double(time_all_s, 6) + ")"));
  CLIP_REQUIRE(std::isfinite(time_half_s) && time_half_s > 0.0,
               field("time_half must be finite and positive (got " +
                     format_double(time_half_s, 6) + ")"));
  CLIP_REQUIRE(std::isfinite(cpu_power_all_w) && cpu_power_all_w > 0.0,
               field("cpu_power_all must be finite and positive (got " +
                     format_double(cpu_power_all_w, 6) + ")"));
  finite_nonneg(mem_power_all_w, "mem_power_all");
  finite_nonneg(per_core_bw_gbps, "per_core_bw");
  finite_nonneg(node_bw_gbps, "node_bw");
  finite_nonneg(memory_intensity, "mem_intensity");
  finite_nonneg(time_validation_s, "time_validation");
  finite_nonneg(cycles_active_all, "cycles_active_all");
  CLIP_REQUIRE(inflection >= 0,
               field("inflection must be non-negative (got " +
                     std::to_string(inflection) + ")"));
  CLIP_REQUIRE(validation_threads >= 0,
               field("validation_threads must be non-negative (got " +
                     std::to_string(validation_threads) + ")"));
}

std::optional<KnowledgeRecord> KnowledgeDb::lookup(
    const std::string& name, const std::string& parameters) const {
  const auto it = records_.find({name, parameters});
  if (it == records_.end()) return std::nullopt;
  return it->second;
}

bool KnowledgeDb::contains(const std::string& name,
                           const std::string& parameters) const {
  return records_.count({name, parameters}) != 0;
}

void KnowledgeDb::insert(KnowledgeRecord record) {
  if (record.machine.empty())
    record.machine = shape_.machine_fingerprint;
  Key key{record.name, record.parameters};
  records_[std::move(key)] = std::move(record);
}

std::size_t KnowledgeDb::merge_from(const KnowledgeDb& other) {
  std::size_t adopted = 0;
  for (const auto& [key, r] : other.records_) {
    if (!shape_.machine_fingerprint.empty() && !r.machine.empty() &&
        r.machine != shape_.machine_fingerprint)
      continue;  // profile from different hardware: not evidence here
    if (records_.count(key) != 0) continue;
    records_[key] = r;
    ++adopted;
  }
  return adopted;
}

namespace {
const std::vector<std::string> kColumns = {
    "name",          "parameters",      "class",
    "inflection",    "perf_ratio",      "affinity",
    "per_core_bw",   "node_bw",         "mem_intensity",
    "time_all",
    "time_half",     "time_validation", "validation_threads",
    "cpu_power_all", "mem_power_all",   "cycles_active_all",
    "machine"};
}  // namespace

void KnowledgeDb::save(const std::filesystem::path& path) const {
  CsvDocument doc;
  doc.header = kColumns;
  for (const auto& [key, r] : records_) {
    doc.rows.push_back({r.name,
                        r.parameters,
                        workloads::to_string(r.cls),
                        std::to_string(r.inflection),
                        format_double(r.perf_ratio, 6),
                        parallel::to_string(r.preferred_affinity),
                        format_double(r.per_core_bw_gbps, 6),
                        format_double(r.node_bw_gbps, 6),
                        format_double(r.memory_intensity, 6),
                        format_double(r.time_all_s, 6),
                        format_double(r.time_half_s, 6),
                        format_double(r.time_validation_s, 6),
                        std::to_string(r.validation_threads),
                        format_double(r.cpu_power_all_w, 6),
                        format_double(r.mem_power_all_w, 6),
                        format_double(r.cycles_active_all, 1),
                        r.machine});
  }
  // Stage-and-swap so a coordinator killed mid-save never leaves a torn DB:
  // readers observe either the previous complete file or the new one.
  atomic_write_file(path, render_csv(doc));
}

void KnowledgeDb::load(const std::filesystem::path& path) {
  // Parse into a staging map and swap only after the whole file validated:
  // a truncated or corrupt DB file (wrong column count, partial last line,
  // empty file, garbage numerics) must reject cleanly and leave the
  // in-memory database exactly as it was. read_csv already rejects
  // unreadable files, empty files, and ragged rows (a partial last line is
  // a ragged row) with a descriptive PreconditionError.
  const CsvDocument doc = read_csv(path);
  CLIP_REQUIRE(doc.header == kColumns,
               "knowledge DB schema mismatch in " + path.string() +
                   ": expected " + std::to_string(kColumns.size()) +
                   " columns starting with '" + kColumns.front() +
                   "', got " + std::to_string(doc.header.size()) +
                   " starting with '" +
                   (doc.header.empty() ? std::string() : doc.header.front()) +
                   "'");
  std::map<Key, KnowledgeRecord> staged;
  std::size_t dropped = 0;
  for (std::size_t i = 0; i < doc.rows.size(); ++i) {
    const auto& row = doc.rows[i];
    KnowledgeRecord r;
    const auto num = [&row](std::size_t c) {
      return parse_double(row[c], kColumns[c]);
    };
    const auto whole = [&row](std::size_t c) {
      return static_cast<int>(parse_int(row[c], kColumns[c]));
    };
    try {
      r.name = row[0];
      r.parameters = row[1];
      r.cls = class_from_string(row[2]);
      r.inflection = whole(3);
      r.perf_ratio = num(4);
      r.preferred_affinity = affinity_from_string(row[5]);
      r.per_core_bw_gbps = num(6);
      r.node_bw_gbps = num(7);
      r.memory_intensity = num(8);
      r.time_all_s = num(9);
      r.time_half_s = num(10);
      r.time_validation_s = num(11);
      r.validation_threads = whole(12);
      r.cpu_power_all_w = num(13);
      r.mem_power_all_w = num(14);
      r.cycles_active_all = num(15);
      r.machine = row[16];
    } catch (const PreconditionError& e) {
      throw PreconditionError("knowledge DB " + path.string() + " row " +
                              std::to_string(i + 2) + ": " + e.what());
    }
    if (!shape_.machine_fingerprint.empty() && !r.machine.empty() &&
        r.machine != shape_.machine_fingerprint) {
      ++dropped;
      continue;  // profile from different hardware: not evidence here
    }
    if (r.machine.empty()) r.machine = shape_.machine_fingerprint;
    Key key{r.name, r.parameters};
    staged[std::move(key)] = std::move(r);
  }
  records_ = std::move(staged);
  last_load_dropped_ = dropped;
}

KnowledgeRecord make_record(const ProfileData& profile,
                            workloads::ScalabilityClass cls,
                            int inflection) {
  KnowledgeRecord r;
  r.name = profile.app_name;
  r.parameters = profile.app_parameters;
  r.cls = cls;
  r.inflection = inflection;
  r.perf_ratio = profile.perf_ratio_half_over_all;
  r.preferred_affinity = profile.preferred_affinity;
  r.per_core_bw_gbps = profile.per_core_bw_gbps;
  r.node_bw_gbps = profile.node_bw_gbps;
  r.memory_intensity = profile.memory_intensity;
  r.time_all_s = profile.all_core.time.value();
  r.time_half_s = profile.half_core.time.value();
  if (profile.validation) {
    r.time_validation_s = profile.validation->time.value();
    r.validation_threads = profile.validation->config.threads;
  }
  r.cpu_power_all_w = profile.all_core.cpu_power.value();
  r.mem_power_all_w = profile.all_core.mem_power.value();
  r.cycles_active_all = profile.all_core.events.cycles_active_per_s;
  return r;
}

}  // namespace clip::core
