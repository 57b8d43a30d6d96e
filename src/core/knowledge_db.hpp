// Knowledge database (paper §IV-B3): the application execution module
// "checks whether the program has been recorded in our knowledge database";
// known applications skip smart profiling entirely.
//
// Records are keyed by (application name, parameter string) — the same
// program with a different input deck is a different entry (the paper keeps
// two CloverLeaf entries for exactly this reason). Persistence is a CSV
// file so records survive across runs of the framework.
#pragma once

#include <filesystem>
#include <map>
#include <optional>
#include <string>

#include "core/profile.hpp"
#include "workloads/signature.hpp"

namespace clip::core {

/// What CLIP remembers about a characterized application.
struct KnowledgeRecord {
  std::string name;
  std::string parameters;
  workloads::ScalabilityClass cls = workloads::ScalabilityClass::kLinear;
  int inflection = 0;  ///< 0 for linear
  double perf_ratio = 0.0;
  parallel::AffinityPolicy preferred_affinity =
      parallel::AffinityPolicy::kScatter;
  double per_core_bw_gbps = 0.0;
  double node_bw_gbps = 0.0;  ///< achieved all-core bandwidth (the ceiling)
  double memory_intensity = 0.0;
  double time_all_s = 0.0;
  double time_half_s = 0.0;
  double time_validation_s = 0.0;  ///< 0 when no validation sample was taken
  int validation_threads = 0;
  double cpu_power_all_w = 0.0;
  double mem_power_all_w = 0.0;
  double cycles_active_all = 0.0;  ///< Event5 at the all-core profile
  std::string machine;  ///< fingerprint of the machine the profile is from

  /// Rebuild the ProfileData the decision pipeline consumes. Event rates
  /// other than the classification ratio are not persisted; the pipeline
  /// only needs them at first characterization (for the inflection MLR),
  /// after which the predicted N_P is stored here.
  [[nodiscard]] ProfileData to_profile(const struct KnowledgeDbShape& shape)
      const;

  /// Physical sanity: a record can be structurally well-formed CSV yet
  /// describe an impossible profile (zero runtime, negative watts, NaN
  /// ratios). Throws clip::PreconditionError naming the offending field;
  /// the scheduler validates on every DB hit so a corrupt record surfaces
  /// before it can poison a decision (the Launcher then falls back to a
  /// conservative allocation).
  void validate() const;
};

/// Machine facts the database needs: the node shape (to reconstruct
/// profiles) and the machine fingerprint (to reject foreign records — a
/// profile taken on different hardware is not evidence about this one).
struct KnowledgeDbShape {
  int total_cores = 24;
  std::string machine_fingerprint;  ///< empty = accept anything (legacy)
};

class KnowledgeDb {
 public:
  explicit KnowledgeDb(KnowledgeDbShape shape = KnowledgeDbShape{})
      : shape_(shape) {}

  [[nodiscard]] std::optional<KnowledgeRecord> lookup(
      const std::string& name, const std::string& parameters) const;

  /// Whether a record for (name, parameters) exists — lookup() without
  /// copying the record out.
  [[nodiscard]] bool contains(const std::string& name,
                              const std::string& parameters) const;

  void insert(KnowledgeRecord record);

  /// Import every record of `other` taken on this machine (same
  /// fingerprint; foreign records are skipped, existing keys are kept).
  /// Returns the number of records adopted. This is what lets budget sweeps
  /// that build several schedulers — ablations, scaling studies, repeated
  /// harness runs — pay for each application's characterization once.
  std::size_t merge_from(const KnowledgeDb& other);

  [[nodiscard]] std::size_t size() const { return records_.size(); }

  /// CSV persistence. `save` overwrites durably (write-temp + fsync + atomic
  /// rename, so a crash mid-save never tears the file); `load` replaces
  /// current contents,
  /// silently dropping records stamped with a different machine fingerprint
  /// (count available via `last_load_dropped`).
  void save(const std::filesystem::path& path) const;
  void load(const std::filesystem::path& path);
  [[nodiscard]] std::size_t last_load_dropped() const {
    return last_load_dropped_;
  }

  [[nodiscard]] const KnowledgeDbShape& shape() const { return shape_; }

 private:
  using Key = std::pair<std::string, std::string>;
  KnowledgeDbShape shape_;
  std::map<Key, KnowledgeRecord> records_;
  std::size_t last_load_dropped_ = 0;
};

/// Build a record from a completed characterization.
[[nodiscard]] KnowledgeRecord make_record(const ProfileData& profile,
                                          workloads::ScalabilityClass cls,
                                          int inflection);

}  // namespace clip::core
