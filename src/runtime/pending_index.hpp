// The queue's pending-job index: the jobs waiting to start, in submission
// order, each tagged with the number of free nodes it needs before an
// admission pass should look at it at all.
//
// QueueEventLoop's admission pass walks pending jobs in FCFS order and
// consults CLIP for each one that might start. A job pinned to more nodes
// than are free cannot start, and once CLIP knows its app the pass skips it
// unseen: its need is its pinned node count, and first() steps over whole
// runs of such jobs. Every other pending job needs 0 and is always visited.
// A min-tree over job indices answers "the first pending job at or after i
// whose need is at most r" in O(log jobs), so a pass costs O(log jobs) per
// job it visits, however many pinned jobs starve in front of them.
//
// The index is derived state: the event loop rebuilds it from its job states
// and never journals or snapshots it.
#pragma once

#include <climits>
#include <cstddef>
#include <vector>

namespace clip::runtime {

class PendingIndex {
 public:
  /// Any pending job, whatever its need.
  static constexpr int kAnyNeed = INT_MAX - 1;
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// Jobs [0, jobs), none pending.
  explicit PendingIndex(std::size_t jobs = 0);

  /// Mark job `j` pending with need `need` (>= 0), or update its need.
  void set(std::size_t j, int need);
  /// Job `j` is no longer pending (no-op if it was not).
  void erase(std::size_t j);

  /// The first pending job >= `from` whose need is <= `reach`; npos if none.
  [[nodiscard]] std::size_t first(std::size_t from, int reach = kAnyNeed) const;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

 private:
  static constexpr int kAbsent = INT_MAX;
  void put(std::size_t j, int value);

  std::size_t jobs_;
  std::size_t leaves_;     ///< power of two >= max(jobs_, 2)
  std::vector<int> min_;   ///< min-tree: root at 1, leaf j at leaves_ + j
  std::size_t size_ = 0;
};

}  // namespace clip::runtime
