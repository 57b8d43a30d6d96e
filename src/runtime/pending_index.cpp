#include "runtime/pending_index.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace clip::runtime {

PendingIndex::PendingIndex(std::size_t jobs) : jobs_(jobs), leaves_(2) {
  while (leaves_ < jobs_) leaves_ *= 2;
  min_.assign(2 * leaves_, kAbsent);
}

void PendingIndex::put(std::size_t j, int value) {
  CLIP_REQUIRE(j < jobs_, "pending index: job out of range");
  std::size_t i = leaves_ + j;
  if (min_[i] != kAbsent) --size_;
  if (value != kAbsent) ++size_;
  min_[i] = value;
  for (i /= 2; i >= 1; i /= 2)
    min_[i] = std::min(min_[2 * i], min_[2 * i + 1]);
}

void PendingIndex::set(std::size_t j, int need) {
  CLIP_REQUIRE(need >= 0 && need <= kAnyNeed,
               "pending index: need out of range");
  put(j, need);
}

void PendingIndex::erase(std::size_t j) { put(j, kAbsent); }

std::size_t PendingIndex::first(std::size_t from, int reach) const {
  if (from >= jobs_) return npos;
  std::size_t i = leaves_ + from;
  if (min_[i] > reach) {
    // Climb until a right sibling's subtree holds a match: every subtree
    // entered this way covers only jobs after `from`.
    do {
      while (i % 2 == 1) {
        i /= 2;
        if (i == 1) return npos;  // climbed the right spine: nothing after
      }
      ++i;
    } while (min_[i] > reach);
    // Descend to the leftmost matching leaf (padding leaves never match).
    while (i < leaves_) {
      i *= 2;
      if (min_[i] > reach) ++i;
    }
  }
  return i - leaves_;
}

}  // namespace clip::runtime
