// Seeded job streams for the queue workloads. A stream draws its jobs with
// repeats from its own pool of distinct random apps; optionally every
// `pinned_every`-th job arrives with a predefined node count (an MPI launch
// line, cycling through 1, 2, 4 and 8 nodes), which takes the queue's
// constrained scheduling path. A workload runs many independent streams so
// that one seed's draw of apps and arrival order averages out in the
// host-time metrics.
#pragma once

#include <cstdint>
#include <vector>

#include "runtime/queue.hpp"
#include "util/rng.hpp"
#include "workloads/random.hpp"

namespace perfbench {

struct JobStream {
  std::vector<clip::workloads::WorkloadSignature> pool;
  std::vector<clip::runtime::QueueJob> jobs;
};

/// `streams` streams of `jobs` jobs over `pool_size` distinct apps each;
/// `pinned_every` = 0 pins no job to a node count.
/// Call once per process: the random app generator names apps from a
/// process-wide counter, and CLIP's knowledge DB keys on those names.
inline std::vector<JobStream> make_job_streams(std::uint64_t seed,
                                               int streams, int pool_size,
                                               int jobs, int pinned_every) {
  static const int kNodeCounts[] = {1, 2, 4, 8};
  std::vector<JobStream> out(static_cast<std::size_t>(streams));
  clip::Rng rng(seed);
  for (JobStream& s : out) {
    s.pool = clip::workloads::random_signatures(rng.next_u64(), pool_size);
    s.jobs.reserve(static_cast<std::size_t>(jobs));
    for (int i = 0; i < jobs; ++i) {
      clip::runtime::QueueJob j;
      j.app = s.pool[static_cast<std::size_t>(
          rng.uniform_int(0, pool_size - 1))];
      if (pinned_every > 0 && i % pinned_every == pinned_every - 1)
        j.requested_nodes = kNodeCounts[(i / pinned_every) % 4];
      s.jobs.push_back(std::move(j));
    }
  }
  return out;
}

}  // namespace perfbench
