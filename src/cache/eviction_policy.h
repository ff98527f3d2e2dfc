// Eviction policy interface for the annotation-following coordinator.
//
// A policy ranks the blocks resident in one executor's memory store and picks
// the next victim. Dependency-aware policies (LRC, MRD) additionally consume
// the per-job dependency digest maintained by the coordinator.
#ifndef SRC_CACHE_EVICTION_POLICY_H_
#define SRC_CACHE_EVICTION_POLICY_H_

#include <limits>
#include <unordered_map>
#include <vector>

#include "src/dataflow/events.h"
#include "src/storage/memory_store.h"

namespace blaze {

// Dependency digest of the currently running job, rebuilt on every job start.
struct DependencyDigest {
  // LRC: number of dependent datasets inside the current job.
  std::unordered_map<RddId, int> ref_count;
  // MRD: first stage index (within the current job) that consumes the dataset.
  std::unordered_map<RddId, int> next_use_stage;
  int current_stage = 0;

  int RefCount(RddId id) const {
    auto it = ref_count.find(id);
    return it == ref_count.end() ? 0 : it->second;
  }
  // Stages until next use; datasets unused in this job are "infinitely" far.
  int ReferenceDistance(RddId id) const {
    auto it = next_use_stage.find(id);
    if (it == next_use_stage.end() || it->second < current_stage) {
      return std::numeric_limits<int>::max();
    }
    return it->second - current_stage;
  }
};

class EvictionPolicy {
 public:
  virtual ~EvictionPolicy() = default;
  virtual const char* name() const = 0;

  // Picks the next victim: an index into `candidates` (never empty).
  virtual size_t SelectVictim(const std::vector<MemoryEntry>& candidates,
                              const DependencyDigest& digest) = 0;

  // MRD prefetches disk-resident blocks about to be referenced.
  virtual bool WantsPrefetch() const { return false; }
  // True if the dataset should be prefetched at the current stage.
  virtual bool ShouldPrefetch(RddId id, const DependencyDigest& digest) const {
    (void)id;
    (void)digest;
    return false;
  }
};

}  // namespace blaze

#endif  // SRC_CACHE_EVICTION_POLICY_H_
