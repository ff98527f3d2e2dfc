// Concrete eviction policies: LRU (the Spark default) and the paper's two
// dependency-aware baselines (§7): LRC (least reference count, Yu et al.
// INFOCOM'17) and MRD (most reference distance, Perez et al. ICPP'18, with
// prefetching).
#ifndef SRC_CACHE_POLICIES_H_
#define SRC_CACHE_POLICIES_H_

#include <memory>
#include <string>

#include "src/cache/eviction_policy.h"

namespace blaze {

class LruPolicy : public EvictionPolicy {
 public:
  const char* name() const override { return "LRU"; }
  size_t SelectVictim(const std::vector<MemoryEntry>& candidates,
                      const DependencyDigest& digest) override;
};

// Evicts the block whose dataset has the fewest remaining references in the
// current job (ties broken LRU). Datasets unreferenced by the job rank first.
class LrcPolicy : public EvictionPolicy {
 public:
  const char* name() const override { return "LRC"; }
  size_t SelectVictim(const std::vector<MemoryEntry>& candidates,
                      const DependencyDigest& digest) override;
};

// Evicts the block whose dataset is referenced farthest in the future (in
// stages); prefetches disk blocks referenced by the imminent stage.
class MrdPolicy : public EvictionPolicy {
 public:
  const char* name() const override { return "MRD"; }
  size_t SelectVictim(const std::vector<MemoryEntry>& candidates,
                      const DependencyDigest& digest) override;
  bool WantsPrefetch() const override { return true; }
  bool ShouldPrefetch(RddId id, const DependencyDigest& digest) const override;
};

// Factory by name: "lru", "lrc", "mrd".
std::unique_ptr<EvictionPolicy> MakePolicy(const std::string& name);

}  // namespace blaze

#endif  // SRC_CACHE_POLICIES_H_
