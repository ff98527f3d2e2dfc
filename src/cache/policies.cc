#include "src/cache/policies.h"

#include <utility>

#include "src/common/logging.h"

namespace blaze {

namespace {

// Shared scan: smallest (primary, last_access_seq) wins.
template <typename KeyFn>
size_t ArgMin(const std::vector<MemoryEntry>& candidates, KeyFn key) {
  BLAZE_CHECK(!candidates.empty());
  size_t best = 0;
  auto best_key = key(candidates[0]);
  for (size_t i = 1; i < candidates.size(); ++i) {
    auto k = key(candidates[i]);
    if (k < best_key) {
      best_key = k;
      best = i;
    }
  }
  return best;
}

}  // namespace

size_t LruPolicy::SelectVictim(const std::vector<MemoryEntry>& candidates,
                               const DependencyDigest&) {
  return ArgMin(candidates, [](const MemoryEntry& e) { return e.last_access_seq; });
}

size_t LrcPolicy::SelectVictim(const std::vector<MemoryEntry>& candidates,
                               const DependencyDigest& digest) {
  return ArgMin(candidates, [&digest](const MemoryEntry& e) {
    return std::make_pair(digest.RefCount(e.id.rdd_id), e.last_access_seq);
  });
}

size_t MrdPolicy::SelectVictim(const std::vector<MemoryEntry>& candidates,
                               const DependencyDigest& digest) {
  // Largest reference distance evicted first => minimize the negated distance.
  return ArgMin(candidates, [&digest](const MemoryEntry& e) {
    return std::make_pair(-static_cast<int64_t>(digest.ReferenceDistance(e.id.rdd_id)),
                          static_cast<int64_t>(e.last_access_seq));
  });
}

bool MrdPolicy::ShouldPrefetch(RddId id, const DependencyDigest& digest) const {
  return digest.ReferenceDistance(id) == 0;
}

std::unique_ptr<EvictionPolicy> MakePolicy(const std::string& name) {
  if (name == "lru") {
    return std::make_unique<LruPolicy>();
  }
  if (name == "lrc") {
    return std::make_unique<LrcPolicy>();
  }
  if (name == "mrd") {
    return std::make_unique<MrdPolicy>();
  }
  BLAZE_LOG(kFatal) << "unknown eviction policy: " << name;
  return nullptr;
}

}  // namespace blaze
