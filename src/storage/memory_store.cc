#include "src/storage/memory_store.h"

#include <utility>

#include "src/common/logging.h"

namespace blaze {

bool MemoryStore::Reserve(const BlockId& id, uint64_t add_bytes, uint64_t remove_bytes,
                          bool fatal, int64_t* applied_delta) {
  uint64_t cur = used_.load(std::memory_order_relaxed);
  uint64_t desired;
  do {
    // The bound is re-read on every CAS attempt: with an arbiter attached it
    // moves as shuffle reservations land, and the check must be against the
    // bound that holds at the instant the reservation commits.
    const uint64_t bound = effective_capacity_bytes();
    desired = cur - remove_bytes + add_bytes;
    if (desired > bound && add_bytes > remove_bytes) {
      if (fatal) {
        BLAZE_CHECK_LE(desired, bound)
            << "MemoryStore overflow inserting " << id.ToString() << " (" << add_bytes
            << " B into " << (bound > cur - remove_bytes ? bound - (cur - remove_bytes) : 0)
            << " B free)";
      }
      return false;
    }
  } while (!used_.compare_exchange_weak(cur, desired, std::memory_order_relaxed));
  if (applied_delta != nullptr) {
    *applied_delta = static_cast<int64_t>(desired) - static_cast<int64_t>(cur);
  }
  if (arbiter_ != nullptr) {
    arbiter_->OnCacheDelta(static_cast<int64_t>(add_bytes) -
                           static_cast<int64_t>(remove_bytes));
  }
  uint64_t peak = peak_.load(std::memory_order_relaxed);
  while (desired > peak &&
         !peak_.compare_exchange_weak(peak, desired, std::memory_order_relaxed)) {
  }
  return true;
}

void MemoryStore::ReleaseBytes(uint64_t bytes, uint32_t tenant) {
  used_.fetch_sub(bytes, std::memory_order_relaxed);
  if (arbiter_ != nullptr) {
    arbiter_->OnCacheDelta(-static_cast<int64_t>(bytes));
    if (tenant != kNoTenant) {
      arbiter_->OnTenantCacheDelta(tenant, -static_cast<int64_t>(bytes));
    }
  }
}

bool MemoryStore::PutInternal(const BlockId& id, BlockPtr data, uint64_t size_bytes,
                              bool fatal, uint32_t tenant) {
  Shard& shard = ShardFor(id);
  std::lock_guard<SpinLock> lock(shard.mu);
  auto it = shard.blocks.find(id);
  const uint64_t old_size = it != shard.blocks.end() ? it->second.size_bytes : 0;
  const uint32_t old_tenant = it != shard.blocks.end() ? it->second.tenant : kNoTenant;
  // Holding the shard lock makes find-then-reserve atomic for this key; the
  // reservation itself re-checks the bound against concurrent shards' puts.
  int64_t applied_delta = 0;
  if (!Reserve(id, size_bytes, old_size, fatal, &applied_delta)) {
    return false;
  }
  // Replacement reservations must apply the exact size delta — a shrinking
  // replacement releases bytes, a growing one adds only the difference. This
  // invariant is what keeps used_ equal to the sum of resident entry sizes.
  BLAZE_CHECK_EQ(applied_delta,
                 static_cast<int64_t>(size_bytes) - static_cast<int64_t>(old_size))
      << "replace reservation for " << id.ToString() << " applied wrong delta (old "
      << old_size << " B, new " << size_bytes << " B)";
  // Tenant ledger mirror: a replacement may move the charge between tenants
  // (full release + full charge); same-tenant replacements apply the delta.
  if (arbiter_ != nullptr && (tenant != kNoTenant || old_tenant != kNoTenant)) {
    if (old_tenant == tenant) {
      arbiter_->OnTenantCacheDelta(tenant, static_cast<int64_t>(size_bytes) -
                                               static_cast<int64_t>(old_size));
    } else {
      if (old_tenant != kNoTenant) {
        arbiter_->OnTenantCacheDelta(old_tenant, -static_cast<int64_t>(old_size));
      }
      if (tenant != kNoTenant) {
        arbiter_->OnTenantCacheDelta(tenant, static_cast<int64_t>(size_bytes));
      }
    }
  }
  const uint64_t seq = seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (it != shard.blocks.end()) {
    // Replacement: new payload and recency; pins are preserved (a reader
    // holding the old payload keeps its pin).
    MemoryEntry& entry = it->second;
    entry.data = std::move(data);
    entry.size_bytes = size_bytes;
    entry.last_access_seq = seq;
    entry.tenant = tenant;
    return true;
  }
  MemoryEntry entry;
  entry.id = id;
  entry.data = std::move(data);
  entry.size_bytes = size_bytes;
  entry.last_access_seq = seq;
  entry.tenant = tenant;
  shard.blocks.emplace(id, std::move(entry));
  return true;
}

void MemoryStore::Put(const BlockId& id, BlockPtr data, uint64_t size_bytes,
                      uint32_t tenant) {
  // Offload (blocking RPC in distributed mode) happens before any shard lock.
  if (offload_) {
    if (BlockPtr stub = offload_(id, data, size_bytes)) {
      data = std::move(stub);
    }
  }
  PutInternal(id, std::move(data), size_bytes, /*fatal=*/true, tenant);
}

bool MemoryStore::TryPut(const BlockId& id, BlockPtr data, uint64_t size_bytes,
                         uint32_t tenant) {
  if (offload_) {
    if (BlockPtr stub = offload_(id, data, size_bytes)) {
      data = std::move(stub);
    }
  }
  return PutInternal(id, std::move(data), size_bytes, /*fatal=*/false, tenant);
}

std::optional<BlockPtr> MemoryStore::Get(const BlockId& id) {
  Shard& shard = ShardFor(id);
  std::lock_guard<SpinLock> lock(shard.mu);
  auto it = shard.blocks.find(id);
  if (it == shard.blocks.end()) {
    return std::nullopt;
  }
  it->second.last_access_seq = seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  return it->second.data;
}

std::optional<BlockPtr> MemoryStore::GetAndPin(const BlockId& id) {
  Shard& shard = ShardFor(id);
  std::lock_guard<SpinLock> lock(shard.mu);
  auto it = shard.blocks.find(id);
  if (it == shard.blocks.end()) {
    return std::nullopt;
  }
  it->second.last_access_seq = seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  ++it->second.pins;
  return it->second.data;
}

void MemoryStore::Unpin(const BlockId& id) {
  Shard& shard = ShardFor(id);
  std::lock_guard<SpinLock> lock(shard.mu);
  auto it = shard.blocks.find(id);
  if (it != shard.blocks.end() && it->second.pins > 0) {
    --it->second.pins;
  }
}

int MemoryStore::PinCount(const BlockId& id) const {
  const Shard& shard = ShardFor(id);
  std::lock_guard<SpinLock> lock(shard.mu);
  auto it = shard.blocks.find(id);
  return it == shard.blocks.end() ? 0 : it->second.pins;
}

size_t MemoryStore::PinnedBlocks() const {
  size_t pinned = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<SpinLock> lock(shard.mu);
    for (const auto& [id, entry] : shard.blocks) {
      if (entry.pins > 0) {
        ++pinned;
      }
    }
  }
  return pinned;
}

std::optional<BlockPtr> MemoryStore::Peek(const BlockId& id) const {
  const Shard& shard = ShardFor(id);
  std::lock_guard<SpinLock> lock(shard.mu);
  auto it = shard.blocks.find(id);
  if (it == shard.blocks.end()) {
    return std::nullopt;
  }
  return it->second.data;
}

bool MemoryStore::Contains(const BlockId& id) const {
  const Shard& shard = ShardFor(id);
  std::lock_guard<SpinLock> lock(shard.mu);
  return shard.blocks.contains(id);
}

uint64_t MemoryStore::Remove(const BlockId& id) {
  Shard& shard = ShardFor(id);
  std::lock_guard<SpinLock> lock(shard.mu);
  auto it = shard.blocks.find(id);
  if (it == shard.blocks.end()) {
    return 0;
  }
  const uint64_t size = it->second.size_bytes;
  const uint32_t tenant = it->second.tenant;
  shard.blocks.erase(it);
  ReleaseBytes(size, tenant);
  return size;
}

uint64_t MemoryStore::RemoveIfUnpinned(const BlockId& id) {
  Shard& shard = ShardFor(id);
  std::lock_guard<SpinLock> lock(shard.mu);
  auto it = shard.blocks.find(id);
  if (it == shard.blocks.end() || it->second.pins > 0) {
    return 0;
  }
  const uint64_t size = it->second.size_bytes;
  const uint32_t tenant = it->second.tenant;
  shard.blocks.erase(it);
  ReleaseBytes(size, tenant);
  return size;
}

std::vector<MemoryEntry> MemoryStore::Entries() const {
  std::vector<MemoryEntry> out;
  for (const Shard& shard : shards_) {
    std::lock_guard<SpinLock> lock(shard.mu);
    out.reserve(out.size() + shard.blocks.size());
    for (const auto& [id, entry] : shard.blocks) {
      out.push_back(entry);
    }
  }
  return out;
}

}  // namespace blaze
