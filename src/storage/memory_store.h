// Byte-accounted in-memory block store (one per executor). Mirrors Spark's
// MemoryStore: bounded capacity, insertion bookkeeping for LRU-style policies.
// Admission control (whether to accept a block, whom to evict) lives in the
// cache coordinator; this class only tracks residency, usage, and pins.
//
// The block map is striped over kNumShards shards (hash of BlockId), each
// with its own spinlock, so concurrent hits on different blocks never
// serialize on one lock. used_/peak_ are atomics maintained by a capacity-reservation
// protocol: Put reserves its delta with a CAS that re-checks the capacity
// bound on every attempt, so the overflow check is exactly as strict as the
// old single-lock store — used_ can never pass the bound, even transiently.
// used_bytes() is therefore an O(1) atomic load, and eviction scans get a
// shard-merged snapshot from Entries().
//
// Pinning: a task that reads a resident block pins it (GetAndPin) for the
// task's lifetime; eviction goes through RemoveIfUnpinned, which refuses —
// atomically, under the shard lock — to drop a pinned entry. Eviction can
// therefore never free data an executing task still references; unpersist
// paths use Remove, which ignores pins (dropping user-released data out from
// under a reader is the caller's explicit choice).
//
// When constructed with a MemoryArbiter, the store's capacity bound is the
// arbiter's CacheBoundBytes() — total executor memory minus the charged
// shuffle/execution footprint — and every reservation delta is mirrored into
// the arbiter's ledger, so cache and shuffle pressure share one budget.
#ifndef SRC_STORAGE_MEMORY_STORE_H_
#define SRC_STORAGE_MEMORY_STORE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/common/spinlock.h"
#include "src/storage/block.h"
#include "src/storage/memory_arbiter.h"

namespace blaze {

struct MemoryEntry {
  BlockId id;
  BlockPtr data;
  uint64_t size_bytes = 0;
  uint64_t last_access_seq = 0;  // bumped on insert and on Get
  int pins = 0;                  // executing tasks holding this block
  // Owning tenant (charged against its arbiter share); kNoTenant outside
  // multi-tenant mode. Victim scans read this for the eviction floor.
  uint32_t tenant = kNoTenant;
};

class MemoryStore {
 public:
  static constexpr size_t kNumShards = 8;

  explicit MemoryStore(uint64_t capacity_bytes, MemoryArbiter* arbiter = nullptr)
      : capacity_(capacity_bytes), arbiter_(arbiter) {}

  // Distributed mode: a pre-insert transform that may ship the payload to a
  // worker process and return a RemoteBlockStub to store in its place (null =
  // keep the original block local). Runs *before* PutInternal, outside the
  // shard lock — the hook does blocking RPC and must never run under a
  // spinlock. The stub reports the same logical size, so reservations, the
  // arbiter ledger, and the capacity bound are byte-identical either way.
  // Set while quiesced (engine construction); read on the put path unlocked.
  using OffloadHook = std::function<BlockPtr(const BlockId&, const BlockPtr&, uint64_t)>;
  void set_offload_hook(OffloadHook hook) { offload_ = std::move(hook); }

  // Inserts (or replaces) a block. The caller must have made room: inserting
  // beyond the capacity bound is a checked error — the coordinator owns
  // eviction. Replacing an existing block keeps its pins. `tenant`
  // tags the entry and charges the bytes to that tenant's arbiter share
  // (kNoTenant = untagged, the single-tenant default).
  void Put(const BlockId& id, BlockPtr data, uint64_t size_bytes,
           uint32_t tenant = kNoTenant);

  // Like Put, but returns false instead of dying when the block does not fit
  // under the current bound. Coordinators use this: with the arbiter's bound
  // moving under shuffle pressure, an admission decided a moment ago can
  // legitimately lose its headroom before the insert lands.
  bool TryPut(const BlockId& id, BlockPtr data, uint64_t size_bytes,
              uint32_t tenant = kNoTenant);

  // Returns the block and bumps its access recency, or nullopt.
  std::optional<BlockPtr> Get(const BlockId& id);

  // Get + pin in one shard-locked step: the returned block cannot be evicted
  // (RemoveIfUnpinned) until a matching Unpin. Callers must pair every
  // successful GetAndPin with exactly one Unpin.
  std::optional<BlockPtr> GetAndPin(const BlockId& id);

  // Drops one pin; no-op if the block is gone (Remove ignores pins).
  void Unpin(const BlockId& id);

  // Pin count of a resident block, or 0. Test/diagnostic probe.
  int PinCount(const BlockId& id) const;

  // Number of resident blocks currently pinned by executing tasks. Walks the
  // shards (locked one at a time); a telemetry-snapshot probe, not a hot path.
  size_t PinnedBlocks() const;

  // Returns the block without touching recency (used by inspection paths).
  std::optional<BlockPtr> Peek(const BlockId& id) const;

  bool Contains(const BlockId& id) const;

  // Removes the block; returns its size or 0 if absent. Ignores pins — this
  // is the unpersist/replace path where the caller owns the lifecycle.
  uint64_t Remove(const BlockId& id);

  // Eviction-path removal: refuses (returns 0) if the block is pinned by an
  // executing task. The pin check and the erase are atomic under the shard
  // lock, so a task that pinned the block can never observe it vanishing.
  uint64_t RemoveIfUnpinned(const BlockId& id);

  // O(1): atomic loads, no lock.
  uint64_t used_bytes() const { return used_.load(std::memory_order_relaxed); }
  uint64_t peak_bytes() const { return peak_.load(std::memory_order_relaxed); }
  uint64_t capacity_bytes() const { return capacity_; }

  // The bound reservations check against right now: the raw capacity, or the
  // arbiter's cache bound when execution bytes are charged. May move between
  // calls; use free_bytes() for headroom decisions.
  uint64_t effective_capacity_bytes() const {
    if (arbiter_ == nullptr) {
      return capacity_;
    }
    return std::min(capacity_, arbiter_->CacheBoundBytes());
  }

  // Headroom under the effective bound (0 when over-bound after the bound
  // shrank beneath the resident set).
  uint64_t free_bytes() const {
    const uint64_t bound = effective_capacity_bytes();
    const uint64_t used = used_bytes();
    return bound > used ? bound - used : 0;
  }

  // Shard-merged snapshot of the resident entries (data pointers included)
  // for victim selection by eviction policies. Shards are locked one at a
  // time, so the snapshot is per-shard consistent. Pin counts are included
  // so victim selection can skip in-use blocks.
  std::vector<MemoryEntry> Entries() const;

 private:
  // Shard critical sections are a map probe plus a few field updates (tens of
  // ns), the regime where SpinLock beats a futex mutex — see spinlock.h.
  struct alignas(64) Shard {
    mutable SpinLock mu;
    std::unordered_map<BlockId, MemoryEntry, BlockIdHash> blocks;
  };

  Shard& ShardFor(const BlockId& id) const {
    return shards_[BlockIdHash{}(id) % kNumShards];
  }

  // Atomically applies (+add_bytes, -remove_bytes) to used_ against the
  // current bound. fatal=true dies on overflow (the exact old check);
  // fatal=false returns false instead. Updates peak_ and the arbiter ledger;
  // writes the signed delta actually applied to *applied_delta.
  bool Reserve(const BlockId& id, uint64_t add_bytes, uint64_t remove_bytes, bool fatal,
               int64_t* applied_delta = nullptr);

  // Shared Put body; returns false when (fatal=false) the reservation fails.
  bool PutInternal(const BlockId& id, BlockPtr data, uint64_t size_bytes, bool fatal,
                   uint32_t tenant);

  void ReleaseBytes(uint64_t bytes, uint32_t tenant);

  uint64_t capacity_;
  MemoryArbiter* arbiter_;
  OffloadHook offload_;
  std::atomic<uint64_t> used_{0};
  std::atomic<uint64_t> peak_{0};
  std::atomic<uint64_t> seq_{0};
  mutable std::array<Shard, kNumShards> shards_;
};

}  // namespace blaze

#endif  // SRC_STORAGE_MEMORY_STORE_H_
