// Per-executor storage: one memory store + one disk store, mirroring Spark's
// BlockManager. Provides the mechanical operations — the async-first disk
// write (WriteToDisk), one chosen victim's eviction in DESIGN §12's order
// (Evict), the every-tier drop (Drop), spill and disk fetch — which the cache
// coordinators call instead of re-implementing; every *decision* — admit,
// evict, victim choice, disk-vs-discard — belongs to the coordinator
// (src/dataflow/cache_coordinator.h).
//
// The BlockManager owns the executor's MemoryArbiter (one byte ledger for
// cache blocks and shuffle/execution buffers — the memory store's capacity
// bound shrinks as shuffle bytes are charged) and its SpillQueue
// (asynchronous spill/fetch worker). SpillAsync/FetchAsync are the off-path
// entry points; when the queue is full they refuse and callers fall back to
// the synchronous path (SpillToDisk / ReadFromDisk).
#ifndef SRC_STORAGE_BLOCK_MANAGER_H_
#define SRC_STORAGE_BLOCK_MANAGER_H_

#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <vector>

#include "src/metrics/run_metrics.h"
#include "src/storage/disk_store.h"
#include "src/storage/memory_arbiter.h"
#include "src/storage/memory_store.h"
#include "src/storage/spill_queue.h"

namespace blaze {

struct BlockManagerConfig {
  uint64_t memory_capacity_bytes = 64ULL << 20;
  std::filesystem::path disk_dir;
  uint64_t disk_throughput_bytes_per_sec = 0;  // 0 = unthrottled
  size_t spill_queue_depth = 32;  // bounded; full queue falls back to sync
};

class BlockManager {
 public:
  BlockManager(size_t executor_id, const BlockManagerConfig& config, RunMetrics* metrics);
  ~BlockManager();

  size_t executor_id() const { return executor_id_; }
  MemoryStore& memory() { return memory_; }
  const MemoryStore& memory() const { return memory_; }
  DiskStore& disk() { return disk_; }
  const DiskStore& disk() const { return disk_; }
  MemoryArbiter& arbiter() { return arbiter_; }
  const MemoryArbiter& arbiter() const { return arbiter_; }

  // Serializes `data` and writes it to the disk store. Returns total
  // milliseconds spent (serialization + throttled write).
  double SpillToDisk(const BlockId& id, const BlockData& data, uint64_t* bytes_out = nullptr);

  // Hands the victim to the spill worker; the write happens off the task
  // path. Returns false — caller must SpillToDisk synchronously — when the
  // queue is full or the same id is mid-write.
  bool SpillAsync(const BlockId& id, BlockPtr data);

  // The in-memory payload of a spill that has not committed yet (write-claim
  // read-through): present from SpillAsync until the disk write lands.
  std::optional<BlockPtr> InFlightSpill(const BlockId& id) const;

  // Revokes a pending spill (unpersist racing an eviction). A spill already
  // mid-write has its file deleted right after the commit.
  bool CancelSpill(const BlockId& id);

  // Blocks until the spill worker is idle. Call before tearing down anything
  // a fetch callback may reference.
  void DrainSpills();

  // Schedules an asynchronous disk read on the spill worker (recovery /
  // promotion overlap). Returns false if the queue is full — caller reads
  // synchronously.
  bool FetchAsync(const BlockId& id, SpillQueue::FetchCallback on_loaded);

  // Depth of the spill/fetch queue right now (diagnostics).
  size_t SpillQueueDepth() const;

  // Blocks whose spill is claimed but neither committed nor cancelled.
  std::vector<BlockId> PendingSpills() const;

  // Payload bytes of spills claimed but not yet committed. Disk-budget
  // checks must count these as already on disk.
  uint64_t PendingSpillBytes() const;

  // Reads the encoded bytes of a spilled block; millis spent written to *ms.
  // A local miss consults the remote-read hook (distributed mode): a block
  // demoted inside a worker process serves its disk reads from there.
  std::optional<std::vector<uint8_t>> ReadFromDisk(const BlockId& id, double* ms);

  // Distributed-mode hooks, set while quiesced (engine construction).
  // remote_read: fetch the payload of a worker-held block after a local disk
  // miss. remote_remove: drop a worker's disk copy when the coordinator drops
  // the block from the disk tier.
  using RemoteReadFn =
      std::function<std::optional<std::vector<uint8_t>>(const BlockId&, double* ms)>;
  using RemoteRemoveFn = std::function<void(const BlockId&)>;
  void set_remote_hooks(RemoteReadFn read, RemoteRemoveFn remove) {
    remote_read_ = std::move(read);
    remote_remove_ = std::move(remove);
  }

  // Writes `data` to the disk tier: handed to the spill worker when it has
  // room, written synchronously otherwise, with the sync time and bytes
  // charged to `charge` (nullable). Skipped — returns false — when the block
  // is already on disk or its spill is still in flight.
  bool WriteToDisk(const BlockId& id, const BlockPtr& data, TaskMetrics* charge);

  // Evicts one memory-resident victim: when `to_disk`, writes it first
  // (WriteToDisk) so the in-flight read-through has no gap, then removes it
  // unless pinned. A refusal (pinned or gone since the victim was chosen)
  // cancels the queued write; a success records the eviction. Returns
  // whether the victim left memory.
  bool Evict(const MemoryEntry& victim, bool to_disk, TaskMetrics* charge);

  // Drops the block from memory and disk, revoking any pending spill first
  // so a late commit cannot resurrect it. Returns whether any tier held it.
  bool Drop(const BlockId& id);

  // Drops the disk copy, updating disk residency metrics.
  void RemoveFromDisk(const BlockId& id);

  RunMetrics* metrics() { return metrics_; }

 private:
  size_t executor_id_;
  MemoryArbiter arbiter_;
  MemoryStore memory_;
  DiskStore disk_;
  RunMetrics* metrics_;
  RemoteReadFn remote_read_;
  RemoteRemoveFn remote_remove_;
  std::unique_ptr<SpillQueue> spill_;  // constructed last, destroyed first
};

}  // namespace blaze

#endif  // SRC_STORAGE_BLOCK_MANAGER_H_
