// Per-task execution context: cache-aware block access, exclusive compute
// timing, recovery (recomputation) attribution, and metric accumulation.
#ifndef SRC_DATAFLOW_TASK_CONTEXT_H_
#define SRC_DATAFLOW_TASK_CONTEXT_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_set>
#include <vector>

#include "src/common/stopwatch.h"
#include "src/dataflow/rdd_base.h"
#include "src/metrics/run_metrics.h"
#include "src/storage/block.h"

namespace blaze {

class EngineContext;

class TaskContext {
 public:
  TaskContext(EngineContext* engine, int job_id, int stage_id, uint32_t partition,
              size_t executor_id, uint32_t tenant = 0xFFFFFFFFu);
  // Releases every block pin the task holds (see RegisterPin).
  ~TaskContext();

  TaskContext(const TaskContext&) = delete;
  TaskContext& operator=(const TaskContext&) = delete;

  // Fetches partition `index` of `rdd`: cache lookup first, recompute through
  // the lineage on miss. Every materialization is offered to the coordinator.
  BlockPtr GetBlock(const RddBase& rdd, uint32_t index);

  // Like GetBlock, but a cache hit served in a compact representation is
  // returned as-is (pinned, arbiter semantics unchanged) instead of being
  // recomposed into object rows — the entry point of the vectorized path and
  // of row-fold consumers that iterate via ForEachRow. Callers must handle
  // both representations: a miss recomputes and returns object rows.
  BlockPtr GetColumnarForTask(const RddBase& rdd, uint32_t index);

  // Reads all map-side buckets for (shuffle_id, reduce_partition). Missing
  // buckets are a checked error: the scheduler guarantees parent map stages ran.
  std::vector<BlockPtr> ReadShuffleBuckets(int shuffle_id, size_t num_map,
                                           uint32_t reduce_partition);

  // Like ReadShuffleBuckets, but regenerates lost map outputs through the
  // lineage of `shuffled`'s single shuffle dependency.
  std::vector<BlockPtr> ReadOrRebuildShuffleBuckets(const RddBase& shuffled,
                                                    uint32_t reduce_partition);

  // True if a fused chain must break at `rdd` and materialize it as a real
  // block: fusion disabled, user Cache()/Checkpoint() annotation, the active
  // coordinator marks it a caching candidate, or it has multiple consumers in
  // the running job. Stage terminals never reach this check — the scheduler
  // fetches them with GetBlock directly.
  bool IsFusionBarrier(const RddBase& rdd) const;

  // Accounting for one operator whose block materialization was elided.
  void OnOperatorFused(const RddBase&) { ++metrics_.fused_ops; }

  // Reads a cached partition through the executor's tiers: memory (pinned
  // for the task's lifetime), then a spill still in flight, then — when
  // `use_disk` — the disk tier. Records the hit and emits the cache.hit /
  // cache.miss trace events; nullopt on a miss.
  std::optional<BlockPtr> ReadCached(const RddBase& rdd, uint32_t partition, bool use_disk);

  // Decodes a payload read from outside this address space's memory (disk
  // tier, checkpoint store, worker process) and charges it to the task:
  // `io_ms` plus the decode time to cache_disk_ms, the bytes to
  // cache_disk_bytes_read.
  BlockPtr DecodeStored(const RddBase& rdd, const std::vector<uint8_t>& bytes, double io_ms);

  // Tenant whose ledger a cached copy of `rdd` is charged to: the dataset's
  // owner (first toucher; shared datasets are charged once), else this task's
  // tenant; kNoTenant outside multi-tenant mode.
  uint32_t CacheOwner(const RddBase& rdd) const;

  // Records that the coordinator pinned `id` in executor `executor`'s memory
  // store (GetAndPin) on this task's behalf; the destructor drops the pin, so
  // a block handed to an executing task stays eviction-proof exactly as long
  // as the task can still reference it.
  void RegisterPin(size_t executor, const BlockId& id);

  TaskMetrics& metrics() { return metrics_; }
  EngineContext* engine() { return engine_; }
  int job_id() const { return job_id_; }
  int stage_id() const { return stage_id_; }
  uint32_t partition() const { return partition_; }
  size_t executor_id() const { return executor_id_; }
  // Tenant the running job is attributed to (kNoTenant outside multi-tenant
  // mode): the requester identity victim scans check the eviction floor for.
  uint32_t tenant() const { return tenant_; }

 private:
  // Computes the block via rdd.Compute with exclusive timing (child compute
  // time subtracted), emits the BlockComputed offer, and returns the block.
  BlockPtr ComputeBlock(const RddBase& rdd, uint32_t index);

  // Shared body of GetBlock/GetColumnarForTask; keep_columnar skips the
  // row recomposition for compact cache hits.
  BlockPtr GetBlockImpl(const RddBase& rdd, uint32_t index, bool keep_columnar);

  // Tasks consume object rows: a cache hit served in a compact representation
  // (columnar) is recomposed here, on the read path, with the cost metered.
  BlockPtr MaterializeForTask(BlockPtr block);

  struct Frame {
    Stopwatch watch;
    double child_ms = 0.0;
  };

  EngineContext* engine_;
  int job_id_;
  int stage_id_;
  uint32_t partition_;
  size_t executor_id_;
  uint32_t tenant_;
  TaskMetrics metrics_;
  std::vector<std::pair<size_t, BlockId>> pins_;  // (executor, block) to unpin
  std::vector<Frame> frames_;
  int recovery_depth_ = 0;
  // Fan-out barrier snapshot for the task's job (see EngineContext).
  std::shared_ptr<const std::unordered_set<RddId>> fanout_barriers_;
};

}  // namespace blaze

#endif  // SRC_DATAFLOW_TASK_CONTEXT_H_
