// EngineContext: the driver-side handle that owns the whole miniature
// cluster — executors (worker pools + block managers), the shuffle service,
// the DAG scheduler, the cache coordinator, and run metrics.
#ifndef SRC_DATAFLOW_ENGINE_CONTEXT_H_
#define SRC_DATAFLOW_ENGINE_CONTEXT_H_

#include <any>
#include <atomic>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/dataflow/cache_coordinator.h"
#include "src/dataflow/rdd_base.h"
#include "src/dataflow/shuffle.h"
#include "src/dataflow/tenant.h"
#include "src/metrics/audit_log.h"
#include "src/metrics/run_metrics.h"
#include "src/storage/block_manager.h"

namespace blaze {

class DagScheduler;
class JobHandle;
class MetricsExporter;

namespace net {
class RemoteExecutorSet;
}  // namespace net

struct EngineConfig {
  size_t num_executors = 4;
  size_t threads_per_executor = 2;
  uint64_t memory_capacity_per_executor = 64ULL << 20;
  uint64_t disk_throughput_bytes_per_sec = 0;  // 0 = unthrottled
  // Root for per-executor disk stores; empty = unique directory under /tmp.
  std::filesystem::path disk_root;
  // Shuffle outputs untouched for this many jobs are dropped at job end
  // (0 = retain for the whole run, like Spark's shuffle files while their
  // dependency is reachable). Dropped outputs are rebuilt through the lineage
  // on access — the aggressive-cleanup design ablation.
  int shuffle_retention_jobs = 0;
  // Fault injection: probability that a task attempt fails at launch
  // (deterministic per (job, stage, partition, attempt)); the scheduler
  // retries up to max_task_attempts, as Spark's TaskSetManager does.
  double task_failure_rate = 0.0;
  int max_task_attempts = 4;
  // Pipelined narrow-stage execution: chains of one-parent narrow transforms
  // stream rows through composed operators instead of materializing a block
  // per operator (off = the per-operator block behavior, kept as the
  // reference path for tests/mode_matrix_test.cc and for A/B benchmarking).
  bool enable_fusion = true;
  // Vectorized (batch-at-a-time) execution: fusable chains whose operators
  // all have columnar kernels run as tight per-column loops over ColumnBatch
  // views (selection vectors instead of row copies), reading cached columnar
  // blocks without row recomposition. Off = every chain takes the
  // row-at-a-time RowSink path and raw-copyable pair types stop being cached
  // columnar (their layout only pays off with kernels). Kept as the reference
  // path for tests/mode_matrix_test.cc and the vectorized CI floor; results
  // are identical either way.
  bool enable_vectorized = true;
  // Live telemetry (MetricsExporter): -1 = no HTTP endpoints (default),
  // 0 = bind an ephemeral loopback port, >0 = bind that port. /metrics serves
  // Prometheus text, /stats one-line JSON. Overridable at runtime with the
  // BLAZE_TELEMETRY_PORT env var (and BLAZE_TELEMETRY_JSONL for the stream).
  int telemetry_port = -1;
  uint32_t telemetry_interval_ms = 250;  // JSONL snapshot cadence
  // Append one JSON snapshot per interval to this path; empty = no stream.
  std::filesystem::path telemetry_jsonl;
  // --- distributed mode --------------------------------------------------------
  // Disaggregates the data plane into worker *processes*: cache-block and
  // shuffle-bucket payloads live in N blaze_worker children reached over a
  // length-prefixed, CRC-trailed TCP wire protocol, while the decision plane
  // (stage DAG, MCKP planning, arbiter ledgers, lineage) stays in this
  // process and sees only logical-size stubs. Off by default — the
  // in-process path is byte-identical and remains the fast path. The
  // BLAZE_WORKERS=N env var force-enables it with N workers.
  bool distributed = false;
  size_t num_workers = 0;            // 0 = one worker per executor
  int heartbeat_interval_ms = 250;
  int heartbeat_miss_limit = 4;      // consecutive misses before declaring loss
  std::string worker_binary;         // empty = discover next to the executable
  // --- multi-tenant service mode ------------------------------------------------
  // First-class tenants (see src/dataflow/tenant.h): admission control on
  // SubmitJobAs, per-tenant soft memory shares in the arbiter ledgers with a
  // hard eviction floor, tenant-partitioned MCKP planning, shared-dataset
  // refcounting across tenants, and tenant.<name>.* metrics. Off by default;
  // when off the single-tenant path stays byte-identical (no tenant state is
  // allocated, and data-path tenant checks reduce to one null test).
  bool multi_tenant = false;
  std::vector<TenantSpec> tenants;
};

class EngineContext {
 public:
  explicit EngineContext(const EngineConfig& config);
  ~EngineContext();

  EngineContext(const EngineContext&) = delete;
  EngineContext& operator=(const EngineContext&) = delete;

  const EngineConfig& config() const { return config_; }
  size_t num_executors() const { return executors_.size(); }
  size_t ExecutorFor(uint32_t partition) const { return partition % executors_.size(); }

  BlockManager& block_manager(size_t executor) { return executors_[executor]->block_manager; }
  ThreadPool& worker_pool(size_t executor) { return executors_[executor]->pool; }
  ShuffleService& shuffle() { return shuffle_; }
  // Reliable storage for RddBase::Checkpoint(); outside the cache tiers.
  DiskStore& checkpoint_store() { return *checkpoint_store_; }
  RunMetrics& metrics() { return metrics_; }
  // Structured record of every cache decision (evict/admit/unpersist/solve).
  CacheAuditLog& audit() { return audit_; }
  DagScheduler& scheduler() { return *scheduler_; }

  // Live-telemetry exporter, or nullptr when telemetry is off (the default).
  // When on, exporter()->port() is the bound /metrics listener port.
  MetricsExporter* exporter() { return exporter_.get(); }

  CacheCoordinator& coordinator() { return *coordinator_; }
  // Replaces the coordinator (default: annotation-following LRU). Must not be
  // called while a job is running.
  void SetCoordinator(std::unique_ptr<CacheCoordinator> coordinator);

  // --- dataset registry -----------------------------------------------------------
  RddId AllocateRddId() { return next_rdd_id_++; }
  void RegisterRdd(const std::shared_ptr<RddBase>& rdd);
  void UnregisterRdd(RddId id);
  std::shared_ptr<RddBase> FindRdd(RddId id) const;

  // --- fusion barriers --------------------------------------------------------------
  // RDD ids with >1 dependent in a running job (fan-out nodes): fusing through
  // them would recompute the shared chain once per consumer, so they always
  // materialize. Keyed by job id so concurrent jobs with different fan-out
  // nodes cannot clobber each other's fusion decisions: the scheduler installs
  // a job's set at submission and clears it at job end; tasks snapshot the
  // shared_ptr for their own job once at TaskContext construction.
  using FusionBarrierSet = std::unordered_set<RddId>;
  void SetJobFanoutBarriers(int job_id, std::shared_ptr<const FusionBarrierSet> barriers);
  std::shared_ptr<const FusionBarrierSet> job_fanout_barriers(int job_id) const;
  void ClearJobFanoutBarriers(int job_id);

  // --- recomputation attribution ---------------------------------------------------
  // A block's second materialization is a recovery (the recompute cost the
  // paper's Figs. 5/12 measure); the engine tracks first materializations here.
  bool WasComputedBefore(const BlockId& id) const;
  void MarkComputed(const BlockId& id);

  // Runs an action job: computes every partition of `target` and applies
  // `process` to each materialized block, returning per-partition results
  // (indexed by partition). Delegates to the DAG scheduler. Thread-safe: any
  // number of driver threads may run (or submit) jobs concurrently. With
  // raw_blocks, `process` receives terminal blocks in their cached
  // representation (columnar hits skip the row decode); only for consumers
  // that read representation-agnostically (NumRows, ForEachRow).
  std::vector<std::any> RunJob(const std::shared_ptr<RddBase>& target,
                               const std::function<std::any(const BlockPtr&)>& process,
                               bool raw_blocks = false);

  // Asynchronous variant: submits the job and returns a handle whose Wait()
  // yields the per-partition results (see dag_scheduler.h).
  JobHandle SubmitJob(const std::shared_ptr<RddBase>& target,
                      const std::function<std::any(const BlockPtr&)>& process,
                      bool raw_blocks = false);

  // --- multi-tenant service plane ---------------------------------------------------
  // The tenant registry, or nullptr outside multi-tenant mode.
  TenantRegistry* tenants() { return tenants_.get(); }
  const TenantRegistry* tenants() const { return tenants_.get(); }

  // Tenant-scoped submission: runs admission (per-tenant in-flight cap with a
  // bounded wait) before handing the job to the scheduler. On rejection the
  // returned handle is invalid and *reject_reason (when non-null) explains
  // why. Outside multi-tenant mode this is SubmitJob.
  JobHandle SubmitJobAs(TenantId tenant, const std::shared_ptr<RddBase>& target,
                        const std::function<std::any(const BlockPtr&)>& process,
                        bool raw_blocks = false, std::string* reject_reason = nullptr);

  // SubmitJobAs + Wait. Rejected jobs return an empty result vector.
  std::vector<std::any> RunJobAs(TenantId tenant, const std::shared_ptr<RddBase>& target,
                                 const std::function<std::any(const BlockPtr&)>& process,
                                 bool raw_blocks = false,
                                 std::string* reject_reason = nullptr);

  // Tenant-scoped unpersist: a dataset referenced by several tenants survives
  // a single tenant's release — the blocks drop only when the last
  // referencing tenant lets go (the deferral is audited). Outside
  // multi-tenant mode this is coordinator().UnpersistRdd().
  void UnpersistForTenant(const RddBase& rdd, TenantId tenant);

  // Total memory-store bytes currently cached across executors (diagnostics).
  uint64_t TotalMemoryUsed() const;

  // Blocks until every executor's spill worker is idle: pending eviction
  // writes committed, async fetches delivered. Used before coordinator
  // teardown/swap and by tests that assert on disk state.
  void DrainAllSpills();

  // --- distributed mode -------------------------------------------------------
  // True when payloads live in worker processes (config.distributed or
  // BLAZE_WORKERS in the environment).
  bool distributed() const { return remote_ != nullptr; }
  // The worker fleet proxy, or nullptr in in-process mode.
  net::RemoteExecutorSet* remote_executors() { return remote_.get(); }
  // Worker slot hosting the payloads of this executor's blocks.
  size_t WorkerSlotFor(size_t executor) const;
  // A stub fetch failed mid-task (the worker died between heartbeats): drop
  // the stub and mark the partition non-resident so the caller's recompute is
  // consistent. The monitor's full sweep follows when the loss is declared.
  void OnRemoteBlockLost(const BlockId& id, size_t slot);

 private:
  struct Executor {
    // Destruction order matters: the pool must drain before the stores die.
    BlockManager block_manager;
    ThreadPool pool;
    Executor(size_t id, const BlockManagerConfig& bm_config, RunMetrics* metrics,
             size_t threads)
        : block_manager(id, bm_config, metrics),
          pool(threads, "executor-" + std::to_string(id)) {}
  };

  // Spawns the worker fleet and installs the offload/read hooks on every
  // executor store and the shuffle service. Dies (BLAZE_CHECK) if a worker
  // does not come up — a half-distributed engine would silently lose data.
  void StartDistributed(size_t num_workers);
  // Monitor-thread callback after heartbeat loss / child death: drops every
  // stub of the slot, invalidates lineage, and sweeps the slot's buckets.
  void OnWorkerLost(size_t slot);
  // Offload hooks (see StartDistributed): encode the payload, ship it to the
  // slot, and return a logical-size stub; null = keep the block local.
  BlockPtr OffloadBlock(size_t slot, const BlockId& id, const BlockPtr& block,
                        uint64_t logical_bytes);
  BlockPtr OffloadBucket(int shuffle_id, uint32_t map_part, uint32_t reduce_part,
                         const BlockPtr& bucket);

  EngineConfig config_;
  RunMetrics metrics_;
  CacheAuditLog audit_;
  std::filesystem::path disk_root_;
  bool owns_disk_root_ = false;
  std::vector<std::unique_ptr<Executor>> executors_;
  std::unique_ptr<DiskStore> checkpoint_store_;
  ShuffleService shuffle_;
  std::unique_ptr<CacheCoordinator> coordinator_;
  // Tenant plane (multi_tenant only). Declared before the scheduler so job
  // completions draining in ~DagScheduler can still notify the registry.
  std::unique_ptr<TenantRegistry> tenants_;
  std::unique_ptr<DagScheduler> scheduler_;
  std::unique_ptr<MetricsExporter> exporter_;
  // Worker fleet (distributed mode only). shared_ptr: stub closures capture
  // it, so in-flight releases stay safe across engine teardown ordering.
  std::shared_ptr<net::RemoteExecutorSet> remote_;
  // Blocks demoted onto a worker's disk tier (id -> slot). Gates the
  // remote-read fallback so ordinary cold misses never pay a wire round-trip,
  // and lets worker loss invalidate disk-state lineage entries whose stubs
  // died at eviction time.
  mutable std::mutex remote_disk_mu_;
  std::unordered_map<BlockId, size_t, BlockIdHash> remote_disk_;
  // (name, token) of every callback gauge this engine registered with
  // MetricsRegistry::Global(); unregistered (token-checked, so a successor
  // engine's re-registrations survive) before the subsystems they read die.
  std::vector<std::pair<std::string, uint64_t>> gauge_tokens_;

  std::atomic<RddId> next_rdd_id_{0};
  mutable std::mutex registry_mu_;
  std::unordered_map<RddId, std::weak_ptr<RddBase>> registry_;

  mutable std::mutex computed_mu_;
  std::unordered_set<BlockId, BlockIdHash> computed_;

  mutable std::mutex fusion_mu_;
  std::unordered_map<int, std::shared_ptr<const FusionBarrierSet>> fanout_barriers_by_job_;
};

}  // namespace blaze

#endif  // SRC_DATAFLOW_ENGINE_CONTEXT_H_
