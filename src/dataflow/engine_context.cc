#include "src/dataflow/engine_context.h"

#include <algorithm>
#include <cstdlib>
#include <random>
#include <utility>

#include "src/common/block_arena.h"
#include "src/common/logging.h"
#include "src/common/stopwatch.h"
#include "src/dataflow/dag_scheduler.h"
#include "src/metrics/exporter.h"
#include "src/metrics/registry.h"
#include "src/net/remote_executor.h"
#include "src/storage/remote_block.h"

namespace blaze {

namespace {

// Default coordinator: caches nothing. Real deployments install the
// annotation-following policy coordinator (src/cache) or Blaze (src/blaze).
class NoopCoordinator : public CacheCoordinator {
 public:
  std::optional<BlockPtr> Lookup(const RddBase&, uint32_t, TaskContext&) override {
    return std::nullopt;
  }
  void BlockComputed(const RddBase&, uint32_t, const BlockPtr&, double, TaskContext&) override {}
  bool IsManaged(const RddBase&) const override { return false; }
  void UnpersistRdd(const RddBase&) override {}
};

std::filesystem::path MakeUniqueDiskRoot() {
  std::random_device rd;
  const auto tag = static_cast<uint64_t>(rd()) << 32 | rd();
  return std::filesystem::temp_directory_path() / ("blaze_engine_" + std::to_string(tag));
}

}  // namespace

EngineContext::EngineContext(const EngineConfig& config)
    : config_(config),
      metrics_(config.num_executors),
      audit_(config.num_executors) {
  BLAZE_CHECK_GT(config.num_executors, 0u);
  if (config.disk_root.empty()) {
    disk_root_ = MakeUniqueDiskRoot();
    owns_disk_root_ = true;
  } else {
    disk_root_ = config.disk_root;
  }
  executors_.reserve(config.num_executors);
  for (size_t e = 0; e < config.num_executors; ++e) {
    BlockManagerConfig bm_config;
    bm_config.memory_capacity_bytes = config.memory_capacity_per_executor;
    bm_config.disk_dir = disk_root_ / ("executor_" + std::to_string(e));
    bm_config.disk_throughput_bytes_per_sec = config.disk_throughput_bytes_per_sec;
    executors_.push_back(
        std::make_unique<Executor>(e, bm_config, &metrics_, config.threads_per_executor));
  }
  // One byte ledger per executor: shuffle buckets charge the arbiter of the
  // executor that wrote them, shrinking that executor's cache bound.
  std::vector<MemoryArbiter*> arbiters;
  arbiters.reserve(executors_.size());
  for (auto& executor : executors_) {
    arbiters.push_back(&executor->block_manager.arbiter());
  }
  shuffle_.AttachArbiters(std::move(arbiters));
  checkpoint_store_ = std::make_unique<DiskStore>(disk_root_ / "checkpoints",
                                                  config.disk_throughput_bytes_per_sec);
  coordinator_ = std::make_unique<NoopCoordinator>();
  if (config_.multi_tenant) {
    tenants_ = std::make_unique<TenantRegistry>(config_.tenants,
                                                config_.memory_capacity_per_executor,
                                                executors_.size());
    // Install the share split into every executor's arbiter ledger: the
    // per-tenant floors victim scans must respect live next to the byte
    // counters they are compared against.
    for (auto& executor : executors_) {
      executor->block_manager.arbiter().ConfigureTenantShares(
          tenants_->ShareBytesPerExecutor());
    }
  }
  scheduler_ = std::make_unique<DagScheduler>(this);

  // Distributed mode: explicit config, or forced via BLAZE_WORKERS=N (lets
  // any existing binary run coordinator/worker without a code change).
  bool distributed = config_.distributed;
  size_t num_workers = config_.num_workers;
  if (const char* env = std::getenv("BLAZE_WORKERS")) {
    const int n = std::atoi(env);
    if (n > 0) {
      distributed = true;
      num_workers = static_cast<size_t>(n);
    }
  }
  if (distributed) {
    StartDistributed(num_workers);
  }

  // Live-state gauges: each callback reads atomics its subsystem already
  // maintains, so the subsystems pay nothing per operation — the exporter (or
  // any Snapshot() caller) samples them. Registered after every subsystem
  // above is alive, unregistered in the destructor before any of them dies.
  MetricsRegistry& reg = MetricsRegistry::Global();
  const auto gauge = [&](const std::string& name, std::function<int64_t()> fn) {
    gauge_tokens_.emplace_back(name, reg.RegisterCallbackGauge(name, std::move(fn)));
  };
  // Most gauges sum one BlockManager reading over the executors.
  const auto summed = [&](const std::string& name, auto read) {
    gauge(name, [this, read] {
      int64_t total = 0;
      for (const auto& executor : executors_) {
        total += static_cast<int64_t>(read(executor->block_manager));
      }
      return total;
    });
  };
  summed("arbiter.cache_used_bytes",
         [](BlockManager& bm) { return bm.arbiter().cache_used_bytes(); });
  summed("arbiter.execution_used_bytes",
         [](BlockManager& bm) { return bm.arbiter().execution_used_bytes(); });
  gauge("arbiter.execution_peak_bytes", [this] {
    int64_t peak = 0;
    for (const auto& executor : executors_) {
      peak = std::max(
          peak,
          static_cast<int64_t>(executor->block_manager.arbiter().execution_peak_bytes()));
    }
    return peak;
  });
  summed("arbiter.overflow_events",
         [](BlockManager& bm) { return bm.arbiter().execution_overflow_events(); });
  summed("spill.queue_depth", [](BlockManager& bm) { return bm.SpillQueueDepth(); });
  summed("spill.pending_bytes", [](BlockManager& bm) { return bm.PendingSpillBytes(); });
  gauge("store.memory_used_bytes",
        [this] { return static_cast<int64_t>(TotalMemoryUsed()); });
  summed("store.pinned_blocks", [](BlockManager& bm) { return bm.memory().PinnedBlocks(); });
  gauge("shuffle.bytes_in_flight",
        [this] { return static_cast<int64_t>(shuffle_.approx_bytes()); });
  gauge("arena.live_bytes",
        [] { return static_cast<int64_t>(BlockArena::TotalLiveBytes()); });
  if (tenants_ != nullptr) {
    // tenant.<name>.* service-plane gauges: shares and live usage from the
    // arbiter ledgers, job states from the registry. (The hit/miss pair are
    // plain counters the registry owns; see TenantRegistry's constructor.)
    for (TenantId t = 0; t < tenants_->num_tenants(); ++t) {
      const std::string prefix = "tenant." + tenants_->spec(t).name + ".";
      summed(prefix + "share_bytes",
             [t](BlockManager& bm) { return bm.arbiter().TenantShareBytes(t); });
      summed(prefix + "used_bytes",
             [t](BlockManager& bm) { return bm.arbiter().TenantCacheUsed(t); });
      summed(prefix + "borrowed_bytes",
             [t](BlockManager& bm) { return bm.arbiter().TenantBorrowedBytes(t); });
      gauge(prefix + "jobs_running", [this, t] { return tenants_->RunningJobs(t); });
      gauge(prefix + "jobs_queued", [this, t] { return tenants_->QueuedJobs(t); });
      gauge(prefix + "jobs_completed", [this, t] {
        return static_cast<int64_t>(tenants_->Stats(t).jobs_completed);
      });
      gauge(prefix + "jobs_rejected", [this, t] {
        return static_cast<int64_t>(tenants_->Stats(t).jobs_rejected);
      });
    }
  }
  if (remote_ != nullptr) {
    // Wire-plane counters plus one gauge set per worker process, fed by each
    // worker's heartbeat-ack stats — `blazectl top` renders these as the
    // per-worker table.
    const auto counter = [&](const char* name, const std::atomic<uint64_t>* v) {
      gauge(name, [v] { return static_cast<int64_t>(v->load()); });
    };
    const auto& net_counters = remote_->counters();
    counter("net.block_puts", &net_counters.block_puts);
    counter("net.block_put_bytes", &net_counters.block_put_bytes);
    counter("net.block_fetches", &net_counters.block_fetches);
    counter("net.block_fetch_bytes", &net_counters.block_fetch_bytes);
    counter("net.bucket_puts", &net_counters.bucket_puts);
    counter("net.bucket_fetches", &net_counters.bucket_fetches);
    counter("net.tasks_launched", &net_counters.tasks_launched);
    counter("net.rpc_retries", &net_counters.rpc_retries);
    counter("net.rpc_failures", &net_counters.rpc_failures);
    counter("net.workers_lost", &net_counters.workers_lost);
    counter("net.worker_restarts", &net_counters.worker_restarts);
    for (size_t slot = 0; slot < remote_->num_workers(); ++slot) {
      const std::string prefix = "worker." + std::to_string(slot) + ".";
      gauge(prefix + "alive",
            [this, slot] { return remote_->WorkerAlive(slot) ? 1 : 0; });
      gauge(prefix + "live_bytes", [this, slot] {
        return static_cast<int64_t>(remote_->LastStats(slot).live_bytes);
      });
      gauge(prefix + "disk_bytes", [this, slot] {
        return static_cast<int64_t>(remote_->LastStats(slot).disk_bytes);
      });
      gauge(prefix + "blocks", [this, slot] {
        return static_cast<int64_t>(remote_->LastStats(slot).block_count);
      });
      gauge(prefix + "buckets", [this, slot] {
        return static_cast<int64_t>(remote_->LastStats(slot).bucket_count);
      });
      gauge(prefix + "pinned_blocks", [this, slot] {
        return static_cast<int64_t>(remote_->LastStats(slot).pinned_blocks);
      });
      gauge(prefix + "inflight_tasks", [this, slot] {
        return static_cast<int64_t>(remote_->LastStats(slot).inflight_tasks);
      });
      gauge(prefix + "tasks_executed", [this, slot] {
        return static_cast<int64_t>(remote_->LastStats(slot).tasks_executed);
      });
      gauge(prefix + "heartbeat_age_ms", [this, slot] {
        return static_cast<int64_t>(remote_->HeartbeatAgeMs(slot));
      });
    }
  }

  // Telemetry endpoints: off unless configured (or forced by env, which lets
  // any existing binary expose /metrics without a code change).
  ExporterOptions exporter_options;
  exporter_options.port = config_.telemetry_port;
  exporter_options.interval_ms = config_.telemetry_interval_ms;
  exporter_options.jsonl_path = config_.telemetry_jsonl.string();
  if (const char* env_port = std::getenv("BLAZE_TELEMETRY_PORT")) {
    exporter_options.port = std::atoi(env_port);
  }
  if (const char* env_jsonl = std::getenv("BLAZE_TELEMETRY_JSONL")) {
    exporter_options.jsonl_path = env_jsonl;
  }
  if (exporter_options.port >= 0 || !exporter_options.jsonl_path.empty()) {
    exporter_ = std::make_unique<MetricsExporter>(&MetricsRegistry::Global(),
                                                  std::move(exporter_options));
  }
}

EngineContext::~EngineContext() {
  // The exporter goes first (it snapshots the registry, whose callback gauges
  // read live subsystem state), then the gauges themselves come out — after
  // this, nothing samples the subsystems being torn down below. Token-checked:
  // if a newer engine re-registered a name, its callback stays.
  exporter_.reset();
  for (const auto& [name, token] : gauge_tokens_) {
    MetricsRegistry::Global().UnregisterCallbackGauge(name, token);
  }
  // Quiesce the scheduler and coordinator first: the coordinator's dtor joins
  // its async prefetch pool, whose in-flight sweeps read executor state.
  scheduler_.reset();
  // Async fetch callbacks reference the coordinator; they must all have fired
  // before the coordinator dies.
  DrainAllSpills();
  // Distributed teardown: stop the monitor first (OnWorkerLost must never
  // fire into a half-destroyed engine), and flag teardown so the stub
  // destructors below skip their per-block release RPCs — the whole fleet is
  // going away with every payload in it.
  if (remote_ != nullptr) {
    remote_->BeginTeardown();
    remote_->Shutdown();
  }
  coordinator_.reset();
  // Shuffle buckets still hold arbiter charges; the arbiters die with the
  // executors below, so cut the ledger hookup first.
  shuffle_.DetachArbiters();
  executors_.clear();  // drains pools and removes per-executor disk dirs
  if (owns_disk_root_) {
    std::error_code ec;
    std::filesystem::remove_all(disk_root_, ec);
  }
}

void EngineContext::SetCoordinator(std::unique_ptr<CacheCoordinator> coordinator) {
  BLAZE_CHECK(coordinator != nullptr);
  // In-flight async fetches deliver to the outgoing coordinator's callbacks.
  DrainAllSpills();
  coordinator_ = std::move(coordinator);
}

void EngineContext::DrainAllSpills() {
  for (auto& executor : executors_) {
    executor->block_manager.DrainSpills();
  }
}

size_t EngineContext::WorkerSlotFor(size_t executor) const {
  return remote_ == nullptr ? 0 : executor % remote_->num_workers();
}

void EngineContext::StartDistributed(size_t num_workers) {
  net::RemoteExecutorConfig rc;
  rc.num_workers = num_workers == 0 ? executors_.size() : num_workers;
  rc.worker_memory_bytes = config_.memory_capacity_per_executor;
  rc.disk_throughput_bytes_per_sec = config_.disk_throughput_bytes_per_sec;
  rc.worker_binary = config_.worker_binary;
  rc.heartbeat_interval_ms = config_.heartbeat_interval_ms;
  rc.heartbeat_miss_limit = config_.heartbeat_miss_limit;
  remote_ = std::make_shared<net::RemoteExecutorSet>(rc);
  remote_->set_on_worker_lost([this](size_t slot) { OnWorkerLost(slot); });
  std::string error;
  BLAZE_CHECK(remote_->Start(&error))
      << "distributed mode failed to start: " << error;
  BLAZE_LOG(kInfo) << "distributed mode: " << rc.num_workers
                   << " worker process(es) up";

  // Hook the data plane. The closures capture the shared_ptr so a stub that
  // outlives an engine-teardown phase still has a live (if torn-down) fleet
  // object to talk to.
  auto remote = remote_;
  for (size_t e = 0; e < executors_.size(); ++e) {
    const size_t slot = WorkerSlotFor(e);
    BlockManager& bm = executors_[e]->block_manager;
    bm.memory().set_offload_hook(
        [this, slot](const BlockId& id, const BlockPtr& block, uint64_t logical_bytes) {
          return OffloadBlock(slot, id, block, logical_bytes);
        });
    bm.set_remote_hooks(
        [this, remote, slot](const BlockId& id,
                             double* ms) -> std::optional<std::vector<uint8_t>> {
          // Local disk miss: only worth a round-trip if the block was demoted
          // inside this slot's worker (ordinary cold misses stay wire-free).
          {
            std::lock_guard<std::mutex> lock(remote_disk_mu_);
            auto it = remote_disk_.find(id);
            if (it == remote_disk_.end() || it->second != slot) {
              return std::nullopt;
            }
          }
          Stopwatch watch;
          std::vector<uint8_t> payload;
          if (!remote->GetBlock(slot, id, &payload)) {
            return std::nullopt;
          }
          if (ms != nullptr) {
            *ms = watch.ElapsedMillis();
          }
          return payload;
        },
        [this, remote, slot](const BlockId& id) {
          {
            std::lock_guard<std::mutex> lock(remote_disk_mu_);
            if (remote_disk_.erase(id) == 0) {
              return;  // nothing of this block on the worker's disk
            }
          }
          remote->ReleaseBlock(slot, id, /*incarnation=*/0,
                               /*include_memory=*/false, /*include_disk=*/true);
        });
  }
  shuffle_.SetRemoteBucketHook(
      [this](int shuffle_id, uint32_t map_part, uint32_t reduce_part,
             const BlockPtr& bucket) {
        return OffloadBucket(shuffle_id, map_part, reduce_part, bucket);
      });
}

BlockPtr EngineContext::OffloadBlock(size_t slot, const BlockId& id,
                                     const BlockPtr& block, uint64_t logical_bytes) {
  // The Alluxio-style raw-byte tier (kEncoded) models an external store and
  // stays local; stubs are never re-offloaded.
  if (block->representation() == BlockRepresentation::kEncoded ||
      dynamic_cast<const RemoteBlockStub*>(block.get()) != nullptr) {
    return nullptr;
  }
  ByteSink sink;
  block->EncodeTo(sink);
  const uint64_t incarnation = remote_->NextIncarnation();
  const size_t rows = block->NumRows();
  const BlockRepresentation rep = block->representation();
  if (!remote_->PutBlock(slot, id, incarnation, logical_bytes, sink.TakeData())) {
    return nullptr;  // worker unreachable: keep the block local (degraded mode)
  }
  {
    // A fresh incarnation supersedes whatever earlier demotion left on the
    // worker's disk (the worker clears its disk copy on put).
    std::lock_guard<std::mutex> lock(remote_disk_mu_);
    remote_disk_.erase(id);
  }
  auto remote = remote_;
  return std::make_shared<RemoteBlockStub>(
      id, slot, incarnation, logical_bytes, rows, rep,
      /*fetch=*/
      [remote, slot, id](double* ms) -> std::optional<std::vector<uint8_t>> {
        Stopwatch watch;
        std::vector<uint8_t> payload;
        if (!remote->GetBlock(slot, id, &payload)) {
          return std::nullopt;
        }
        if (ms != nullptr) {
          *ms = watch.ElapsedMillis();
        }
        return payload;
      },
      /*demote=*/
      [this, remote, slot, id]() {
        ByteSink args;
        args.WritePod<uint32_t>(id.rdd_id);
        args.WritePod<uint32_t>(id.partition);
        net::TaskResultMsg result;
        if (!remote->RunTask(slot, "demote_block", args.TakeData(), &result) ||
            !result.ok) {
          return false;
        }
        std::lock_guard<std::mutex> lock(remote_disk_mu_);
        remote_disk_[id] = slot;
        return true;
      },
      /*release=*/
      [remote, slot, id, incarnation]() {
        remote->ReleaseBlock(slot, id, incarnation, /*include_memory=*/true,
                             /*include_disk=*/false);
      });
}

BlockPtr EngineContext::OffloadBucket(int shuffle_id, uint32_t map_part,
                                      uint32_t reduce_part, const BlockPtr& bucket) {
  const size_t slot = WorkerSlotFor(ExecutorFor(map_part));
  ByteSink sink;
  bucket->EncodeTo(sink);
  const uint64_t incarnation = remote_->NextIncarnation();
  if (!remote_->PutBucket(slot, shuffle_id, map_part, reduce_part, incarnation,
                          sink.TakeData())) {
    return nullptr;  // keep the bucket local
  }
  auto remote = remote_;
  // The stub's BlockId is only a diagnostic label; buckets are addressed by
  // (shuffle, map, reduce) on the wire.
  const BlockId label{static_cast<uint32_t>(shuffle_id), reduce_part};
  return std::make_shared<RemoteBlockStub>(
      label, slot, incarnation, bucket->SizeBytes(), bucket->NumRows(),
      bucket->representation(),
      /*fetch=*/
      [remote, slot, shuffle_id, map_part,
       reduce_part](double* ms) -> std::optional<std::vector<uint8_t>> {
        Stopwatch watch;
        std::vector<uint8_t> payload;
        if (!remote->FetchBucket(slot, shuffle_id, map_part, reduce_part, &payload)) {
          return std::nullopt;
        }
        if (ms != nullptr) {
          *ms = watch.ElapsedMillis();
        }
        return payload;
      },
      /*demote=*/nullptr,  // buckets never take the spill path
      /*release=*/
      [remote, slot, shuffle_id, map_part, reduce_part, incarnation]() {
        remote->ReleaseBucket(slot, shuffle_id, map_part, reduce_part, incarnation);
      });
}

void EngineContext::OnWorkerLost(size_t slot) {
  // Monitor-thread callback: every payload the slot held is gone. Drop the
  // stubs (their releases fail fast against the marked-down client), collect
  // the ids, and hand them to the coordinator so lineage marks them
  // non-resident; reduce-side bucket losses rebuild lazily through
  // ReadOrRebuildShuffleBuckets.
  std::vector<BlockId> lost;
  for (size_t e = 0; e < executors_.size(); ++e) {
    if (WorkerSlotFor(e) != slot) {
      continue;
    }
    BlockManager& bm = executors_[e]->block_manager;
    for (const MemoryEntry& entry : bm.memory().Entries()) {
      const auto* stub = dynamic_cast<const RemoteBlockStub*>(entry.data.get());
      if (stub != nullptr && stub->slot() == slot) {
        bm.CancelSpill(entry.id);
        bm.memory().Remove(entry.id);
        lost.push_back(entry.id);
      }
    }
  }
  {
    // Blocks demoted onto the dead worker's disk have no stub anywhere —
    // their lineage state says "disk" and must be invalidated here too.
    std::lock_guard<std::mutex> lock(remote_disk_mu_);
    for (auto it = remote_disk_.begin(); it != remote_disk_.end();) {
      if (it->second == slot) {
        lost.push_back(it->first);
        it = remote_disk_.erase(it);
      } else {
        ++it;
      }
    }
  }
  if (!lost.empty()) {
    coordinator_->OnBlocksLost(lost);
  }
  const size_t buckets_dropped = shuffle_.DropExecutorBuckets(slot);
  BLAZE_LOG(kWarn) << "worker slot " << slot << " lost: invalidated "
                   << lost.size() << " block(s), dropped " << buckets_dropped
                   << " shuffle bucket(s); lineage will recompute";
}

void EngineContext::OnRemoteBlockLost(const BlockId& id, size_t slot) {
  for (size_t e = 0; e < executors_.size(); ++e) {
    if (WorkerSlotFor(e) != slot) {
      continue;
    }
    BlockManager& bm = executors_[e]->block_manager;
    bm.CancelSpill(id);
    bm.memory().Remove(id);
  }
  {
    std::lock_guard<std::mutex> lock(remote_disk_mu_);
    remote_disk_.erase(id);
  }
  coordinator_->OnBlocksLost({id});
}

void EngineContext::RegisterRdd(const std::shared_ptr<RddBase>& rdd) {
  std::lock_guard<std::mutex> lock(registry_mu_);
  registry_[rdd->id()] = rdd;
}

void EngineContext::UnregisterRdd(RddId id) {
  std::lock_guard<std::mutex> lock(registry_mu_);
  registry_.erase(id);
}

std::shared_ptr<RddBase> EngineContext::FindRdd(RddId id) const {
  std::lock_guard<std::mutex> lock(registry_mu_);
  auto it = registry_.find(id);
  return it == registry_.end() ? nullptr : it->second.lock();
}

void EngineContext::SetJobFanoutBarriers(int job_id,
                                         std::shared_ptr<const FusionBarrierSet> barriers) {
  std::lock_guard<std::mutex> lock(fusion_mu_);
  fanout_barriers_by_job_[job_id] = std::move(barriers);
}

std::shared_ptr<const EngineContext::FusionBarrierSet> EngineContext::job_fanout_barriers(
    int job_id) const {
  std::lock_guard<std::mutex> lock(fusion_mu_);
  auto it = fanout_barriers_by_job_.find(job_id);
  return it == fanout_barriers_by_job_.end() ? nullptr : it->second;
}

void EngineContext::ClearJobFanoutBarriers(int job_id) {
  std::lock_guard<std::mutex> lock(fusion_mu_);
  fanout_barriers_by_job_.erase(job_id);
}

bool EngineContext::WasComputedBefore(const BlockId& id) const {
  std::lock_guard<std::mutex> lock(computed_mu_);
  return computed_.contains(id);
}

void EngineContext::MarkComputed(const BlockId& id) {
  std::lock_guard<std::mutex> lock(computed_mu_);
  computed_.insert(id);
}

std::vector<std::any> EngineContext::RunJob(
    const std::shared_ptr<RddBase>& target,
    const std::function<std::any(const BlockPtr&)>& process, bool raw_blocks) {
  return scheduler_->RunJob(target, process, raw_blocks);
}

JobHandle EngineContext::SubmitJob(const std::shared_ptr<RddBase>& target,
                                   const std::function<std::any(const BlockPtr&)>& process,
                                   bool raw_blocks) {
  return scheduler_->SubmitJob(target, process, raw_blocks);
}

JobHandle EngineContext::SubmitJobAs(TenantId tenant,
                                     const std::shared_ptr<RddBase>& target,
                                     const std::function<std::any(const BlockPtr&)>& process,
                                     bool raw_blocks, std::string* reject_reason) {
  if (tenants_ == nullptr || tenant == kNoTenant) {
    return scheduler_->SubmitJob(target, process, raw_blocks);
  }
  const TenantRegistry::Admission admission = tenants_->AcquireJobSlot(tenant);
  if (!admission.admitted) {
    if (reject_reason != nullptr) {
      *reject_reason = admission.reason;
    }
    return JobHandle();
  }
  return scheduler_->SubmitJob(target, process, raw_blocks, tenant,
                               /*tenant_slot_held=*/true);
}

std::vector<std::any> EngineContext::RunJobAs(
    TenantId tenant, const std::shared_ptr<RddBase>& target,
    const std::function<std::any(const BlockPtr&)>& process, bool raw_blocks,
    std::string* reject_reason) {
  JobHandle handle = SubmitJobAs(tenant, target, process, raw_blocks, reject_reason);
  if (!handle.valid()) {
    return {};
  }
  return handle.Wait();
}

void EngineContext::UnpersistForTenant(const RddBase& rdd, TenantId tenant) {
  if (tenants_ != nullptr && tenant != kNoTenant &&
      !tenants_->ReleaseDataset(tenant, rdd.id())) {
    // Other tenants still reference the dataset: the blocks survive (the
    // shared-dataset refcount is exactly what keeps a cross-tenant-hot block
    // alive past one tenant's release). Audited so the deferral is visible.
    audit_.Unpersist(/*executor=*/0, rdd.id(), /*partition=*/0, /*size_bytes=*/0,
                     "Tenant", "deferred_shared_refcount", tenant);
    return;
  }
  coordinator_->UnpersistRdd(rdd);
}

uint64_t EngineContext::TotalMemoryUsed() const {
  uint64_t total = 0;
  for (const auto& executor : executors_) {
    total += executor->block_manager.memory().used_bytes();
  }
  return total;
}

}  // namespace blaze
