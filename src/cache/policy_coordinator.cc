#include "src/cache/policy_coordinator.h"

#include <utility>

#include "src/dataflow/task_context.h"

namespace blaze {

PolicyCoordinator::PolicyCoordinator(EngineContext* engine,
                                     std::unique_ptr<EvictionPolicy> policy, EvictionMode mode)
    : engine_(engine), policy_(std::move(policy)), mode_(mode) {
  executor_mu_.reserve(engine->num_executors());
  for (size_t e = 0; e < engine->num_executors(); ++e) {
    executor_mu_.push_back(std::make_unique<std::mutex>());
  }
}

void PolicyCoordinator::OnJobStart(const JobInfo& job) {
  std::lock_guard<std::mutex> lock(digest_mu_);
  digest_.ref_count.clear();
  digest_.next_use_stage.clear();
  digest_.current_stage = 0;
  for (const JobRddInfo& info : job.rdds) {
    digest_.ref_count[info.rdd->id()] = info.num_dependents_in_job;
    if (info.first_consumer_stage >= 0) {
      digest_.next_use_stage[info.rdd->id()] = info.first_consumer_stage;
    }
  }
}

void PolicyCoordinator::OnStageStart(const StageInfo& stage) {
  {
    std::lock_guard<std::mutex> lock(digest_mu_);
    digest_.current_stage = stage.stage_index;
  }
  if (!policy_->WantsPrefetch()) {
    return;
  }
  // MRD prefetch: pull disk-resident blocks the imminent stage will reference
  // back into memory, overlapping with task execution (no evictions for this).
  DependencyDigest digest_copy;
  {
    std::lock_guard<std::mutex> lock(digest_mu_);
    digest_copy = digest_;
  }
  if (prefetcher_ == nullptr) {
    prefetcher_ = std::make_unique<ThreadPool>(1, "mrd-prefetch");
  }
  prefetcher_->Submit(
      [this, digest_copy = std::move(digest_copy)] { PrefetchSweep(digest_copy); });
}

void PolicyCoordinator::PrefetchSweep(DependencyDigest digest_copy) {
  for (size_t e = 0; e < engine_->num_executors(); ++e) {
    std::lock_guard<std::mutex> lock(*executor_mu_[e]);
    BlockManager& bm = engine_->block_manager(e);
    // Candidate ids: every block on this executor's disk store is tracked via
    // the registry of datasets touched in this job.
    for (const auto& [rdd_id, next_stage] : digest_copy.next_use_stage) {
      auto rdd = engine_->FindRdd(rdd_id);
      if (rdd == nullptr || !policy_->ShouldPrefetch(rdd_id, digest_copy)) {
        continue;
      }
      for (uint32_t p = 0; p < rdd->num_partitions(); ++p) {
        if (engine_->ExecutorFor(p) != e) {
          continue;
        }
        const BlockId id{rdd_id, p};
        if (bm.memory().Contains(id) || !bm.disk().Contains(id)) {
          continue;
        }
        double read_ms = 0.0;
        auto bytes = bm.ReadFromDisk(id, &read_ms);
        if (!bytes) {
          continue;
        }
        ByteSource src(*bytes);
        BlockPtr block = rdd->DecodeBlock(src);
        const uint64_t size = block->SizeBytes();
        if (size > bm.memory().free_bytes() ||
            !bm.memory().TryPut(id, std::move(block), size)) {
          break;  // no free room on this executor; stop prefetching here
        }
      }
    }
  }
}

void PolicyCoordinator::OnStageComplete(const StageInfo& stage) {
  std::lock_guard<std::mutex> lock(digest_mu_);
  digest_.current_stage = stage.stage_index + 1;
}

std::optional<BlockPtr> PolicyCoordinator::Lookup(const RddBase& rdd, uint32_t partition,
                                                  TaskContext& tc) {
  return tc.ReadCached(rdd, partition, mode_ == EvictionMode::kMemAndDisk);
}

bool PolicyCoordinator::EnsureSpace(size_t executor, uint64_t needed, RddId incoming_rdd,
                                    TaskContext& tc) {
  BlockManager& bm = engine_->block_manager(executor);
  const TenantRegistry* tenants = engine_->tenants();
  while (bm.memory().free_bytes() < needed) {
    // Pinned entries are not eviction candidates: an executing task still
    // references them, and the eviction would be refused anyway. In
    // multi-tenant mode the candidate set also honours the eviction floor
    // (another tenant's block is fair game only while that tenant is over its
    // arbiter share — a live-ledger check that stays consistent across loop
    // iterations because each eviction updates the ledger immediately), and
    // cross-tenant-hot blocks (referenced by several tenants) are offered to
    // the policy only when nothing else can satisfy the request.
    std::vector<MemoryEntry> candidates;
    std::vector<MemoryEntry> shared_hot;
    for (MemoryEntry& entry : bm.memory().Entries()) {
      if (entry.id.rdd_id == incoming_rdd || entry.pins > 0) {
        continue;
      }
      if (tenants != nullptr) {
        if (!tenants->MayEvict(tc.tenant(), entry.tenant, bm.arbiter())) {
          continue;
        }
        if (tenants->TenantsReferencing(entry.id.rdd_id) > 1) {
          shared_hot.push_back(std::move(entry));
          continue;
        }
      }
      candidates.push_back(std::move(entry));
    }
    if (candidates.empty()) {
      candidates = std::move(shared_hot);
    }
    if (candidates.empty()) {
      return false;
    }
    size_t victim_index = 0;
    {
      std::lock_guard<std::mutex> lock(digest_mu_);
      victim_index = policy_->SelectVictim(candidates, digest_);
    }
    const MemoryEntry& victim = candidates[victim_index];
    const bool to_disk = mode_ == EvictionMode::kMemAndDisk;
    if (!bm.Evict(victim, to_disk, &tc.metrics())) {
      continue;  // pinned since the snapshot: re-snapshot and pick another
    }
    engine_->audit().Evict(static_cast<uint32_t>(executor), victim.id.rdd_id,
                           victim.id.partition, victim.size_bytes, to_disk, policy_->name(),
                           "capacity_pressure",
                           static_cast<double>(victim.last_access_seq),
                           static_cast<uint32_t>(candidates.size()), victim.tenant);
  }
  return true;
}

void PolicyCoordinator::BlockComputed(const RddBase& rdd, uint32_t partition,
                                      const BlockPtr& block, double /*compute_ms*/,
                                      TaskContext& tc) {
  if (rdd.storage_level() == StorageLevel::kNone) {
    return;  // not annotated: transient data
  }
  const BlockId id{rdd.id(), partition};
  const size_t executor = engine_->ExecutorFor(partition);
  BlockManager& bm = engine_->block_manager(executor);
  std::lock_guard<std::mutex> lock(*executor_mu_[executor]);
  if (bm.memory().Contains(id)) {
    return;
  }
  // Representation selection: the cached copy may be converted (object rows
  // -> columnar) while the computing task keeps the row block it already
  // holds. Size, admission, and any disk write all use the cached form.
  const BlockPtr cached = rdd.CacheRepresentation(block);
  const uint64_t size = cached->SizeBytes();
  const uint32_t owner = tc.CacheOwner(rdd);
  // TryPut, not Put: with the arbiter attached the cache bound moves under
  // concurrent shuffle reservations, so the headroom EnsureSpace freed can
  // legitimately be gone by the time the insert lands.
  if (size <= bm.memory().effective_capacity_bytes() &&
      EnsureSpace(executor, size, rdd.id(), tc) &&
      bm.memory().TryPut(id, cached, size, owner)) {
    engine_->audit().Admit(static_cast<uint32_t>(executor), id.rdd_id, id.partition, size,
                           /*to_disk=*/false, policy_->name(), "annotated", owner);
    return;
  }
  // Not admitted (too large, or no victim outside this dataset):
  // MEM_AND_DISK stores it straight on disk.
  if (mode_ == EvictionMode::kMemAndDisk && bm.WriteToDisk(id, cached, &tc.metrics())) {
    engine_->metrics().RecordEviction(executor, size, /*to_disk=*/true);
    engine_->audit().Admit(static_cast<uint32_t>(executor), id.rdd_id, id.partition, size,
                           /*to_disk=*/true, policy_->name(), "exceeds_memory_capacity",
                           owner);
  }
}

bool PolicyCoordinator::IsManaged(const RddBase& rdd) const {
  return rdd.storage_level() != StorageLevel::kNone;
}

void PolicyCoordinator::UnpersistRdd(const RddBase& rdd) {
  const TenantRegistry* tenants = engine_->tenants();
  const uint32_t owner = tenants != nullptr ? tenants->OwnerOf(rdd.id()) : kNoTenant;
  for (uint32_t p = 0; p < rdd.num_partitions(); ++p) {
    const size_t executor = engine_->ExecutorFor(p);
    std::lock_guard<std::mutex> lock(*executor_mu_[executor]);
    if (engine_->block_manager(executor).Drop(BlockId{rdd.id(), p})) {
      engine_->audit().Unpersist(static_cast<uint32_t>(executor), rdd.id(), p,
                                 /*size_bytes=*/0, policy_->name(), "user_unpersist", owner);
    }
  }
}

}  // namespace blaze
