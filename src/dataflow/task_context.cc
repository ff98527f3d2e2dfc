#include "src/dataflow/task_context.h"

#include "src/common/logging.h"
#include "src/common/trace.h"
#include "src/dataflow/engine_context.h"
#include "src/storage/remote_block.h"

namespace blaze {

TaskContext::TaskContext(EngineContext* engine, int job_id, int stage_id, uint32_t partition,
                         size_t executor_id, uint32_t tenant)
    : engine_(engine),
      job_id_(job_id),
      stage_id_(stage_id),
      partition_(partition),
      executor_id_(executor_id),
      tenant_(tenant),
      fanout_barriers_(engine->job_fanout_barriers(job_id)) {}

TaskContext::~TaskContext() {
  for (const auto& [executor, id] : pins_) {
    engine_->block_manager(executor).memory().Unpin(id);
  }
}

void TaskContext::RegisterPin(size_t executor, const BlockId& id) {
  pins_.emplace_back(executor, id);
}

std::optional<BlockPtr> TaskContext::ReadCached(const RddBase& rdd, uint32_t partition,
                                                bool use_disk) {
  const BlockId id{rdd.id(), partition};
  const size_t executor = engine_->ExecutorFor(partition);
  BlockManager& bm = engine_->block_manager(executor);
  const auto hit = [&](bool from_memory, const char* tier) {
    engine_->metrics().RecordCacheHit(from_memory);
    TRACE_EVENT("cache.hit", "cache", trace::TArg("rdd", id.rdd_id),
                trace::TArg("part", id.partition), trace::TArg("tier", tier));
  };
  if (auto block = bm.memory().GetAndPin(id)) {
    // Pinned for the task's lifetime: eviction cannot free this data while
    // the task still references it.
    RegisterPin(executor, id);
    hit(/*from_memory=*/true, "memory");
    return block;
  }
  // Evicted but not yet committed to disk: the spill queue's write-claim still
  // holds the live payload — serve it instead of waiting for (or re-reading)
  // the disk write.
  if (auto block = bm.InFlightSpill(id)) {
    hit(/*from_memory=*/true, "spill_queue");
    return block;
  }
  if (use_disk) {
    double read_ms = 0.0;
    if (auto bytes = bm.ReadFromDisk(id, &read_ms)) {
      BlockPtr block = DecodeStored(rdd, *bytes, read_ms);
      hit(/*from_memory=*/false, "disk");
      return block;
    }
  }
  TRACE_EVENT("cache.miss", "cache", trace::TArg("rdd", id.rdd_id),
              trace::TArg("part", id.partition));
  return std::nullopt;
}

BlockPtr TaskContext::DecodeStored(const RddBase& rdd, const std::vector<uint8_t>& bytes,
                                   double io_ms) {
  Stopwatch decode_watch;
  ByteSource src(bytes);
  BlockPtr block = rdd.DecodeBlock(src);
  metrics_.cache_disk_ms += io_ms + decode_watch.ElapsedMillis();
  metrics_.cache_disk_bytes_read += bytes.size();
  return block;
}

uint32_t TaskContext::CacheOwner(const RddBase& rdd) const {
  const TenantRegistry* tenants = engine_->tenants();
  if (tenants == nullptr) {
    return kNoTenant;
  }
  const uint32_t owner = tenants->OwnerOf(rdd.id());
  return owner != kNoTenant ? owner : tenant_;
}

bool TaskContext::IsFusionBarrier(const RddBase& rdd) const {
  if (!engine_->config().enable_fusion) {
    return true;
  }
  if (rdd.storage_level() != StorageLevel::kNone || rdd.is_checkpointed()) {
    return true;
  }
  if (fanout_barriers_ != nullptr && fanout_barriers_->contains(rdd.id())) {
    return true;
  }
  return engine_->coordinator().IsCacheCandidate(rdd);
}

BlockPtr TaskContext::MaterializeForTask(BlockPtr block) {
  if (block->representation() == BlockRepresentation::kObjectRows) {
    return block;
  }
  Stopwatch watch;
  BlockPtr rows = block->MaterializeRows();
  BLAZE_CHECK(rows != nullptr) << "compact block cannot materialize rows";
  engine_->metrics().RecordColumnarDecode(watch.ElapsedMillis());
  return rows;
}

BlockPtr TaskContext::GetBlock(const RddBase& rdd, uint32_t index) {
  return GetBlockImpl(rdd, index, /*keep_columnar=*/false);
}

BlockPtr TaskContext::GetColumnarForTask(const RddBase& rdd, uint32_t index) {
  return GetBlockImpl(rdd, index, /*keep_columnar=*/true);
}

BlockPtr TaskContext::GetBlockImpl(const RddBase& rdd, uint32_t index, bool keep_columnar) {
  // A compact hit handed straight to a columnar-capable consumer skips the
  // row recomposition entirely — the materialization the vectorized path
  // exists to avoid. Pin/arbiter semantics are identical either way.
  const auto serve = [&](BlockPtr block) -> BlockPtr {
    if (keep_columnar && block->representation() == BlockRepresentation::kColumnar) {
      ++metrics_.materializations_avoided;
      return block;
    }
    return MaterializeForTask(std::move(block));
  };

  // Per-tenant hit/miss attribution (mirrors the engine-wide cache hit/miss
  // accounting): only recorded in multi-tenant mode for tenanted tasks.
  const auto record_tenant_lookup = [&](bool hit) {
    if (tenant_ != kNoTenant) {
      if (auto* tr = engine_->tenants(); tr != nullptr) {
        tr->RecordLookup(tenant_, hit);
      }
    }
  };

  CacheCoordinator& coordinator = engine_->coordinator();
  if (auto hit = coordinator.Lookup(rdd, index, *this)) {
    const auto* stub = dynamic_cast<const RemoteBlockStub*>(hit->get());
    if (stub == nullptr) {
      record_tenant_lookup(/*hit=*/true);
      return serve(std::move(*hit));
    }
    // Distributed mode: the payload lives in a worker process. Pull it over
    // the wire and decode; the fetch+decode time is charged like a disk-tier
    // hit (it is the same "resident but not in this address space" cost the
    // recovery accounting compares recomputation against).
    double fetch_ms = 0;
    if (auto bytes = stub->Fetch(&fetch_ms)) {
      BlockPtr block = DecodeStored(rdd, *bytes, fetch_ms);
      record_tenant_lookup(/*hit=*/true);
      return serve(std::move(block));
    }
    // The worker died with the payload. Bring the control plane into
    // agreement (drop the stub, mark the partition non-resident) and fall
    // through to lineage recomputation — the timed recovery path below.
    engine_->OnRemoteBlockLost(BlockId{rdd.id(), index}, stub->slot());
  }

  const BlockId block_id{rdd.id(), index};

  // Checkpointed datasets recover from reliable storage; the lineage walk
  // stops here (Spark's checkpoint truncation).
  if (rdd.is_checkpointed()) {
    DiskOpResult op;
    if (auto bytes = engine_->checkpoint_store().Get(block_id, &op)) {
      BlockPtr block = DecodeStored(rdd, *bytes, op.elapsed_ms);
      engine_->metrics().RecordCacheHit(/*from_memory=*/false);
      record_tenant_lookup(/*hit=*/true);
      return serve(std::move(block));
    }
  }
  // A re-materialization of a coordinator-managed block is a *recovery*: the
  // recursive compute below is the paper's recomputation cost. Only the
  // outermost recovery is timed to avoid double counting nested misses.
  const bool recovery =
      coordinator.IsManaged(rdd) && engine_->WasComputedBefore(block_id);
  if (recovery) {
    record_tenant_lookup(/*hit=*/false);
  }
  Stopwatch recovery_watch;
  const uint64_t recovery_start_us =
      recovery && trace::Enabled() ? ProcessMicros() : 0;
  if (recovery) {
    ++recovery_depth_;
  }

  BlockPtr block = ComputeBlock(rdd, index);

  if (recovery) {
    --recovery_depth_;
    if (recovery_depth_ == 0) {
      const double ms = recovery_watch.ElapsedMillis();
      metrics_.recompute_ms += ms;
      engine_->metrics().RecordRecompute(job_id_, ms);
      engine_->metrics().RecordCacheMiss();
      if (recovery_start_us != 0 && trace::Enabled()) {
        trace::Complete("task.recompute", "storage", recovery_start_us,
                        trace::TArg("rdd", rdd.id()), trace::TArg("part", index));
      }
    }
  }
  return block;
}

BlockPtr TaskContext::ComputeBlock(const RddBase& rdd, uint32_t index) {
  frames_.push_back(Frame{});
  const uint64_t fused_before = metrics_.fused_ops;
  const uint64_t vec_batches_before = metrics_.vectorized_batches;
  const uint64_t vec_rows_before = metrics_.rows_vectorized;
  const uint64_t start_us = trace::Enabled() ? ProcessMicros() : 0;
  BlockPtr block = rdd.Compute(index, *this);
  const Frame& frame = frames_.back();
  const double total_ms = frame.watch.ElapsedMillis();
  const double exclusive_ms = total_ms - frame.child_ms;
  frames_.pop_back();
  if (!frames_.empty()) {
    frames_.back().child_ms += total_ms;
  }
  BLAZE_CHECK(block != nullptr) << "Compute returned null for " << rdd.name();

  ++metrics_.blocks_computed;
  // Attribute the whole pipelined chain to the block that materialized it:
  // the fused operators never get their own compute spans.
  const uint64_t fused_in_chain = metrics_.fused_ops - fused_before;
  if (fused_in_chain > 0 && start_us != 0 && trace::Enabled()) {
    trace::Complete("task.fused_chain", "sched", start_us, trace::TArg("rdd", rdd.id()),
                    trace::TArg("part", index), trace::TArg("fused_ops", fused_in_chain));
  }
  const uint64_t vec_batches = metrics_.vectorized_batches - vec_batches_before;
  if (vec_batches > 0 && start_us != 0 && trace::Enabled()) {
    trace::Complete("task.vectorized_chain", "sched", start_us, trace::TArg("rdd", rdd.id()),
                    trace::TArg("part", index), trace::TArg("batches", vec_batches),
                    trace::TArg("rows", metrics_.rows_vectorized - vec_rows_before));
  }

  engine_->MarkComputed(BlockId{rdd.id(), index});
  engine_->coordinator().BlockComputed(rdd, index, block, exclusive_ms, *this);
  return block;
}

std::vector<BlockPtr> TaskContext::ReadShuffleBuckets(int shuffle_id, size_t num_map,
                                                      uint32_t reduce_partition) {
  const uint64_t fetch_start_us = trace::Enabled() ? ProcessMicros() : 0;
  std::vector<BlockPtr> buckets;
  buckets.reserve(num_map);
  uint64_t fetched_bytes = 0;
  for (uint32_t m = 0; m < num_map; ++m) {
    BlockPtr bucket = engine_->shuffle().GetBucket(shuffle_id, m, reduce_partition);
    BLAZE_CHECK(bucket != nullptr)
        << "missing shuffle output: shuffle " << shuffle_id << " map " << m << " reduce "
        << reduce_partition;
    fetched_bytes += bucket->SizeBytes();
    buckets.push_back(std::move(bucket));
  }
  if (fetch_start_us != 0 && trace::Enabled()) {
    trace::Complete("shuffle.fetch", "shuffle", fetch_start_us,
                    trace::TArg("shuffle", shuffle_id),
                    trace::TArg("reduce", reduce_partition),
                    trace::TArg("maps", static_cast<uint64_t>(num_map)),
                    trace::TArg("bytes", fetched_bytes));
  }
  return buckets;
}

std::vector<BlockPtr> TaskContext::ReadOrRebuildShuffleBuckets(const RddBase& shuffled,
                                                               uint32_t reduce_partition) {
  BLAZE_CHECK_EQ(shuffled.dependencies().size(), 1u);
  const Dependency& dep = shuffled.dependencies()[0];
  BLAZE_CHECK(dep.is_shuffle);
  const size_t num_map = dep.parent->num_partitions();
  const uint64_t fetch_start_us = trace::Enabled() ? ProcessMicros() : 0;
  std::vector<BlockPtr> buckets;
  buckets.reserve(num_map);
  uint64_t fetched_bytes = 0;
  for (uint32_t m = 0; m < num_map; ++m) {
    BlockPtr bucket = engine_->shuffle().GetBucket(dep.shuffle_id, m, reduce_partition);
    if (const auto* stub = dynamic_cast<const RemoteBlockStub*>(bucket.get())) {
      // Worker-held bucket payload: fetch and decode with the map side's
      // codec (buckets hold rows of the parent's type). A failed fetch means
      // the worker died — treat it exactly like a cleaned shuffle output and
      // rebuild through the lineage below; the re-registered buckets replace
      // every stale stub of this map partition.
      double fetch_ms = 0;
      if (auto bytes = stub->Fetch(&fetch_ms)) {
        bucket = DecodeStored(*dep.parent, *bytes, fetch_ms);
      } else {
        bucket = nullptr;
      }
    }
    if (bucket == nullptr) {
      // Map output lost (shuffle cleaned): re-run this map partition through
      // the lineage and re-register all of its buckets — Spark's recursive
      // recovery for a missing shuffle output.
      const BlockPtr parent_block = GetBlock(*dep.parent, m);
      std::vector<BlockPtr> rebuilt = dep.bucketizer(parent_block, dep.num_reduce);
      BLAZE_CHECK_EQ(rebuilt.size(), dep.num_reduce);
      for (uint32_t r = 0; r < rebuilt.size(); ++r) {
        engine_->shuffle().PutBucket(dep.shuffle_id, m, r, rebuilt[r]);
      }
      bucket = std::move(rebuilt[reduce_partition]);
    }
    fetched_bytes += bucket->SizeBytes();
    buckets.push_back(std::move(bucket));
  }
  if (fetch_start_us != 0 && trace::Enabled()) {
    trace::Complete("shuffle.fetch", "shuffle", fetch_start_us,
                    trace::TArg("shuffle", dep.shuffle_id),
                    trace::TArg("reduce", reduce_partition),
                    trace::TArg("maps", static_cast<uint64_t>(num_map)),
                    trace::TArg("bytes", fetched_bytes));
  }
  return buckets;
}

}  // namespace blaze
