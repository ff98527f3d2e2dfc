#include "src/storage/block_manager.h"

#include "src/common/logging.h"
#include "src/common/stopwatch.h"
#include "src/common/trace.h"
#include "src/storage/remote_block.h"

namespace blaze {

BlockManager::BlockManager(size_t executor_id, const BlockManagerConfig& config,
                           RunMetrics* metrics)
    : executor_id_(executor_id),
      arbiter_(config.memory_capacity_bytes,
               static_cast<uint64_t>(static_cast<double>(config.memory_capacity_bytes) *
                                     kExecutionMemoryFraction)),
      memory_(config.memory_capacity_bytes, &arbiter_),
      disk_(config.disk_dir, config.disk_throughput_bytes_per_sec),
      metrics_(metrics),
      spill_(std::make_unique<SpillQueue>(this, config.spill_queue_depth, metrics)) {}

BlockManager::~BlockManager() {
  // The worker writes through this object; stop it before members go away.
  spill_.reset();
}

bool BlockManager::SpillAsync(const BlockId& id, BlockPtr data) {
  return spill_->EnqueueSpill(id, std::move(data));
}

std::optional<BlockPtr> BlockManager::InFlightSpill(const BlockId& id) const {
  return spill_->FindInFlight(id);
}

bool BlockManager::CancelSpill(const BlockId& id) { return spill_->Cancel(id); }

void BlockManager::DrainSpills() { spill_->Drain(); }

bool BlockManager::FetchAsync(const BlockId& id, SpillQueue::FetchCallback on_loaded) {
  return spill_->EnqueueFetch(id, std::move(on_loaded));
}

size_t BlockManager::SpillQueueDepth() const { return spill_->depth(); }

uint64_t BlockManager::PendingSpillBytes() const { return spill_->pending_spill_bytes(); }

double BlockManager::SpillToDisk(const BlockId& id, const BlockData& data,
                                 uint64_t* bytes_out) {
  Stopwatch watch;
  // A remote-held block spills *inside* its worker: one task-closure RPC moves
  // the payload memory -> worker disk without the bytes ever transiting back.
  // No local disk-residency delta is recorded — the coordinator's disk store
  // never sees these bytes (the worker's disk usage is reported through its
  // heartbeat stats instead). A failed demotion (worker died) just loses the
  // payload; the next read misses and lineage recomputes.
  if (const auto* stub = dynamic_cast<const RemoteBlockStub*>(&data)) {
    if (!stub->Demote()) {
      BLAZE_LOG(kWarn) << "remote demote failed for " << id.ToString()
                       << " (worker " << stub->slot() << "); block drops to lineage";
    }
    if (bytes_out != nullptr) {
      *bytes_out = stub->SizeBytes();
    }
    return watch.ElapsedMillis();
  }
  const uint64_t spill_start_us = trace::Enabled() ? ProcessMicros() : 0;
  // Spills are frequent and sized within a narrow band per workload, so the
  // encode buffer is per-thread and reused: after warm-up a spill does no
  // buffer allocation at all.
  thread_local ByteSink sink;
  sink.Clear();
  data.EncodeTo(sink);
  // Replacement is modeled as remove+insert so disk-residency metrics stay exact.
  const uint64_t old_size = disk_.Remove(id);
  if (metrics_ != nullptr && old_size > 0) {
    metrics_->RecordDiskStoreDelta(-static_cast<int64_t>(old_size));
  }
  const DiskOpResult op = disk_.Put(id, sink.data());
  if (metrics_ != nullptr) {
    metrics_->RecordDiskStoreDelta(static_cast<int64_t>(op.bytes));
  }
  if (bytes_out != nullptr) {
    *bytes_out = op.bytes;
  }
  const double elapsed_ms = watch.ElapsedMillis();
  if (metrics_ != nullptr) {
    metrics_->RecordDiskIo(elapsed_ms);
  }
  if (spill_start_us != 0 && trace::Enabled()) {
    trace::Complete("block.spill", "storage", spill_start_us, trace::TArg("rdd", id.rdd_id),
                    trace::TArg("part", id.partition), trace::TArg("bytes", op.bytes),
                    trace::TArg("executor", static_cast<uint64_t>(executor_id_)));
  }
  return elapsed_ms;
}

std::optional<std::vector<uint8_t>> BlockManager::ReadFromDisk(const BlockId& id, double* ms) {
  const uint64_t load_start_us = trace::Enabled() ? ProcessMicros() : 0;
  DiskOpResult op;
  auto bytes = disk_.Get(id, &op);
  if (!bytes.has_value() && remote_read_) {
    // Demoted inside a worker: its disk tier serves the read over the wire.
    return remote_read_(id, ms);
  }
  if (ms != nullptr) {
    *ms = op.elapsed_ms;
  }
  if (bytes.has_value()) {
    if (metrics_ != nullptr) {
      metrics_->RecordDiskIo(op.elapsed_ms);
    }
    if (load_start_us != 0 && trace::Enabled()) {
      trace::Complete("block.load", "storage", load_start_us, trace::TArg("rdd", id.rdd_id),
                      trace::TArg("part", id.partition),
                      trace::TArg("bytes", static_cast<uint64_t>(bytes->size())),
                      trace::TArg("executor", static_cast<uint64_t>(executor_id_)));
    }
  }
  return bytes;
}

void BlockManager::RemoveFromMemory(const BlockId& id) { memory_.Remove(id); }

void BlockManager::RemoveFromDisk(const BlockId& id) {
  const uint64_t size = disk_.Remove(id);
  if (size > 0 && metrics_ != nullptr) {
    metrics_->RecordDiskStoreDelta(-static_cast<int64_t>(size));
  }
  if (remote_remove_) {
    remote_remove_(id);
  }
}

}  // namespace blaze
