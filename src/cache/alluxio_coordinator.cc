#include "src/cache/alluxio_coordinator.h"

#include <utility>

#include "src/common/logging.h"
#include "src/common/stopwatch.h"
#include "src/dataflow/task_context.h"

namespace blaze {

namespace {

// A serialized payload living in the Alluxio memory tier.
class RawBlock : public BlockData {
 public:
  explicit RawBlock(std::vector<uint8_t> bytes) : bytes_(std::move(bytes)) {}
  size_t SizeBytes() const override { return bytes_.size(); }
  size_t NumRows() const override { return 0; }
  void EncodeTo(ByteSink& sink) const override { sink.WriteRaw(bytes_.data(), bytes_.size()); }
  // The serialized tier is the third block representation (object rows and
  // columnar being the in-memory two). Lookup decodes before returning, so
  // tasks never see a RawBlock and MaterializeRows stays unimplemented.
  BlockRepresentation representation() const override { return BlockRepresentation::kEncoded; }
  const std::vector<uint8_t>& bytes() const { return bytes_; }

 private:
  std::vector<uint8_t> bytes_;
};

}  // namespace

AlluxioCoordinator::AlluxioCoordinator(EngineContext* engine) : engine_(engine) {
  for (size_t e = 0; e < engine->num_executors(); ++e) {
    mem_tier_.push_back(
        std::make_unique<MemoryStore>(engine->config().memory_capacity_per_executor));
    executor_mu_.push_back(std::make_unique<std::mutex>());
  }
}

std::optional<BlockPtr> AlluxioCoordinator::Lookup(const RddBase& rdd, uint32_t partition,
                                                   TaskContext& tc) {
  const BlockId id{rdd.id(), partition};
  const size_t executor = engine_->ExecutorFor(partition);
  if (auto hit = mem_tier_[executor]->Get(id)) {
    // Memory-tier hit still pays deserialization: Alluxio hands bytes to Spark.
    Stopwatch decode_watch;
    const auto* raw = dynamic_cast<const RawBlock*>(hit->get());
    BLAZE_CHECK(raw != nullptr);
    ByteSource src(raw->bytes());
    BlockPtr block = rdd.DecodeBlock(src);
    tc.metrics().cache_disk_ms += decode_watch.ElapsedMillis();
    engine_->metrics().RecordCacheHit(/*from_memory=*/true);
    return block;
  }
  BlockManager& bm = engine_->block_manager(executor);
  // Evicted from the memory tier but the disk write has not committed yet:
  // the spill queue still holds the serialized payload.
  if (auto in_flight = bm.InFlightSpill(id)) {
    Stopwatch decode_watch;
    const auto* raw = dynamic_cast<const RawBlock*>(in_flight->get());
    BLAZE_CHECK(raw != nullptr);
    ByteSource src(raw->bytes());
    BlockPtr block = rdd.DecodeBlock(src);
    tc.metrics().cache_disk_ms += decode_watch.ElapsedMillis();
    engine_->metrics().RecordCacheHit(/*from_memory=*/true);
    return block;
  }
  double read_ms = 0.0;
  if (auto bytes = bm.ReadFromDisk(id, &read_ms)) {
    Stopwatch decode_watch;
    ByteSource src(*bytes);
    BlockPtr block = rdd.DecodeBlock(src);
    tc.metrics().cache_disk_ms += read_ms + decode_watch.ElapsedMillis();
    tc.metrics().cache_disk_bytes_read += bytes->size();
    engine_->metrics().RecordCacheHit(/*from_memory=*/false);
    return block;
  }
  return std::nullopt;
}

void AlluxioCoordinator::BlockComputed(const RddBase& rdd, uint32_t partition,
                                       const BlockPtr& block, double /*compute_ms*/,
                                       TaskContext& tc) {
  if (rdd.storage_level() == StorageLevel::kNone) {
    return;
  }
  const BlockId id{rdd.id(), partition};
  const size_t executor = engine_->ExecutorFor(partition);
  std::lock_guard<std::mutex> lock(*executor_mu_[executor]);
  MemoryStore& tier = *mem_tier_[executor];
  if (tier.Contains(id)) {
    return;
  }

  // Writing into Alluxio always serializes.
  Stopwatch encode_watch;
  ByteSink sink;
  block->EncodeTo(sink);
  auto raw = std::make_shared<RawBlock>(sink.TakeData());
  tc.metrics().cache_disk_ms += encode_watch.ElapsedMillis();

  const uint64_t size = raw->SizeBytes();
  BlockManager& bm = engine_->block_manager(executor);
  if (size > tier.capacity_bytes()) {
    // Straight to the disk tier.
    const DiskOpResult op = bm.disk().Put(id, raw->bytes());
    engine_->metrics().RecordDiskStoreDelta(static_cast<int64_t>(op.bytes));
    engine_->metrics().RecordDiskIo(op.elapsed_ms);
    tc.metrics().cache_disk_ms += op.elapsed_ms;
    tc.metrics().cache_disk_bytes_written += op.bytes;
    engine_->metrics().RecordEviction(executor, size, /*to_disk=*/true);
    engine_->audit().Admit(static_cast<uint32_t>(executor), id.rdd_id, id.partition, size,
                           /*to_disk=*/true, "AlluxioLRU", "exceeds_tier_capacity");
    return;
  }
  // LRU-evict serialized victims from the memory tier to the disk tier.
  while (tier.capacity_bytes() - tier.used_bytes() < size) {
    std::vector<MemoryEntry> entries = tier.Entries();
    BLAZE_CHECK(!entries.empty());
    size_t victim = 0;
    for (size_t i = 1; i < entries.size(); ++i) {
      if (entries[i].last_access_seq < entries[victim].last_access_seq) {
        victim = i;
      }
    }
    const auto* victim_raw = dynamic_cast<const RawBlock*>(entries[victim].data.get());
    BLAZE_CHECK(victim_raw != nullptr);
    if (!bm.disk().Contains(entries[victim].id) && !bm.InFlightSpill(entries[victim].id)) {
      // RawBlock::EncodeTo emits the raw bytes verbatim, so the spill
      // worker's write produces the same file as the direct Put; only the
      // full-queue fallback stays on the task path.
      if (!bm.SpillAsync(entries[victim].id, entries[victim].data)) {
        const DiskOpResult op = bm.disk().Put(entries[victim].id, victim_raw->bytes());
        engine_->metrics().RecordDiskStoreDelta(static_cast<int64_t>(op.bytes));
        engine_->metrics().RecordDiskIo(op.elapsed_ms);
        tc.metrics().cache_disk_ms += op.elapsed_ms;
        tc.metrics().cache_disk_bytes_written += op.bytes;
      }
    }
    tier.Remove(entries[victim].id);
    engine_->metrics().RecordEviction(executor, entries[victim].size_bytes, /*to_disk=*/true);
    engine_->audit().Evict(static_cast<uint32_t>(executor), entries[victim].id.rdd_id,
                           entries[victim].id.partition, entries[victim].size_bytes,
                           /*to_disk=*/true, "AlluxioLRU", "tier_capacity",
                           static_cast<double>(entries[victim].last_access_seq),
                           static_cast<uint32_t>(entries.size()));
  }
  tier.Put(id, std::move(raw), size);
  engine_->audit().Admit(static_cast<uint32_t>(executor), id.rdd_id, id.partition, size,
                         /*to_disk=*/false, "AlluxioLRU", "annotated");
}

bool AlluxioCoordinator::IsManaged(const RddBase& rdd) const {
  return rdd.storage_level() != StorageLevel::kNone;
}

void AlluxioCoordinator::UnpersistRdd(const RddBase& rdd) {
  for (uint32_t p = 0; p < rdd.num_partitions(); ++p) {
    const size_t executor = engine_->ExecutorFor(p);
    std::lock_guard<std::mutex> lock(*executor_mu_[executor]);
    const BlockId id{rdd.id(), p};
    BlockManager& bm = engine_->block_manager(executor);
    const bool resident = mem_tier_[executor]->Contains(id) || bm.disk().Contains(id) ||
                          bm.InFlightSpill(id).has_value();
    bm.CancelSpill(id);
    mem_tier_[executor]->Remove(id);
    bm.RemoveFromDisk(id);
    if (resident) {
      engine_->audit().Unpersist(static_cast<uint32_t>(executor), id.rdd_id, id.partition,
                                 /*size_bytes=*/0, "AlluxioLRU", "user_unpersist");
    }
  }
}

}  // namespace blaze
