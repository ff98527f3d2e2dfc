// Asynchronous spill/fetch pipeline and the pinned-block lifecycle: the
// write-claim state machine (a block being spilled stays readable from
// memory until the disk write commits), cancellation, drain, the bounded
// queue's sync fallback, and the invariant that
// eviction can never free a block an executing task has pinned. The stress
// tests are deliberately thread-heavy so a TSan build exercises the
// SpillQueue and MemoryStore locking for real.
#include <gtest/gtest.h>

#include "src/common/units.h"

#include <atomic>
#include <filesystem>
#include <future>
#include <thread>
#include <vector>

#include "src/dataflow/typed_block.h"
#include "src/metrics/registry.h"
#include "src/storage/block_manager.h"
#include "src/storage/memory_store.h"

namespace blaze {
namespace {

BlockPtr IntBlock(int fill, size_t n) {
  return MakeBlock(std::vector<int>(n, fill));
}

class SpillPipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("blaze_spill_pipeline_" +
            std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()));
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  BlockManagerConfig Config(uint64_t throughput = 0) {
    BlockManagerConfig config;
    config.memory_capacity_bytes = MiB(4);
    config.disk_dir = dir_;
    config.disk_throughput_bytes_per_sec = throughput;
    return config;
  }

  std::filesystem::path dir_;
};

TEST_F(SpillPipelineTest, AsyncSpillCommitsToDisk) {
  RunMetrics metrics(1);
  BlockManager bm(0, Config(), &metrics);
  const BlockId id{1, 0};
  ASSERT_TRUE(bm.SpillAsync(id, IntBlock(9, 500)));
  bm.DrainSpills();
  EXPECT_TRUE(bm.disk().Contains(id));
  EXPECT_FALSE(bm.InFlightSpill(id).has_value());

  double read_ms = 0.0;
  auto bytes = bm.ReadFromDisk(id, &read_ms);
  ASSERT_TRUE(bytes.has_value());
  ByteSource src(*bytes);
  EXPECT_EQ(TypedBlock<int>::DecodeFrom(src)->rows(), std::vector<int>(500, 9));

  const auto snap = metrics.Snapshot();
  EXPECT_GE(snap.async_spills, 1u);
  EXPECT_GE(snap.async_spill_ms, 0.0);
}

TEST_F(SpillPipelineTest, InFlightSpillReadableUntilCommit) {
  RunMetrics metrics(1);
  // Throttle the disk so the write takes long enough to observe in flight.
  BlockManager bm(0, Config(/*throughput=*/KiB(64)), &metrics);
  const BlockId id{2, 0};
  auto block = IntBlock(3, 4096);  // 16 KiB payload -> ~250ms throttled write
  ASSERT_TRUE(bm.SpillAsync(id, block));
  // The write-claim holds the live payload until the disk write lands: a
  // lookup between eviction and commit is a memory hit, not a disk wait.
  auto in_flight = bm.InFlightSpill(id);
  ASSERT_TRUE(in_flight.has_value());
  EXPECT_EQ(RowsOf<int>(*in_flight)[0], 3);
  bm.DrainSpills();
  EXPECT_FALSE(bm.InFlightSpill(id).has_value());
  EXPECT_TRUE(bm.disk().Contains(id));
}

TEST_F(SpillPipelineTest, FullQueueRejectsAndCountsIt) {
  RunMetrics metrics(1);
  BlockManagerConfig config = Config(/*throughput=*/KiB(32));
  config.spill_queue_depth = 1;
  BlockManager bm(0, config, &metrics);
  // Slow writes + depth 1: three rapid enqueues cannot all be accepted.
  int accepted = 0;
  for (uint32_t p = 0; p < 3; ++p) {
    if (bm.SpillAsync(BlockId{4, p}, IntBlock(1, 2048))) {
      ++accepted;
    }
  }
  EXPECT_LT(accepted, 3);
  EXPECT_GE(accepted, 1);
  bm.DrainSpills();
  EXPECT_GE(metrics.Snapshot().spill_queue_rejects, 1u);
}

TEST_F(SpillPipelineTest, CancelQueuedSpillSkipsDiskWrite) {
  const TelemetryCounter* cancelled = MetricsRegistry::Global().Counter("spill.cancelled");
  const uint64_t cancelled_before = cancelled->Value();
  RunMetrics metrics(1);
  BlockManager bm(0, Config(/*throughput=*/KiB(64)), &metrics);
  const BlockId blocker{5, 0};
  const BlockId victim{5, 1};
  ASSERT_TRUE(bm.SpillAsync(blocker, IntBlock(1, 4096)));  // keeps the worker busy
  ASSERT_TRUE(bm.SpillAsync(victim, IntBlock(2, 4096)));
  EXPECT_TRUE(bm.CancelSpill(victim));
  bm.DrainSpills();
  EXPECT_TRUE(bm.disk().Contains(blocker));
  // Whether the cancel caught the item queued or mid-write, no disk copy of
  // the victim may survive the drain.
  EXPECT_FALSE(bm.disk().Contains(victim));
  EXPECT_GE(cancelled->Value() - cancelled_before, 1u);
}

TEST_F(SpillPipelineTest, CancelAfterCommitIsANoOp) {
  RunMetrics metrics(1);
  BlockManager bm(0, Config(), &metrics);
  const BlockId id{6, 0};
  ASSERT_TRUE(bm.SpillAsync(id, IntBlock(1, 100)));
  bm.DrainSpills();
  EXPECT_FALSE(bm.CancelSpill(id));  // nothing in flight anymore
  EXPECT_TRUE(bm.disk().Contains(id));
}

TEST_F(SpillPipelineTest, FetchAsyncDeliversBytesOffPath) {
  RunMetrics metrics(1);
  BlockManager bm(0, Config(), &metrics);
  const BlockId id{7, 0};
  bm.SpillToDisk(id, *IntBlock(8, 300));

  std::atomic<bool> delivered{false};
  std::vector<uint8_t> payload;
  ASSERT_TRUE(bm.FetchAsync(id, [&](std::optional<std::vector<uint8_t>> bytes, double ms) {
    ASSERT_TRUE(bytes.has_value());
    EXPECT_GE(ms, 0.0);
    payload = std::move(*bytes);
    delivered.store(true);
  }));
  bm.DrainSpills();
  ASSERT_TRUE(delivered.load());
  ByteSource src(payload);
  EXPECT_EQ(TypedBlock<int>::DecodeFrom(src)->rows(), std::vector<int>(300, 8));
  EXPECT_GE(metrics.Snapshot().async_fetches, 1u);
}

TEST_F(SpillPipelineTest, FetchAsyncMissingBlockDeliversNullopt) {
  RunMetrics metrics(1);
  BlockManager bm(0, Config(), &metrics);
  std::atomic<bool> delivered{false};
  ASSERT_TRUE(bm.FetchAsync(BlockId{8, 0}, [&](std::optional<std::vector<uint8_t>> bytes,
                                               double) {
    EXPECT_FALSE(bytes.has_value());
    delivered.store(true);
  }));
  bm.DrainSpills();
  EXPECT_TRUE(delivered.load());
}

TEST_F(SpillPipelineTest, DestructorDrainsPendingSpills) {
  RunMetrics metrics(1);
  const BlockId id{9, 0};
  {
    BlockManager bm(0, Config(/*throughput=*/KiB(64)), &metrics);
    ASSERT_TRUE(bm.SpillAsync(id, IntBlock(4, 4096)));
    // No explicit drain: teardown must finish the write rather than drop it.
  }
  // RecordAsyncSpill fires only after the disk write commits, so a counted
  // spill proves the destructor drained the queue. (The disk itself is gone:
  // ~DiskStore removes its directory.)
  EXPECT_EQ(metrics.Snapshot().async_spills, 1u);
}

// --- shared eviction mechanics (BlockManager::Evict / WriteToDisk / Drop) ---

// Holds the spill worker inside a fetch callback until Release(), so items
// enqueued meanwhile stay queued and a depth-1 queue fills deterministically.
class ParkedWorker {
 public:
  explicit ParkedWorker(BlockManager& bm) {
    std::shared_future<void> gate = release_.get_future().share();
    const bool queued = bm.FetchAsync(BlockId{99, 0}, [this, gate](auto, double) {
      started_.set_value();
      gate.wait();
    });
    EXPECT_TRUE(queued);
    if (queued) {
      started_.get_future().wait();
    }
  }
  ~ParkedWorker() { Release(); }
  ParkedWorker(const ParkedWorker&) = delete;
  ParkedWorker& operator=(const ParkedWorker&) = delete;
  void Release() {
    if (!released_) {
      released_ = true;
      release_.set_value();
    }
  }

 private:
  std::promise<void> started_;
  std::promise<void> release_;
  bool released_ = false;
};

MemoryEntry PutResident(BlockManager& bm, const BlockId& id, BlockPtr block) {
  bm.memory().Put(id, block, block->SizeBytes());
  return MemoryEntry{id, block, block->SizeBytes()};
}

TEST_F(SpillPipelineTest, EvictFallsBackToSyncWriteWhenQueueFull) {
  RunMetrics metrics(1);
  BlockManagerConfig config = Config();
  config.spill_queue_depth = 1;
  BlockManager bm(0, config, &metrics);
  const BlockId id{12, 0};
  const MemoryEntry victim = PutResident(bm, id, IntBlock(3, 2048));
  ParkedWorker parked(bm);
  ASSERT_TRUE(bm.SpillAsync(BlockId{12, 1}, IntBlock(4, 16)));  // fills the queue

  TaskMetrics charge;
  ASSERT_TRUE(bm.Evict(victim, /*to_disk=*/true, &charge));
  // Written inline by the evicting caller, who pays for it.
  EXPECT_TRUE(bm.disk().Contains(id));
  EXPECT_FALSE(bm.memory().Contains(id));
  EXPECT_GT(charge.cache_disk_ms, 0.0);
  EXPECT_EQ(charge.cache_disk_bytes_written, victim.size_bytes);

  parked.Release();
  bm.DrainSpills();
  const auto snap = metrics.Snapshot();
  EXPECT_EQ(snap.evictions_to_disk, 1u);
  EXPECT_EQ(snap.spill_queue_rejects, 1u);
  double read_ms = 0.0;
  auto bytes = bm.ReadFromDisk(id, &read_ms);
  ASSERT_TRUE(bytes.has_value());
  ByteSource src(*bytes);
  EXPECT_EQ(TypedBlock<int>::DecodeFrom(src)->rows(), std::vector<int>(2048, 3));
}

TEST_F(SpillPipelineTest, EvictRefusesPinnedVictimAndCancelsItsSpill) {
  const TelemetryCounter* cancelled = MetricsRegistry::Global().Counter("spill.cancelled");
  const uint64_t cancelled_before = cancelled->Value();
  RunMetrics metrics(1);
  BlockManager bm(0, Config(), &metrics);
  const BlockId id{13, 0};
  const MemoryEntry victim = PutResident(bm, id, IntBlock(5, 4096));
  ASSERT_TRUE(bm.memory().GetAndPin(id).has_value());  // an executing task holds it
  // Parked, the worker cannot commit the victim's write before Evict cancels
  // it: the cancel below always meets a queued spill.
  ParkedWorker parked(bm);

  TaskMetrics charge;
  EXPECT_FALSE(bm.Evict(victim, /*to_disk=*/true, &charge));
  EXPECT_TRUE(bm.memory().Contains(id));
  EXPECT_FALSE(bm.InFlightSpill(id).has_value());
  EXPECT_EQ(charge.cache_disk_bytes_written, 0u);  // the write had gone async
  parked.Release();
  bm.DrainSpills();
  EXPECT_FALSE(bm.disk().Contains(id));
  EXPECT_EQ(cancelled->Value() - cancelled_before, 1u);
  EXPECT_EQ(metrics.Snapshot().evictions_to_disk, 0u);
  bm.memory().Unpin(id);
}

TEST_F(SpillPipelineTest, EvictDoesNotRewriteVictimAlreadyOnDisk) {
  RunMetrics metrics(1);
  BlockManager bm(0, Config(), &metrics);
  const BlockId id{14, 0};
  bm.SpillToDisk(id, *IntBlock(1, 100));  // disk copy from an earlier eviction
  const uint64_t written_before = metrics.Snapshot().disk_bytes_written_total;
  const MemoryEntry victim = PutResident(bm, id, IntBlock(1, 100));

  TaskMetrics charge;
  EXPECT_FALSE(bm.WriteToDisk(id, victim.data, &charge));
  ASSERT_TRUE(bm.Evict(victim, /*to_disk=*/true, &charge));
  EXPECT_FALSE(bm.InFlightSpill(id).has_value());
  bm.DrainSpills();
  const auto snap = metrics.Snapshot();
  EXPECT_EQ(snap.disk_bytes_written_total, written_before);
  EXPECT_EQ(snap.async_spills, 0u);
  EXPECT_EQ(snap.evictions_to_disk, 1u);
  EXPECT_EQ(charge.cache_disk_bytes_written, 0u);
  EXPECT_TRUE(bm.disk().Contains(id));
}

TEST_F(SpillPipelineTest, DropReportsResidencyInEveryTier) {
  RunMetrics metrics(1);
  BlockManager bm(0, Config(), &metrics);
  const BlockId in_memory{15, 0};
  const BlockId on_disk{15, 1};
  const BlockId in_flight{15, 2};
  const BlockId absent{15, 3};
  PutResident(bm, in_memory, IntBlock(1, 64));
  bm.SpillToDisk(on_disk, *IntBlock(2, 64));
  ParkedWorker parked(bm);
  ASSERT_TRUE(bm.SpillAsync(in_flight, IntBlock(3, 64)));  // queued behind the fetch

  EXPECT_TRUE(bm.Drop(in_memory));
  EXPECT_TRUE(bm.Drop(on_disk));
  EXPECT_TRUE(bm.Drop(in_flight));
  EXPECT_FALSE(bm.Drop(absent));
  parked.Release();
  bm.DrainSpills();
  for (const BlockId& id : {in_memory, on_disk, in_flight}) {
    EXPECT_FALSE(bm.memory().Contains(id));
    EXPECT_FALSE(bm.disk().Contains(id));
    EXPECT_FALSE(bm.Drop(id));  // nothing left to drop
  }
  EXPECT_EQ(metrics.Snapshot().async_spills, 0u);  // the queued write never ran
}

// --- pinned-block lifecycle --------------------------------------------------------

TEST(BlockPinTest, PinnedBlockRefusesEviction) {
  MemoryStore store(KiB(64));
  const BlockId id{1, 0};
  store.Put(id, IntBlock(7, 100), 400);
  auto pinned = store.GetAndPin(id);
  ASSERT_TRUE(pinned.has_value());
  EXPECT_EQ(store.PinCount(id), 1);
  EXPECT_EQ(store.RemoveIfUnpinned(id), 0u);  // eviction refused
  EXPECT_TRUE(store.Contains(id));
  store.Unpin(id);
  EXPECT_EQ(store.PinCount(id), 0);
  EXPECT_EQ(store.RemoveIfUnpinned(id), 400u);  // now it may go
  EXPECT_FALSE(store.Contains(id));
}

TEST(BlockPinTest, PinsNest) {
  MemoryStore store(KiB(64));
  const BlockId id{1, 0};
  store.Put(id, IntBlock(7, 100), 400);
  (void)store.GetAndPin(id);
  (void)store.GetAndPin(id);
  EXPECT_EQ(store.PinCount(id), 2);
  store.Unpin(id);
  EXPECT_EQ(store.RemoveIfUnpinned(id), 0u);  // one pin still held
  store.Unpin(id);
  EXPECT_EQ(store.RemoveIfUnpinned(id), 400u);
}

TEST(BlockPinTest, UnpersistRemoveIgnoresPins) {
  MemoryStore store(KiB(64));
  const BlockId id{1, 0};
  store.Put(id, IntBlock(7, 100), 400);
  (void)store.GetAndPin(id);
  // Remove is the unpersist path: the user released the data, pins or not.
  EXPECT_EQ(store.Remove(id), 400u);
  EXPECT_FALSE(store.Contains(id));
  store.Unpin(id);  // late unpin of a vanished block is a no-op
}

// Invariant under concurrency: between a successful GetAndPin and its Unpin
// the block is never removed by the eviction path. An aggressive evictor
// hammers RemoveIfUnpinned while readers pin/validate/unpin; TSan builds also
// verify the shard-lock discipline.
TEST(BlockPinTest, EvictionNeverFreesPinnedBlockUnderStress) {
  MemoryStore store(MiB(1));
  const BlockId id{1, 0};
  const uint64_t size = IntBlock(0, 100)->SizeBytes();
  store.Put(id, IntBlock(42, 100), size);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> violations{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto pinned = store.GetAndPin(id);
        if (!pinned.has_value()) {
          continue;  // momentarily evicted; the evictor will re-insert
        }
        if (!store.Contains(id) || RowsOf<int>(*pinned)[0] != 42) {
          violations.fetch_add(1);
        }
        store.Unpin(id);
      }
    });
  }
  std::thread evictor([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      if (store.RemoveIfUnpinned(id) > 0) {
        store.Put(id, IntBlock(42, 100), size);
      }
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  stop.store(true);
  for (auto& t : readers) {
    t.join();
  }
  evictor.join();
  EXPECT_EQ(violations.load(), 0u);
}

// Concurrent SpillAsync / CancelSpill / InFlightSpill against one worker:
// after the drain every surviving disk file must decode to its own payload
// (no interleaved writes, no resurrection of cancelled blocks — cancelled
// ids are simply absent).
TEST_F(SpillPipelineTest, ConcurrentSpillAndCancelStress) {
  RunMetrics metrics(1);
  BlockManager bm(0, Config(), &metrics);
  constexpr uint32_t kBlocks = 64;

  std::thread spiller([&] {
    for (uint32_t p = 0; p < kBlocks; ++p) {
      if (!bm.SpillAsync(BlockId{10, p}, IntBlock(static_cast<int>(p), 256))) {
        bm.SpillToDisk(BlockId{10, p}, *IntBlock(static_cast<int>(p), 256));
      }
    }
  });
  std::thread canceller([&] {
    for (uint32_t p = 0; p < kBlocks; p += 3) {
      bm.CancelSpill(BlockId{10, p});
    }
  });
  std::thread prober([&] {
    for (uint32_t p = 0; p < kBlocks; ++p) {
      if (auto live = bm.InFlightSpill(BlockId{10, p})) {
        EXPECT_EQ(RowsOf<int>(*live)[0], static_cast<int>(p));
      }
    }
  });
  spiller.join();
  canceller.join();
  prober.join();
  bm.DrainSpills();

  for (uint32_t p = 0; p < kBlocks; ++p) {
    const BlockId id{10, p};
    if (!bm.disk().Contains(id)) {
      continue;  // cancelled before the write (or sync fallback raced the cancel)
    }
    double ms = 0.0;
    auto bytes = bm.ReadFromDisk(id, &ms);
    ASSERT_TRUE(bytes.has_value());
    ByteSource src(*bytes);
    EXPECT_EQ(TypedBlock<int>::DecodeFrom(src)->rows(),
              std::vector<int>(256, static_cast<int>(p)));
  }
}

}  // namespace
}  // namespace blaze
