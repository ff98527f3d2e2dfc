#include <gtest/gtest.h>

#include "src/common/units.h"

#include <atomic>
#include <filesystem>
#include <fstream>
#include <thread>

#include "src/dataflow/typed_block.h"
#include "src/storage/block_manager.h"
#include "src/storage/disk_store.h"
#include "src/storage/memory_store.h"

namespace blaze {
namespace {

BlockPtr IntBlock(int fill, size_t n) {
  return MakeBlock(std::vector<int>(n, fill));
}

TEST(MemoryStoreTest, PutGetRemove) {
  MemoryStore store(KiB(64));
  const BlockId id{1, 0};
  auto block = IntBlock(7, 100);
  store.Put(id, block, block->SizeBytes());
  EXPECT_TRUE(store.Contains(id));
  EXPECT_EQ(store.used_bytes(), block->SizeBytes());
  auto got = store.Get(id);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(RowsOf<int>(*got)[0], 7);
  EXPECT_EQ(store.Remove(id), block->SizeBytes());
  EXPECT_FALSE(store.Contains(id));
  EXPECT_EQ(store.used_bytes(), 0u);
}

TEST(MemoryStoreTest, ReplaceUpdatesAccounting) {
  MemoryStore store(KiB(64));
  const BlockId id{1, 0};
  store.Put(id, IntBlock(1, 100), 400);
  store.Put(id, IntBlock(2, 200), 800);
  EXPECT_EQ(store.used_bytes(), 800u);
}

TEST(MemoryStoreTest, ShrinkingReplacementReleasesBytes) {
  // Regression: a replacement that shrinks the block must release the delta
  // (used_ and the arbiter ledger both), not silently keep the old charge.
  MemoryArbiter arbiter(KiB(64), KiB(16));
  MemoryStore store(KiB(64), &arbiter);
  const BlockId id{1, 0};
  store.Put(id, IntBlock(1, 200), 800);
  EXPECT_EQ(store.used_bytes(), 800u);
  store.Put(id, IntBlock(2, 50), 200);
  EXPECT_EQ(store.used_bytes(), 200u);
  EXPECT_EQ(arbiter.cache_used_bytes(), 200u);
  EXPECT_EQ(store.free_bytes(), KiB(64) - 200u);
  // And back up: growth charges only the delta on top of the new base.
  store.Put(id, IntBlock(3, 100), 400);
  EXPECT_EQ(store.used_bytes(), 400u);
  EXPECT_EQ(arbiter.cache_used_bytes(), 400u);
}

TEST(MemoryStoreTest, ReplaceSwapsPayloadAndBumpsRecency) {
  MemoryStore store(KiB(64));
  store.Put(BlockId{1, 0}, IntBlock(1, 10), 64);
  store.Put(BlockId{1, 1}, IntBlock(2, 10), 64);
  store.Put(BlockId{1, 0}, IntBlock(3, 10), 64);  // re-insert the older block
  const auto entries = store.Entries();
  ASSERT_EQ(entries.size(), 2u);
  const MemoryEntry* replaced = nullptr;
  const MemoryEntry* untouched = nullptr;
  for (const auto& entry : entries) {
    (entry.id.partition == 0 ? replaced : untouched) = &entry;
  }
  ASSERT_NE(replaced, nullptr);
  ASSERT_NE(untouched, nullptr);
  EXPECT_EQ(RowsOf<int>(replaced->data)[0], 3);
  EXPECT_GT(replaced->last_access_seq, untouched->last_access_seq);
}

TEST(MemoryStoreTest, UsedBytesMatchesEntriesAcrossShards) {
  MemoryStore store(MiB(4));
  // Spread keys well past the shard count so every shard holds entries.
  for (uint32_t p = 0; p < 64; ++p) {
    store.Put(BlockId{2, p}, IntBlock(1, 10), 100 + p);
  }
  store.Remove(BlockId{2, 3});
  store.Remove(BlockId{2, 40});
  uint64_t live = 0;
  for (const auto& entry : store.Entries()) {
    live += entry.size_bytes;
  }
  EXPECT_EQ(store.Entries().size(), 62u);
  EXPECT_EQ(store.used_bytes(), live);
}

TEST(MemoryStoreTest, OverflowIsFatal) {
  MemoryStore store(100);
  EXPECT_DEATH(store.Put(BlockId{1, 0}, IntBlock(1, 1000), 4096), "overflow");
}

TEST(MemoryStoreTest, AccessBumpsRecency) {
  MemoryStore store(KiB(64));
  store.Put(BlockId{1, 0}, IntBlock(1, 10), 64);
  store.Put(BlockId{1, 1}, IntBlock(2, 10), 64);
  (void)store.Get(BlockId{1, 0});
  const auto entries = store.Entries();
  const MemoryEntry* first = nullptr;
  const MemoryEntry* second = nullptr;
  for (const auto& entry : entries) {
    if (entry.id.partition == 0) {
      first = &entry;
    } else {
      second = &entry;
    }
  }
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);
  EXPECT_GT(first->last_access_seq, second->last_access_seq);
}

class DiskStoreTest : public ::testing::Test {
 protected:
  std::filesystem::path dir_ =
      std::filesystem::temp_directory_path() / "blaze_disk_store_test";
};

TEST_F(DiskStoreTest, PutGetRoundTrip) {
  DiskStore store(dir_, 0);
  const BlockId id{3, 1};
  std::vector<uint8_t> payload(1000, 0xAB);
  store.Put(id, payload);
  EXPECT_TRUE(store.Contains(id));
  EXPECT_EQ(store.used_bytes(), 1000u);
  DiskOpResult op;
  auto back = store.Get(id, &op);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, payload);
  EXPECT_EQ(op.bytes, 1000u);
}

TEST_F(DiskStoreTest, RemoveDeletesFile) {
  DiskStore store(dir_, 0);
  const BlockId id{3, 2};
  store.Put(id, std::vector<uint8_t>(100, 1));
  EXPECT_EQ(store.Remove(id), 100u);
  EXPECT_FALSE(store.Contains(id));
  EXPECT_EQ(store.Get(id, nullptr), std::nullopt);
}

TEST_F(DiskStoreTest, ThrottleEnforcesThroughput) {
  // 1 MiB at 10 MiB/s should take >= ~100 ms.
  DiskStore store(dir_, MiB(10));
  const BlockId id{4, 0};
  std::vector<uint8_t> payload(MiB(1));
  const DiskOpResult op = store.Put(id, payload);
  EXPECT_GE(op.elapsed_ms, 80.0);
}

TEST_F(DiskStoreTest, ObservedThroughputApproximatesConfig) {
  DiskStore store(dir_, MiB(50));
  store.Put(BlockId{5, 0}, std::vector<uint8_t>(MiB(1)));
  (void)store.Get(BlockId{5, 0}, nullptr);
  const double observed = store.ObservedThroughput();
  EXPECT_GT(observed, static_cast<double>(MiB(25)));
  EXPECT_LT(observed, static_cast<double>(MiB(80)));
}

TEST_F(DiskStoreTest, BlocksEnumeratesContents) {
  DiskStore store(dir_, 0);
  store.Put(BlockId{6, 0}, std::vector<uint8_t>(10));
  store.Put(BlockId{6, 1}, std::vector<uint8_t>(10));
  EXPECT_EQ(store.Blocks().size(), 2u);
  EXPECT_EQ(store.num_blocks(), 2u);
}

TEST_F(DiskStoreTest, CorruptedFileReadsAsMiss) {
  DiskStore store(dir_, 0);
  const BlockId id{11, 0};
  store.Put(id, std::vector<uint8_t>(512, 0x5A));
  // Flip one payload byte on disk behind the store's back: the CRC-32
  // trailer no longer matches, so the read must come back as a miss (the
  // caller recomputes from lineage) rather than hand out garbage.
  const std::filesystem::path file = dir_ / (id.ToString() + ".bin");
  {
    std::fstream f(file, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(100);
    const char flipped = 0x5A ^ 0x01;
    f.write(&flipped, 1);
  }
  EXPECT_EQ(store.Get(id, nullptr), std::nullopt);
  EXPECT_EQ(store.checksum_failures(), 1u);
  // The poisoned entry is dropped entirely: residency and accounting agree.
  EXPECT_FALSE(store.Contains(id));
  EXPECT_EQ(store.used_bytes(), 0u);
  // A rewrite makes the block readable again.
  store.Put(id, std::vector<uint8_t>(512, 0x5A));
  EXPECT_TRUE(store.Get(id, nullptr).has_value());
}

TEST_F(DiskStoreTest, SingleBitFlipAnywhereReadsAsMiss) {
  // First payload byte, last payload byte, and the CRC trailer itself: a
  // one-bit flip at each must fail the check, whatever 8-byte step or tail
  // byte of the checksum loop it lands in.
  DiskStore store(dir_, 0);
  std::vector<uint8_t> payload(1003);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i * 31 + 7);
  }
  const std::vector<std::streamoff> positions = {0, 1002, 1003, 1006};
  uint64_t expected_failures = 0;
  for (size_t n = 0; n < positions.size(); ++n) {
    const BlockId id{14, static_cast<uint32_t>(n)};
    store.Put(id, payload);
    const std::filesystem::path file = dir_ / (id.ToString() + ".bin");
    {
      std::fstream f(file, std::ios::in | std::ios::out | std::ios::binary);
      ASSERT_TRUE(f.good());
      f.seekg(positions[n]);
      char byte = 0;
      f.read(&byte, 1);
      byte = static_cast<char>(byte ^ 0x10);
      f.seekp(positions[n]);
      f.write(&byte, 1);
      ASSERT_TRUE(f.good());
    }
    EXPECT_EQ(store.Get(id, nullptr), std::nullopt) << "flip at byte " << positions[n];
    EXPECT_EQ(store.checksum_failures(), ++expected_failures);
    EXPECT_FALSE(store.Contains(id));
  }
}

TEST_F(DiskStoreTest, TruncatedFileReadsAsMiss) {
  DiskStore store(dir_, 0);
  const BlockId id{11, 1};
  store.Put(id, std::vector<uint8_t>(512, 0x33));
  std::filesystem::resize_file(dir_ / (id.ToString() + ".bin"), 2);  // below the trailer
  EXPECT_EQ(store.Get(id, nullptr), std::nullopt);
  EXPECT_GE(store.checksum_failures(), 1u);
}

TEST_F(DiskStoreTest, ConcurrentReadAndRemoveSameBlock) {
  DiskStore store(dir_, 0);
  const BlockId id{12, 0};
  const std::vector<uint8_t> payload(4096, 0x7C);
  store.Put(id, payload);
  // A reader racing the remove must see either the full intact payload or a
  // clean miss — never a torn read or a crash.
  std::atomic<bool> start{false};
  std::optional<std::vector<uint8_t>> got;
  std::thread reader([&] {
    while (!start.load()) {
    }
    got = store.Get(id, nullptr);
  });
  std::thread remover([&] {
    while (!start.load()) {
    }
    store.Remove(id);
  });
  start.store(true);
  reader.join();
  remover.join();
  if (got.has_value()) {
    EXPECT_EQ(*got, payload);
  }
  EXPECT_FALSE(store.Contains(id));
}

TEST_F(DiskStoreTest, ThrottledReadChargesElapsedTime) {
  // 256 KiB at 2 MiB/s: the read side of the throttle must charge ~125 ms,
  // matching what the cost model assumes for disk-tier recovery.
  DiskStore store(dir_, MiB(2));
  const BlockId id{13, 0};
  store.Put(id, std::vector<uint8_t>(KiB(256)));
  DiskOpResult op;
  ASSERT_TRUE(store.Get(id, &op).has_value());
  EXPECT_GE(op.elapsed_ms, 80.0);
  EXPECT_LT(op.elapsed_ms, 2000.0);
}

TEST(BlockManagerTest, SpillAndReadBack) {
  RunMetrics metrics(1);
  BlockManagerConfig config;
  config.memory_capacity_bytes = KiB(64);
  config.disk_dir = std::filesystem::temp_directory_path() / "blaze_bm_test";
  BlockManager bm(0, config, &metrics);

  auto block = IntBlock(9, 500);
  const BlockId id{7, 0};
  const double spill_ms = bm.SpillToDisk(id, *block);
  EXPECT_GE(spill_ms, 0.0);
  EXPECT_TRUE(bm.disk().Contains(id));

  double read_ms = 0.0;
  auto bytes = bm.ReadFromDisk(id, &read_ms);
  ASSERT_TRUE(bytes.has_value());
  ByteSource src(*bytes);
  auto decoded = TypedBlock<int>::DecodeFrom(src);
  EXPECT_EQ(decoded->rows(), std::vector<int>(500, 9));

  const auto snap = metrics.Snapshot();
  EXPECT_GT(snap.disk_bytes_written_total, 0u);
  EXPECT_EQ(snap.disk_bytes_peak, snap.disk_bytes_written_total);

  bm.RemoveFromDisk(id);
  EXPECT_FALSE(bm.disk().Contains(id));
}

TEST(BlockManagerTest, SpillReplacementKeepsMetricsExact) {
  RunMetrics metrics(1);
  BlockManagerConfig config;
  config.memory_capacity_bytes = KiB(64);
  config.disk_dir = std::filesystem::temp_directory_path() / "blaze_bm_test2";
  BlockManager bm(0, config, &metrics);
  const BlockId id{8, 0};
  bm.SpillToDisk(id, *IntBlock(1, 100));
  bm.SpillToDisk(id, *IntBlock(2, 100));  // replacement, not accumulation
  bm.RemoveFromDisk(id);
  // Peak should reflect one copy, and residency returns to zero (peak stays).
  const auto snap = metrics.Snapshot();
  EXPECT_LT(snap.disk_bytes_peak, 2u * 100u * sizeof(int) + 64);
}

}  // namespace
}  // namespace blaze
