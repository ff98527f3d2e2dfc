// Columnar (struct-of-arrays) blocks and lifetime arenas: wire-format round
// trips through the CRC-trailer disk store, arena release bound to
// unpersist/eviction under pin refcounts, ledger balance for arena-backed
// blocks, representation-size consistency (MCKP size terms must not shift
// with representation), engine-level representation selection, and a
// thread-heavy stress mixing columnar blocks with the async SpillQueue (for
// the TSan build).
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <thread>
#include <vector>

#include "src/cache/policies.h"
#include "src/cache/policy_coordinator.h"
#include "src/common/block_arena.h"
#include "src/common/units.h"
#include "src/dataflow/engine_context.h"
#include "src/dataflow/rdd.h"
#include "src/storage/block_manager.h"
#include "src/storage/memory_arbiter.h"
#include "src/storage/memory_store.h"
#include "src/workloads/element_types.h"

namespace blaze {
namespace {

std::vector<LogEvent> MakeEvents(size_t n) {
  std::vector<LogEvent> out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i].timestamp = 1000 + i;
    out[i].severity = static_cast<uint32_t>(i % 5);
    out[i].message = std::string(i % 40, static_cast<char>('a' + i % 26));
  }
  return out;
}

std::vector<FactorVec> MakeFactors(size_t n, size_t rank) {
  std::vector<FactorVec> out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i].values.assign(rank, 0.5 * static_cast<double>(i));
    out[i].bias = static_cast<double>(i);
    out[i].weight = 2.0 * static_cast<double>(i);
  }
  return out;
}

// --- arena ------------------------------------------------------------------------

TEST(BlockArenaTest, BumpAllocationAndBulkRelease) {
  const uint64_t baseline = BlockArena::TotalLiveBytes();
  BlockArena arena;
  auto* a = arena.AllocateArray<double>(100);
  auto* b = arena.AllocateArray<uint32_t>(7);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  a[99] = 1.5;
  b[6] = 42;
  EXPECT_GE(arena.bytes_used(), 100 * sizeof(double) + 7 * sizeof(uint32_t));
  EXPECT_GE(arena.bytes_reserved(), arena.bytes_used());
  EXPECT_EQ(BlockArena::TotalLiveBytes(), baseline + arena.bytes_reserved());
  arena.Release();
  EXPECT_EQ(arena.bytes_reserved(), 0u);
  EXPECT_EQ(BlockArena::TotalLiveBytes(), baseline);
}

TEST(BlockArenaTest, ExactReservationUsesOneChunk) {
  // A builder that knows its payload (BlazeColumns::ArenaBytes) reserves once
  // and the ledger-visible size equals the request exactly.
  const size_t want = BlockArena::Aligned(1000 * sizeof(double)) +
                      BlockArena::Aligned(1001 * sizeof(uint32_t));
  BlockArena arena(want);
  EXPECT_EQ(arena.bytes_reserved(), want);
  (void)arena.AllocateArray<double>(1000);
  (void)arena.AllocateArray<uint32_t>(1001);
  EXPECT_EQ(arena.bytes_reserved(), want);  // no growth: estimate was exact
}

// --- wire format ------------------------------------------------------------------

TEST(ColumnarBlockTest, RowAndColumnarWireTagsDispatch) {
  const auto rows = MakeEvents(50);
  ByteSink row_sink;
  TypedBlock<LogEvent>(std::vector<LogEvent>(rows)).EncodeTo(row_sink);
  ByteSink col_sink;
  ColumnarBlock<LogEvent>(rows).EncodeTo(col_sink);

  ByteSource row_src(row_sink.data());
  EXPECT_EQ(row_src.PeekByte(), kRowWireTag);
  EXPECT_EQ(TypedBlock<LogEvent>::DecodeFrom(row_src)->rows(), rows);
  EXPECT_TRUE(row_src.AtEnd());

  ByteSource col_src(col_sink.data());
  EXPECT_EQ(col_src.PeekByte(), kColumnarWireTag);
  auto back = ColumnarBlock<LogEvent>::DecodeFrom(col_src);
  EXPECT_TRUE(col_src.AtEnd());
  EXPECT_EQ(back->NumRows(), rows.size());
  EXPECT_EQ(RowsOf<LogEvent>(back->MaterializeRows()), rows);
}

TEST(ColumnarBlockTest, EmptyAndPairBlocksRoundTrip) {
  const std::vector<LogEvent> empty;
  ByteSink sink;
  ColumnarBlock<LogEvent>(empty).EncodeTo(sink);
  ByteSource src(sink.data());
  EXPECT_EQ(ColumnarBlock<LogEvent>::DecodeFrom(src)->NumRows(), 0u);

  std::vector<std::pair<uint32_t, double>> pairs{{1, 0.5}, {2, 1.5}, {3, -2.0}};
  ByteSink pair_sink;
  ColumnarBlock<std::pair<uint32_t, double>> pair_block(pairs);
  pair_block.EncodeTo(pair_sink);
  ByteSource pair_src(pair_sink.data());
  auto back = ColumnarBlock<std::pair<uint32_t, double>>::DecodeFrom(pair_src);
  EXPECT_EQ((RowsOf<std::pair<uint32_t, double>>(back->MaterializeRows())), pairs);
}

// Columnar encode -> CRC-trailer disk spill -> read -> decode equality, via
// the same BlockManager path evictions take.
TEST(ColumnarBlockTest, SpillRoundTripThroughCrcDisk) {
  const auto dir = std::filesystem::temp_directory_path() / "blaze_columnar_spill_test";
  std::filesystem::remove_all(dir);
  {
    RunMetrics metrics(1);
    BlockManagerConfig config;
    config.memory_capacity_bytes = MiB(4);
    config.disk_dir = dir;
    BlockManager bm(0, config, &metrics);

    const auto factors = MakeFactors(500, 8);
    const BlockId id{7, 0};
    ColumnarBlock<FactorVec> block(factors);
    bm.SpillToDisk(id, block);

    double read_ms = 0.0;
    auto bytes = bm.ReadFromDisk(id, &read_ms);
    ASSERT_TRUE(bytes.has_value());
    ByteSource src(*bytes);
    ASSERT_EQ(src.PeekByte(), kColumnarWireTag);
    auto back = ColumnarBlock<FactorVec>::DecodeFrom(src);
    const BlockPtr materialized = back->MaterializeRows();
    const auto& rows = RowsOf<FactorVec>(materialized);
    ASSERT_EQ(rows.size(), factors.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(rows[i].values, factors[i].values);
      EXPECT_DOUBLE_EQ(rows[i].bias, factors[i].bias);
      EXPECT_DOUBLE_EQ(rows[i].weight, factors[i].weight);
    }
  }
  std::filesystem::remove_all(dir);
}

// --- arena lifetime under pins + ledger balance -----------------------------------

TEST(ColumnarArenaLifetimeTest, ArenaReleasedOnUnpersistNotWhilePinned) {
  const uint64_t baseline = BlockArena::TotalLiveBytes();
  MemoryArbiter arbiter(MiB(4), MiB(1));
  MemoryStore store(MiB(4), &arbiter);
  const BlockId id{3, 0};

  BlockPtr block = MakeColumnarBlock(MakeEvents(2000));
  const uint64_t size = block->SizeBytes();
  store.Put(id, block, size);
  block.reset();  // the store is now the only owner
  EXPECT_EQ(arbiter.cache_used_bytes(), size);
  EXPECT_GT(BlockArena::TotalLiveBytes(), baseline);

  // A pinned reader blocks eviction — and the arena stays live.
  auto pinned = store.GetAndPin(id);
  ASSERT_TRUE(pinned.has_value());
  EXPECT_EQ(store.RemoveIfUnpinned(id), 0u);
  EXPECT_GT(BlockArena::TotalLiveBytes(), baseline);

  // Unpersist (Remove ignores pins): the ledger releases the recorded bytes
  // immediately, but the arena lives until the last reader drops its ref.
  EXPECT_EQ(store.Remove(id), size);
  EXPECT_EQ(arbiter.cache_used_bytes(), 0u);
  EXPECT_GT(BlockArena::TotalLiveBytes(), baseline);
  store.Unpin(id);  // no-op after Remove, pairs the GetAndPin
  pinned.reset();   // last reference: one bulk arena release, no dtor walk
  EXPECT_EQ(BlockArena::TotalLiveBytes(), baseline);
}

TEST(ColumnarArenaLifetimeTest, EvictionReleasesArenaOnceUnpinned) {
  const uint64_t baseline = BlockArena::TotalLiveBytes();
  MemoryArbiter arbiter(MiB(4), MiB(1));
  MemoryStore store(MiB(4), &arbiter);
  const BlockId id{4, 1};
  {
    BlockPtr block = MakeColumnarBlock(MakeFactors(1000, 8));
    store.Put(id, block, block->SizeBytes());
  }
  auto pinned = store.GetAndPin(id);
  ASSERT_TRUE(pinned.has_value());
  EXPECT_EQ(store.RemoveIfUnpinned(id), 0u);  // eviction refused while pinned
  store.Unpin(id);
  pinned.reset();
  EXPECT_GT(store.RemoveIfUnpinned(id), 0u);  // now evictable
  EXPECT_EQ(arbiter.cache_used_bytes(), 0u);  // ledger balances to zero
  EXPECT_EQ(BlockArena::TotalLiveBytes(), baseline);
}

TEST(ColumnarArenaLifetimeTest, LedgerBalancesToZeroAcrossManyArenaBlocks) {
  const uint64_t baseline = BlockArena::TotalLiveBytes();
  MemoryArbiter arbiter(MiB(16), MiB(4));
  MemoryStore store(MiB(16), &arbiter);
  for (uint32_t p = 0; p < 8; ++p) {
    BlockPtr block = MakeColumnarBlock(MakeEvents(200 + 100 * p));
    ASSERT_TRUE(store.TryPut(BlockId{9, p}, block, block->SizeBytes()));
  }
  EXPECT_GT(arbiter.cache_used_bytes(), 0u);
  for (uint32_t p = 0; p < 8; ++p) {
    store.Remove(BlockId{9, p});
  }
  EXPECT_EQ(arbiter.cache_used_bytes(), 0u);
  EXPECT_EQ(BlockArena::TotalLiveBytes(), baseline);
}

// --- representation-size consistency (MCKP size terms) ----------------------------

// The columnar footprint must track the row-side ApproxByteSize estimate
// closely enough that cost-model size terms do not shift with representation:
// columnar is never bigger, and never smaller than half (the residual gap is
// per-row container-header overhead the arena layout sheds).
template <typename T>
void ExpectSizesConsistent(const std::vector<T>& rows) {
  const size_t row_bytes = ApproxByteSize(rows);
  const size_t col_bytes = ColumnarBlock<T>(rows).SizeBytes();
  EXPECT_LE(col_bytes, row_bytes + kColumnarBlockOverheadBytes);
  EXPECT_GE(col_bytes * 2, row_bytes);
}

TEST(RepresentationSizeTest, ColumnarTracksRowEstimateWithinTolerance) {
  ExpectSizesConsistent(MakeEvents(3000));
  ExpectSizesConsistent(MakeFactors(3000, 8));
  std::vector<LabeledPoint> points(1000);
  for (size_t i = 0; i < points.size(); ++i) {
    points[i].label = static_cast<double>(i);
    points[i].features.assign(32, 0.25);
  }
  ExpectSizesConsistent(points);
  std::vector<std::pair<uint32_t, double>> pairs(5000, {7, 1.5});
  ExpectSizesConsistent(pairs);
}

// --- engine-level representation selection ----------------------------------------

TEST(ColumnarEngineTest, CachedDatasetIsStoredColumnarAndReadsBack) {
  const uint64_t baseline = BlockArena::TotalLiveBytes();
  EngineConfig config;
  config.num_executors = 2;
  config.threads_per_executor = 2;
  {
    EngineContext engine(config);
    engine.SetCoordinator(std::make_unique<PolicyCoordinator>(&engine, MakePolicy("lru"),
                                                              EvictionMode::kMemAndDisk));
    const auto data = MakeFactors(4000, 8);
    auto rdd = Parallelize<FactorVec>(&engine, "factors", data, 4);
    rdd->Cache();
    EXPECT_EQ(rdd->Count(), data.size());

    // The cached copies converted to columnar at admission...
    const auto snap1 = engine.metrics().Snapshot();
    EXPECT_GT(snap1.columnar_blocks, 0u);
    EXPECT_GT(snap1.columnar_bytes, 0u);
    EXPECT_GT(snap1.columnar_row_bytes, 0u);
    EXPECT_GT(BlockArena::TotalLiveBytes(), baseline);

    // ...and the second pass reads them back intact — straight off the
    // columns: Aggregate consumes raw blocks through ForEachRow, so the hit
    // skips the row decode entirely and counts a materialization avoided.
    auto sum = rdd->Aggregate<double>(
        0.0, [](double& acc, const FactorVec& f) { acc += f.bias; },
        [](double& acc, const double& other) { acc += other; });
    double want = 0.0;
    for (const auto& f : data) {
      want += f.bias;
    }
    EXPECT_DOUBLE_EQ(sum, want);
    const auto snap2 = engine.metrics().Snapshot();
    EXPECT_GT(snap2.cache_hits_memory, 0u);
    EXPECT_GT(snap2.total_task.materializations_avoided, 0u);
    EXPECT_EQ(snap2.columnar_decodes, 0u);

    // Unpersist drops every tier; the arenas die with the blocks.
    rdd->Unpersist();
    engine.DrainAllSpills();
    EXPECT_EQ(BlockArena::TotalLiveBytes(), baseline);
  }
}

// --- async spill queue stress (TSan target) ---------------------------------------

// Writers push columnar blocks through SpillAsync while readers hit the
// write-claim read-through and decoders consume committed files; an unpersist
// thread cancels in-flight spills. Exercises SpillQueue + arena lifetime
// under real concurrency.
TEST(ColumnarSpillStressTest, ArenaBlocksThroughAsyncSpillQueue) {
  const uint64_t baseline = BlockArena::TotalLiveBytes();
  const auto dir = std::filesystem::temp_directory_path() / "blaze_columnar_stress_test";
  std::filesystem::remove_all(dir);
  {
    RunMetrics metrics(1);
    BlockManagerConfig config;
    config.memory_capacity_bytes = MiB(16);
    config.disk_dir = dir;
    config.spill_queue_depth = 4;  // small bound: exercise the sync fallback
    BlockManager bm(0, config, &metrics);

    constexpr uint32_t kBlocks = 48;
    std::atomic<uint32_t> spilled{0};
    std::thread writer([&] {
      for (uint32_t p = 0; p < kBlocks; ++p) {
        BlockPtr block = MakeColumnarBlock(MakeFactors(200 + p, 8));
        const BlockId id{11, p};
        if (!bm.SpillAsync(id, block)) {
          bm.SpillToDisk(id, *block);
        }
        spilled.fetch_add(1);
      }
    });
    std::thread canceller([&] {
      for (uint32_t p = 0; p < kBlocks; p += 5) {
        bm.CancelSpill(BlockId{11, p});
      }
    });
    std::thread reader([&] {
      uint64_t hits = 0;
      while (spilled.load() < kBlocks) {
        for (uint32_t p = 0; p < kBlocks; ++p) {
          if (auto in_flight = bm.InFlightSpill(BlockId{11, p})) {
            hits += (*in_flight)->NumRows();
          }
        }
      }
      ASSERT_GE(hits, 0u);
    });
    writer.join();
    canceller.join();
    reader.join();
    bm.DrainSpills();

    // Every committed file decodes back to intact columnar rows.
    uint32_t on_disk = 0;
    for (uint32_t p = 0; p < kBlocks; ++p) {
      double read_ms = 0.0;
      auto bytes = bm.ReadFromDisk(BlockId{11, p}, &read_ms);
      if (!bytes) {
        continue;
      }
      ++on_disk;
      ByteSource src(*bytes);
      auto back = ColumnarBlock<FactorVec>::DecodeFrom(src);
      EXPECT_EQ(back->NumRows(), 200u + p);
      EXPECT_DOUBLE_EQ(RowsOf<FactorVec>(back->MaterializeRows())[10].bias, 10.0);
    }
    EXPECT_GT(on_disk, 0u);
  }
  EXPECT_EQ(BlockArena::TotalLiveBytes(), baseline);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace blaze
