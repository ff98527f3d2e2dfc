// BlazeCoordinator behaviour: auto-caching by future references, timely
// auto-unpersist, cost-aware eviction with the recompute-vs-spill choice, and
// the ILP plan's state transitions.
#include <gtest/gtest.h>

#include "src/common/units.h"

#include <atomic>
#include <future>

#include "src/blaze/blaze_coordinator.h"
#include "src/blaze/blaze_runner.h"
#include "src/dataflow/pair_rdd.h"
#include "src/dataflow/rdd.h"
#include "src/metrics/registry.h"

namespace blaze {
namespace {

EngineConfig TinyConfig(uint64_t capacity) {
  EngineConfig config;
  config.num_executors = 1;
  config.threads_per_executor = 1;
  config.memory_capacity_per_executor = capacity;
  return config;
}

// An iterative chain driver: every iteration derives next from current and
// counts it; current is referenced by the next iteration (reuse!).
void ChainDriver(EngineContext& engine, int iterations, size_t rows_per_part) {
  auto base = Generate<int>(&engine, "chain.base", 4, [rows_per_part](uint32_t p) {
    return std::vector<int>(rows_per_part, static_cast<int>(p));
  });
  base->Count();
  auto current = base;
  for (int i = 0; i < iterations; ++i) {
    auto next = current->Map([](const int& x) { return x + 1; }, "chain.iter");
    next->Count();
    current = next;
  }
}

TEST(BlazeCoordinatorTest, AutoCachesReusedDataWithoutAnnotations) {
  EngineContext engine(TinyConfig(MiB(16)));
  auto coordinator = std::make_unique<BlazeCoordinator>(&engine, BlazeOptions::Full());
  BlazeCoordinator* handle = coordinator.get();
  engine.SetCoordinator(std::move(coordinator));

  // No Cache() annotations anywhere; Blaze must discover the reuse itself.
  ChainDriver(engine, 5, 5000);
  // After a few iterations the congruence class has learned offset 1 and the
  // latest iterate should be resident.
  EXPECT_GT(engine.TotalMemoryUsed(), 0u);
  EXPECT_GT(handle->lineage().num_nodes(), 4u);
}

TEST(BlazeCoordinatorTest, NeverCachesDataWithoutFutureReferences) {
  EngineContext engine(TinyConfig(MiB(16)));
  engine.SetCoordinator(std::make_unique<BlazeCoordinator>(&engine, BlazeOptions::Full()));
  // A one-shot pipeline: nothing is ever reused.
  auto base = Generate<int>(&engine, "oneshot", 4,
                            [](uint32_t p) { return std::vector<int>(1000, (int)p); });
  auto mapped = base->Map([](const int& x) { return x * 2; });
  EXPECT_EQ(mapped->Count(), 4000u);
  EXPECT_EQ(engine.TotalMemoryUsed(), 0u);
  EXPECT_EQ(engine.block_manager(0).disk().used_bytes(), 0u);
}

TEST(BlazeCoordinatorTest, AutoUnpersistsStaleIterates) {
  EngineContext engine(TinyConfig(MiB(64)));
  engine.SetCoordinator(std::make_unique<BlazeCoordinator>(&engine, BlazeOptions::Full()));
  ChainDriver(engine, 6, 5000);
  // With ample memory, naive caching would retain every iterate (~6 x 20 KB x 4
  // parts). Auto-unpersist keeps only the ones with remaining references.
  const auto snap = engine.metrics().Snapshot();
  EXPECT_GT(snap.unpersists, 0u);
  // Only the newest iterate (plus possibly base) should remain resident:
  // well under three iterates' worth of bytes.
  EXPECT_LT(engine.TotalMemoryUsed(), 3u * 4u * 5000u * sizeof(int));
}

// Holds an executor's spill worker inside a fetch callback until it goes out
// of scope, so every spill enqueued meanwhile stays queued.
class ParkedWorker {
 public:
  explicit ParkedWorker(BlockManager& bm) {
    std::shared_future<void> gate = release_.get_future().share();
    const bool queued = bm.FetchAsync(BlockId{999, 0}, [this, gate](auto, double) {
      started_.set_value();
      gate.wait();
    });
    EXPECT_TRUE(queued);
    if (queued) {
      started_.get_future().wait();
    }
  }
  ~ParkedWorker() { release_.set_value(); }
  ParkedWorker(const ParkedWorker&) = delete;
  ParkedWorker& operator=(const ParkedWorker&) = delete;

 private:
  std::promise<void> started_;
  std::promise<void> release_;
};

TEST(BlazeCoordinatorTest, AutoUnpersistCancelsQueuedSpills) {
  // Blocks larger than memory go straight to the disk tier (CostAware, no
  // ILP: its planning round would drain the parked queue). With the spill
  // worker parked, a stale iterate's write is still queued when its last
  // reference passes; the refcount-zero sweep must revoke it, not let it
  // land on disk once the worker resumes.
  EngineContext engine(TinyConfig(KiB(64)));
  auto coordinator = std::make_unique<BlazeCoordinator>(&engine, BlazeOptions::CostAware());
  BlazeCoordinator* handle = coordinator.get();
  engine.SetCoordinator(std::move(coordinator));
  BlockManager& bm = engine.block_manager(0);
  const TelemetryCounter* cancelled = MetricsRegistry::Global().Counter("spill.cancelled");
  const uint64_t cancelled_before = cancelled->Value();
  const auto referenced = [&](const BlockId& id) {
    return handle->lineage().FutureRefCount(id.rdd_id, handle->lineage().current_job(),
                                            /*include_current=*/true) > 0;
  };
  {
    ParkedWorker parked(bm);
    ChainDriver(engine, 6, 30000);  // ~120 KB per partition > capacity
    EXPECT_EQ(bm.disk().num_blocks(), 0u);
    for (const BlockId& id : bm.PendingSpills()) {
      EXPECT_TRUE(referenced(id)) << id.ToString() << " still queued";
    }
  }
  bm.DrainSpills();
  EXPECT_GT(bm.disk().num_blocks(), 0u);  // the live iterate did spill
  for (const BlockId& id : bm.disk().Blocks()) {
    EXPECT_TRUE(referenced(id)) << id.ToString() << " reached disk";
  }
  EXPECT_GT(cancelled->Value() - cancelled_before, 0u);
  EXPECT_GT(engine.metrics().Snapshot().unpersists, 0u);
}

TEST(BlazeCoordinatorTest, IgnoresUserAnnotationsInAutoMode) {
  EngineContext engine(TinyConfig(MiB(16)));
  engine.SetCoordinator(std::make_unique<BlazeCoordinator>(&engine, BlazeOptions::Full()));
  auto base = Generate<int>(&engine, "annotated", 4,
                            [](uint32_t p) { return std::vector<int>(1000, (int)p); });
  base->Cache();  // user annotation on single-use data
  EXPECT_EQ(base->Count(), 4000u);
  EXPECT_EQ(engine.TotalMemoryUsed(), 0u);
}

TEST(BlazeCoordinatorTest, SpillsOnlyWhenDiskBeatsRecompute) {
  // Cheap-to-recompute blocks should be discarded, not spilled, by full Blaze.
  EngineConfig config = TinyConfig(KiB(64));
  config.disk_throughput_bytes_per_sec = MiB(1);  // slow disk: spills expensive
  EngineContext engine(config);
  engine.SetCoordinator(std::make_unique<BlazeCoordinator>(&engine, BlazeOptions::Full()));
  // Big blocks, trivial compute: disk cost >> recompute cost.
  ChainDriver(engine, 6, 30000);  // ~120 KB per partition > capacity
  const auto snap = engine.metrics().Snapshot();
  EXPECT_EQ(snap.evictions_to_disk, 0u);
}

TEST(BlazeCoordinatorTest, MemoryOnlyVariantNeverTouchesDisk) {
  EngineContext engine(TinyConfig(KiB(64)));
  engine.SetCoordinator(
      std::make_unique<BlazeCoordinator>(&engine, BlazeOptions::MemoryOnly()));
  ChainDriver(engine, 6, 30000);
  EXPECT_EQ(engine.block_manager(0).disk().used_bytes(), 0u);
  EXPECT_EQ(engine.metrics().Snapshot().evictions_to_disk, 0u);
}

TEST(BlazeCoordinatorTest, AblationFlagsCompose) {
  const BlazeOptions auto_only = BlazeOptions::AutoCacheOnly();
  EXPECT_TRUE(auto_only.auto_cache);
  EXPECT_FALSE(auto_only.cost_aware_eviction);
  EXPECT_FALSE(auto_only.ilp);
  const BlazeOptions cost_aware = BlazeOptions::CostAware();
  EXPECT_TRUE(cost_aware.cost_aware_eviction);
  EXPECT_FALSE(cost_aware.ilp);
  const BlazeOptions full = BlazeOptions::Full();
  EXPECT_TRUE(full.ilp);
  EXPECT_TRUE(full.use_disk);
}

TEST(BlazeCoordinatorTest, IlpPlanRunsAtEveryJobStart) {
  EngineContext engine(TinyConfig(MiB(4)));
  engine.SetCoordinator(std::make_unique<BlazeCoordinator>(&engine, BlazeOptions::Full()));
  ChainDriver(engine, 4, 2000);
  const auto snap = engine.metrics().Snapshot();
  EXPECT_EQ(snap.solver_invocations, 5u);  // base job + 4 iteration jobs
}

TEST(BlazeCoordinatorTest, RunWithBlazeSeedsProfileAndRecordsTime) {
  EngineContext engine(TinyConfig(MiB(16)));
  BlazeRunConfig config;
  config.options = BlazeOptions::Full();
  config.profiling_driver = [](EngineContext& profiling_engine) {
    ChainDriver(profiling_engine, 5, 10);  // miniature sample
  };
  BlazeCoordinator* handle =
      RunWithBlaze(engine, config, [](EngineContext& e) { ChainDriver(e, 5, 5000); });
  ASSERT_NE(handle, nullptr);
  const auto snap = engine.metrics().Snapshot();
  EXPECT_GT(snap.profiling_ms, 0.0);
  EXPECT_GT(handle->lineage().num_nodes(), 4u);
}

}  // namespace
}  // namespace blaze
