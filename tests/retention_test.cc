// Shuffle retention: DropStale bookkeeping, lineage rebuild of lost outputs,
// result correctness under aggressive cleanup, and the cost model's
// shuffle-availability pricing.
#include <gtest/gtest.h>

#include "src/common/units.h"

#include "src/blaze/cost_model.h"
#include "src/cache/policies.h"
#include "src/cache/policy_coordinator.h"
#include "src/dataflow/dag_scheduler.h"
#include "src/dataflow/pair_rdd.h"
#include "src/dataflow/rdd.h"

namespace blaze {
namespace {

TEST(RetentionTest, DropStaleRemovesUntouchedShuffles) {
  ShuffleService service;
  const int a = service.NewShuffleId();
  const int b = service.NewShuffleId();
  service.PutBucket(a, 0, 0, MakeBlock(std::vector<int>{1}));
  service.PutBucket(b, 0, 0, MakeBlock(std::vector<int>{2}));
  service.MarkUsed(a, 0);
  service.MarkUsed(b, 3);
  service.DropStale(/*current_job=*/3, /*retention_jobs=*/2);
  EXPECT_EQ(service.GetBucket(a, 0, 0), nullptr);  // last used job 0 <= 3-2
  EXPECT_NE(service.GetBucket(b, 0, 0), nullptr);
}

TEST(RetentionTest, MarkUsedKeepsLatestJob) {
  ShuffleService service;
  const int id = service.NewShuffleId();
  service.PutBucket(id, 0, 0, MakeBlock(std::vector<int>{1}));
  service.MarkUsed(id, 5);
  service.MarkUsed(id, 2);  // older mark must not regress
  service.DropStale(5, 2);
  EXPECT_NE(service.GetBucket(id, 0, 0), nullptr);
  service.DropStale(8, 2);
  EXPECT_EQ(service.GetBucket(id, 0, 0), nullptr);
}

// The engine with aggressive retention must still produce correct results —
// lost shuffle outputs rebuild through the lineage.
TEST(RetentionTest, ResultsSurviveAggressiveRetention) {
  auto run = [](int retention) {
    EngineConfig config;
    config.num_executors = 2;
    config.threads_per_executor = 2;
    config.memory_capacity_per_executor = KiB(64);
    config.shuffle_retention_jobs = retention;
    EngineContext engine(config);
    engine.SetCoordinator(std::make_unique<PolicyCoordinator>(&engine, MakePolicy("lru"),
                                                              EvictionMode::kMemOnly));
    auto base = Generate<std::pair<uint32_t, int>>(&engine, "ret.base", 4, [](uint32_t p) {
      std::vector<std::pair<uint32_t, int>> rows;
      for (uint32_t k = 0; k < 400; ++k) {
        rows.emplace_back((k + p * 37) % 50, 1);
      }
      return rows;
    });
    auto reduced = ReduceByKey<uint32_t, int>(
        base, [](const int& a, const int& b) { return a + b; }, 4, "ret.reduce");
    reduced->Cache();
    uint64_t fingerprint = 0;  // unsigned: the hash wraps by design
    for (int job = 0; job < 5; ++job) {
      auto derived = MapValues(
          reduced, [job](const int& v) { return v + job; }, "ret.derived");
      const auto rows = derived->Collect();
      for (const auto& [key, value] : rows) {
        fingerprint = fingerprint * 31 + key + value;
      }
    }
    return fingerprint;
  };
  const uint64_t keep_all = run(0);
  EXPECT_EQ(run(2), keep_all);
  EXPECT_EQ(run(1), keep_all);
}

TEST(RetentionTest, CostModelPricesMissingShuffleRebuild) {
  EngineConfig config;
  config.num_executors = 1;
  config.threads_per_executor = 1;
  config.memory_capacity_per_executor = MiB(8);
  EngineContext engine(config);
  CostLineage lineage;
  auto base = Parallelize<std::pair<uint32_t, int>>(&engine, "base",
                                                    {{0, 1}, {1, 2}, {2, 3}}, 2);
  auto reduced = ReduceByKey<uint32_t, int>(
      base, [](const int& a, const int& b) { return a + b; }, 1);
  lineage.ObserveJobStart(engine.scheduler().AnalyzeJob(reduced, 0));
  lineage.ObserveBlockComputed(base->id(), 0, 1000, 40.0);
  lineage.ObserveBlockComputed(base->id(), 1, 1000, 60.0);
  lineage.ObserveBlockComputed(reduced->id(), 0, 1000, 7.0);

  // Outputs available: re-aggregation only.
  CostEstimator with_outputs(&lineage, 1e6, true, [](RddId) { return true; });
  EXPECT_NEAR(with_outputs.Estimate(reduced->id(), 0).cost_r_ms, 7.0, 1e-9);

  // Outputs lost: the rebuild recomputes *every* map partition (sum: 40+60).
  CostEstimator without_outputs(&lineage, 1e6, true, [](RddId) { return false; });
  EXPECT_NEAR(without_outputs.Estimate(reduced->id(), 0).cost_r_ms, 107.0, 1e-9);

  // Map partitions in memory drop out of the rebuild sum.
  lineage.SetState(base->id(), 1, PartitionState::kMemory);
  CostEstimator partial(&lineage, 1e6, true, [](RddId) { return false; });
  EXPECT_NEAR(partial.Estimate(reduced->id(), 0).cost_r_ms, 47.0, 1e-9);
}

TEST(RetentionTest, DefaultConfigRetainsForever) {
  EngineConfig config;
  EXPECT_EQ(config.shuffle_retention_jobs, 0);
}

}  // namespace
}  // namespace blaze
