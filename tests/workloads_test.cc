// Workload driver tests. The central property: a workload's *result* must be
// identical regardless of the caching system underneath — caching can only
// change performance, never answers. Each workload is run at miniature scale
// under (a) no caching, (b) Spark-style LRU MEM+DISK with a memory store below
// the working set, and (c) full Blaze, and the results are compared
// bit-for-bit. Run (b) must evict to disk and read back from it, or the
// comparison never leaves the all-resident path.
#include <gtest/gtest.h>

#include "src/common/units.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <string>

#include "src/workloads/connected_components.h"
#include "src/dataflow/pair_rdd.h"
#include "src/workloads/datagen.h"
#include "src/workloads/gbt.h"
#include "src/workloads/kmeans.h"
#include "src/workloads/logistic_regression.h"
#include "src/workloads/pagerank.h"
#include "src/workloads/svdpp.h"
#include "src/workloads/systems.h"

namespace blaze {
namespace {

WorkloadParams TestParams() {
  WorkloadParams params;
  params.partitions = 4;
  params.iterations = 3;
  params.scale = 1.0 / 64.0;
  return params;
}

std::unique_ptr<EngineContext> MakeEngine(uint64_t capacity = MiB(64)) {
  EngineConfig config;
  config.num_executors = 2;
  config.threads_per_executor = 2;
  config.memory_capacity_per_executor = capacity;
  return std::make_unique<EngineContext>(config);
}

// Results under "none", "spark-memdisk" and "blaze", in that order. The two
// caching systems get 64 KiB per executor: every workload's working set at
// this scale is several times that (at 256 KiB none of them evicts).
template <typename ResultT, typename RunFn>
std::vector<ResultT> RunUnderAllSystems(RunFn run) {
  std::vector<ResultT> results;
  for (const std::string system : {"none", "spark-memdisk", "blaze"}) {
    auto engine = system == "none" ? MakeEngine() : MakeEngine(KiB(64));
    InstallSystem(*engine, system);
    results.push_back(run(*engine));
    if (system == "spark-memdisk") {
      const auto snap = engine->metrics().Snapshot();
      EXPECT_GT(snap.evictions_to_disk, 0u) << "capacity does not bind";
      EXPECT_GT(snap.cache_hits_disk, 0u) << "nothing read back from disk";
    }
  }
  return results;
}

TEST(WorkloadTest, PageRankResultIndependentOfCachingSystem) {
  const auto results = RunUnderAllSystems<PageRankResult>(
      [](EngineContext& engine) { return RunPageRank(engine, TestParams()); });
  ASSERT_EQ(results.size(), 3u);
  EXPECT_GT(results[0].rank_sum, 0.0);
  // Total rank roughly conserves vertex count (damping keeps it near N).
  EXPECT_NEAR(results[0].rank_sum / results[0].num_vertices, 1.0, 0.25);
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_DOUBLE_EQ(results[0].rank_sum, results[i].rank_sum);
  }
}

TEST(WorkloadTest, ConnectedComponentsResultIndependentOfCachingSystem) {
  WorkloadParams params = TestParams();
  params.iterations = 8;
  const auto results = RunUnderAllSystems<ConnectedComponentsResult>(
      [&params](EngineContext& engine) { return RunConnectedComponents(engine, params); });
  EXPECT_GT(results[0].num_components, 0u);
  EXPECT_GT(results[0].iterations_run, 1);
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[0].num_components, results[i].num_components);
    EXPECT_EQ(results[0].iterations_run, results[i].iterations_run);
  }
}

TEST(WorkloadTest, LogisticRegressionConvergesAndIsSystemIndependent) {
  WorkloadParams params = TestParams();
  params.iterations = 5;
  const auto results = RunUnderAllSystems<LogisticRegressionResult>(
      [&params](EngineContext& engine) { return RunLogisticRegression(engine, params); });
  // The planted separator alternates sign; learned weights should follow it.
  const auto& w = results[0].weights;
  ASSERT_GE(w.size(), 2u);
  EXPECT_GT(w[0], 0.0);
  EXPECT_LT(w[1], 0.0);
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[0].weights, results[i].weights);
  }
}

TEST(WorkloadTest, KMeansReducesInertiaAndIsSystemIndependent) {
  WorkloadParams params = TestParams();
  params.iterations = 4;
  const auto results = RunUnderAllSystems<KMeansResult>(
      [&params](EngineContext& engine) { return RunKMeans(engine, params); });
  EXPECT_GT(results[0].inertia, 0.0);
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_DOUBLE_EQ(results[0].inertia, results[i].inertia);
    EXPECT_EQ(results[0].centroids, results[i].centroids);
  }
}

TEST(WorkloadTest, GbtImprovesTrainingErrorAndIsSystemIndependent) {
  WorkloadParams params = TestParams();
  params.iterations = 4;
  const auto results = RunUnderAllSystems<GbtResult>(
      [&params](EngineContext& engine) { return RunGbt(engine, params); });
  ASSERT_EQ(results[0].model.size(), 4u);
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_DOUBLE_EQ(results[0].training_mse, results[i].training_mse);
    ASSERT_EQ(results[0].model.size(), results[i].model.size());
    for (size_t m = 0; m < results[0].model.size(); ++m) {
      EXPECT_EQ(results[0].model[m].feature, results[i].model[m].feature);
      EXPECT_DOUBLE_EQ(results[0].model[m].left_value, results[i].model[m].left_value);
    }
  }
}

TEST(WorkloadTest, GbtResidualMseDecreasesOverRounds) {
  // The MSE reported at round k is the residual variance *before* that
  // round's stump; a longer run must end with a smaller residual.
  auto engine = MakeEngine();
  WorkloadParams params = TestParams();
  params.iterations = 1;
  const double early = RunGbt(*engine, params).training_mse;
  auto engine2 = MakeEngine();
  params.iterations = 8;
  const double late = RunGbt(*engine2, params).training_mse;
  EXPECT_LT(late, early);
}

TEST(WorkloadTest, SvdppReducesRmseAndIsSystemIndependent) {
  WorkloadParams params = TestParams();
  params.iterations = 3;
  const auto results = RunUnderAllSystems<SvdppResult>(
      [&params](EngineContext& engine) { return RunSvdpp(engine, params); });
  EXPECT_GT(results[0].rmse, 0.0);
  EXPECT_LT(results[0].rmse, 3.0);  // ratings are 1..5 around mean 3
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_DOUBLE_EQ(results[0].rmse, results[i].rmse);
  }
}

TEST(WorkloadTest, RegistryProvidesAllSixWorkloads) {
  const auto names = AllWorkloadNames();
  ASSERT_EQ(names.size(), 6u);
  for (const auto& name : names) {
    auto workload = MakeWorkload(name);
    ASSERT_NE(workload, nullptr);
    EXPECT_EQ(workload->name(), name);
    EXPECT_GT(workload->DefaultParams().iterations, 0);
  }
}

TEST(DatagenTest, PowerLawEdgesCoverEveryVertex) {
  std::set<uint32_t> sources;
  for (uint32_t p = 0; p < 4; ++p) {
    for (const auto& [src, dst] : GeneratePowerLawEdges(p, 4, 100, 3, 1.5, 7)) {
      EXPECT_LT(src, 100u);
      EXPECT_LT(dst, 100u);
      sources.insert(src);
    }
  }
  EXPECT_EQ(sources.size(), 100u);
}

TEST(DatagenTest, PowerLawInDegreeIsSkewed) {
  std::vector<int> in_degree(1000, 0);
  for (uint32_t p = 0; p < 4; ++p) {
    for (const auto& [src, dst] : GeneratePowerLawEdges(p, 4, 1000, 10, 1.5, 7)) {
      ++in_degree[dst];
    }
  }
  const int max_deg = *std::max_element(in_degree.begin(), in_degree.end());
  const double mean = 4.0 * 1000.0 * 11.0 / 4.0 / 1000.0;  // ~11
  EXPECT_GT(max_deg, 10 * static_cast<int>(mean));
}

TEST(DatagenTest, KeysForPartitionPartitionTheKeySpace) {
  std::set<uint32_t> seen;
  size_t total = 0;
  for (uint32_t p = 0; p < 8; ++p) {
    for (uint32_t k : KeysForPartition(p, 8, 500)) {
      EXPECT_TRUE(seen.insert(k).second) << "duplicate key " << k;
      ++total;
    }
  }
  EXPECT_EQ(total, 500u);
}

TEST(DatagenTest, RatingsAreHashPartitionedByUser) {
  for (uint32_t p = 0; p < 4; ++p) {
    for (const auto& [user, rating] : GenerateRatings(p, 4, 200, 5, 50, 7)) {
      EXPECT_EQ(KeyPartition(user, 4), p);
      EXPECT_GE(rating.score, 1.0f);
      EXPECT_LE(rating.score, 5.0f);
      EXPECT_LT(rating.item, 50u);
    }
  }
}

}  // namespace
}  // namespace blaze
