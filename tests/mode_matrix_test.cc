// Mode-matrix differential test: the engine's execution switches change how a
// job runs, never what it returns. PageRank and KMeans run at miniature scale
// with memory below the working set under every combination of
// enable_fusion x enable_vectorized x {LRU MEM+DISK, Blaze}, and each result
// fingerprint must equal the all-defaults run bit for bit. This is the
// evidence that the unfused and row-at-a-time paths are valid reference
// paths for the fused and vectorized ones.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <tuple>

#include "src/blaze/blaze_runner.h"
#include "src/cache/policies.h"
#include "src/cache/policy_coordinator.h"
#include "src/common/units.h"
#include "src/workloads/kmeans.h"
#include "src/workloads/pagerank.h"

namespace blaze {
namespace {

WorkloadParams TinyParams() {
  WorkloadParams params;
  params.partitions = 4;
  params.iterations = 3;
  params.scale = 1.0 / 64.0;
  return params;
}

uint64_t Mix(uint64_t hash, uint64_t value) { return (hash ^ value) * 1099511628211ULL; }

uint64_t Mix(uint64_t hash, double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return Mix(hash, bits);
}

constexpr uint64_t kFnvBasis = 14695981039346656037ULL;

uint64_t RunFingerprint(const std::string& workload, EngineContext& engine,
                        const WorkloadParams& params = TinyParams()) {
  if (workload == "pr") {
    const PageRankResult result = RunPageRank(engine, params);
    return Mix(Mix(kFnvBasis, result.rank_sum), uint64_t{result.num_vertices});
  }
  const KMeansResult result = RunKMeans(engine, params);
  uint64_t hash = Mix(kFnvBasis, result.inertia);
  for (const auto& centroid : result.centroids) {
    for (double v : centroid) {
      hash = Mix(hash, v);
    }
  }
  return hash;
}

EngineConfig BaseConfig() {
  EngineConfig config;
  config.num_executors = 2;
  config.threads_per_executor = 2;
  return config;
}

// Every engine default (fusion and vectorized execution on, the default
// coordinator, ample memory).
uint64_t DefaultsFingerprint(const std::string& workload) {
  EngineContext engine(BaseConfig());
  return RunFingerprint(workload, engine);
}

enum class System { kLruMemDisk, kBlaze };

using ModeParam = std::tuple<std::string, bool, bool, System>;

class ModeMatrixTest : public ::testing::TestWithParam<ModeParam> {};

TEST_P(ModeMatrixTest, FingerprintMatchesDefaults) {
  const auto& [workload, fusion, vectorized, system] = GetParam();
  const uint64_t reference = DefaultsFingerprint(workload);

  EngineConfig config = BaseConfig();
  config.enable_fusion = fusion;
  config.enable_vectorized = vectorized;
  config.memory_capacity_per_executor = KiB(64);  // below the working set
  EngineContext engine(config);
  uint64_t fingerprint = 0;
  if (system == System::kLruMemDisk) {
    engine.SetCoordinator(std::make_unique<PolicyCoordinator>(&engine, MakePolicy("lru"),
                                                              EvictionMode::kMemAndDisk));
    fingerprint = RunFingerprint(workload, engine);
    // The capacity must actually bind, or the matrix never leaves the
    // all-resident path: blocks are evicted and read back from disk.
    const auto snap = engine.metrics().Snapshot();
    EXPECT_GT(snap.evictions_to_disk, 0u);
    EXPECT_GT(snap.cache_hits_disk, 0u);
  } else {
    BlazeRunConfig run;
    run.options = BlazeOptions::Full();
    run.profiling_driver = [workload = workload](EngineContext& e) {
      RunFingerprint(workload, e, TinyParams().ForProfiling());
    };
    RunWithBlaze(engine, run,
                 [&](EngineContext& e) { fingerprint = RunFingerprint(workload, e); });
  }
  EXPECT_EQ(fingerprint, reference);
}

std::string ModeName(const ::testing::TestParamInfo<ModeParam>& info) {
  const auto& [workload, fusion, vectorized, system] = info.param;
  return workload + (fusion ? "_fused" : "_unfused") + (vectorized ? "_vec" : "_rows") +
         (system == System::kLruMemDisk ? "_lru" : "_blaze");
}

INSTANTIATE_TEST_SUITE_P(AllModes, ModeMatrixTest,
                         ::testing::Combine(::testing::Values(std::string("pr"),
                                                              std::string("kmeans")),
                                            ::testing::Bool(), ::testing::Bool(),
                                            ::testing::Values(System::kLruMemDisk,
                                                              System::kBlaze)),
                         ModeName);

}  // namespace
}  // namespace blaze
