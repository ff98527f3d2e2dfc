// Engine-wide invariants, exercised as parameterized property sweeps:
//  * results are independent of the caching system, the eviction policy, the
//    memory capacity, and the executor count;
//  * block placement is stable (partition % executors);
//  * recompute attribution only fires on re-materialization.
#include <gtest/gtest.h>

#include "src/common/units.h"

#include <algorithm>
#include <memory>

#include "src/cache/policies.h"
#include "src/cache/policy_coordinator.h"
#include "src/dataflow/pair_rdd.h"
#include "src/dataflow/rdd.h"
#include "src/workloads/systems.h"

namespace blaze {
namespace {

// A fixed mini-workload with caching, iteration, joins, and a shuffle; returns
// a deterministic scalar fingerprint.
uint64_t RunFingerprintWorkload(EngineContext& engine) {
  auto base = Generate<std::pair<uint32_t, int>>(&engine, "inv.base", 6, [](uint32_t p) {
    std::vector<std::pair<uint32_t, int>> rows;
    for (uint32_t k = 0; k < 600; ++k) {
      if (KeyPartition(k, 6) == p) {
        rows.emplace_back(k, static_cast<int>(k % 13));
      }
    }
    return rows;
  });
  base->set_hash_partitioned(true);
  base->Cache();
  base->Count();

  auto current = MapValues(base, [](const int& v) { return v; }, "inv.iter0");
  current->Cache();
  current->Count();
  for (int iter = 0; iter < 4; ++iter) {
    auto joined = JoinCoPartitioned(base, current, "inv.join");
    auto bumped = MapValues(
        joined, [](const std::pair<int, int>& row) { return row.first + row.second + 1; },
        "inv.iter");
    auto reshuffled = ReduceByKey<uint32_t, int>(
        bumped->Map(
            [](const std::pair<uint32_t, int>& row) {
              return std::make_pair(row.first % 7, row.second);
            },
            "inv.rekey"),
        [](const int& a, const int& b) { return a + b; }, 6, "inv.reduce");
    const auto sum = reshuffled->Aggregate<int64_t>(
        0,
        [](int64_t& acc, const std::pair<uint32_t, int>& row) {
          acc += row.first * 31 + row.second;
        },
        [](int64_t& acc, const int64_t& other) { acc += other; });
    auto next = MapValues(
        joined, [](const std::pair<int, int>& row) { return row.first ^ row.second; },
        "inv.iter");
    next->Cache();
    next->Count();
    current->Unpersist();
    current = next;
    (void)sum;
  }
  uint64_t fingerprint = 0;  // unsigned: the hash wraps by design
  for (const auto& [key, value] : current->Collect()) {
    fingerprint = fingerprint * 1315423911 + key * 7 + value;
  }
  return fingerprint;
}

uint64_t ReferenceFingerprint() {
  EngineConfig config;
  config.num_executors = 2;
  config.threads_per_executor = 2;
  config.memory_capacity_per_executor = MiB(64);
  EngineContext engine(config);
  return RunFingerprintWorkload(engine);
}

// Every catalogue system, coordinator installed without a profiling run.
class SystemEquivalenceTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SystemEquivalenceTest, FingerprintMatchesReference) {
  static const uint64_t reference = ReferenceFingerprint();
  EngineConfig config;
  config.num_executors = 2;
  config.threads_per_executor = 2;
  config.memory_capacity_per_executor = KiB(24);  // tight: forces evictions
  EngineContext engine(config);
  InstallSystem(engine, GetParam());
  EXPECT_EQ(RunFingerprintWorkload(engine), reference) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllSystems, SystemEquivalenceTest,
                         ::testing::ValuesIn(AllSystemNames()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

class CapacityEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CapacityEquivalenceTest, FingerprintIndependentOfCapacity) {
  static const uint64_t reference = ReferenceFingerprint();
  EngineConfig config;
  config.num_executors = 2;
  config.threads_per_executor = 2;
  config.memory_capacity_per_executor = GetParam();
  EngineContext engine(config);
  engine.SetCoordinator(std::make_unique<PolicyCoordinator>(&engine, MakePolicy("lru"),
                                                            EvictionMode::kMemAndDisk));
  EXPECT_EQ(RunFingerprintWorkload(engine), reference);
}

INSTANTIATE_TEST_SUITE_P(Capacities, CapacityEquivalenceTest,
                         ::testing::Values(KiB(8), KiB(16), KiB(64), MiB(1), MiB(16)));

class ExecutorCountEquivalenceTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ExecutorCountEquivalenceTest, FingerprintIndependentOfClusterShape) {
  static const uint64_t reference = ReferenceFingerprint();
  EngineConfig config;
  config.num_executors = GetParam();
  config.threads_per_executor = 5 - std::min<size_t>(4, GetParam());
  config.memory_capacity_per_executor = KiB(64);
  EngineContext engine(config);
  engine.SetCoordinator(std::make_unique<PolicyCoordinator>(&engine, MakePolicy("lru"),
                                                            EvictionMode::kMemAndDisk));
  EXPECT_EQ(RunFingerprintWorkload(engine), reference);
}

INSTANTIATE_TEST_SUITE_P(Shapes, ExecutorCountEquivalenceTest,
                         ::testing::Values(1, 2, 3, 4, 6));

TEST(EngineInvariantsTest, BlockPlacementIsPartitionModuloExecutors) {
  EngineConfig config;
  config.num_executors = 3;
  config.threads_per_executor = 1;
  config.memory_capacity_per_executor = MiB(8);
  EngineContext engine(config);
  engine.SetCoordinator(std::make_unique<PolicyCoordinator>(&engine, MakePolicy("lru"),
                                                            EvictionMode::kMemAndDisk));
  auto rdd = Generate<int>(&engine, "placed", 9,
                           [](uint32_t p) { return std::vector<int>(10, (int)p); });
  rdd->Cache();
  rdd->Count();
  for (uint32_t p = 0; p < 9; ++p) {
    for (size_t e = 0; e < 3; ++e) {
      const bool resident =
          engine.block_manager(e).memory().Contains(BlockId{rdd->id(), p});
      EXPECT_EQ(resident, e == p % 3) << "partition " << p << " executor " << e;
    }
  }
}

TEST(EngineInvariantsTest, ComputedRegistryMarksFirstMaterialization) {
  EngineConfig config;
  config.num_executors = 1;
  config.threads_per_executor = 1;
  config.memory_capacity_per_executor = MiB(8);
  EngineContext engine(config);
  auto rdd = Generate<int>(&engine, "reg", 2,
                           [](uint32_t p) { return std::vector<int>(10, (int)p); });
  EXPECT_FALSE(engine.WasComputedBefore(BlockId{rdd->id(), 0}));
  rdd->Count();
  EXPECT_TRUE(engine.WasComputedBefore(BlockId{rdd->id(), 0}));
  EXPECT_TRUE(engine.WasComputedBefore(BlockId{rdd->id(), 1}));
}

TEST(EngineInvariantsTest, RegistryReturnsLiveDatasetsOnly) {
  EngineConfig config;
  config.num_executors = 1;
  config.threads_per_executor = 1;
  config.memory_capacity_per_executor = MiB(8);
  EngineContext engine(config);
  RddId id = 0;
  {
    auto rdd = Generate<int>(&engine, "temp", 1,
                             [](uint32_t) { return std::vector<int>{1}; });
    id = rdd->id();
    EXPECT_NE(engine.FindRdd(id), nullptr);
  }
  EXPECT_EQ(engine.FindRdd(id), nullptr);  // released by the driver
}

}  // namespace
}  // namespace blaze
