// Eviction policy unit tests and PolicyCoordinator behaviour tests
// (annotation-following caching, LRU eviction, MEM_ONLY vs MEM_AND_DISK
// recovery, Alluxio-style serialized caching).
#include <gtest/gtest.h>

#include "src/common/units.h"

#include <atomic>
#include <limits>

#include "src/cache/alluxio_coordinator.h"
#include "src/cache/policies.h"
#include "src/cache/policy_coordinator.h"
#include "src/dataflow/pair_rdd.h"
#include "src/dataflow/rdd.h"

namespace blaze {
namespace {

MemoryEntry Entry(RddId rdd, uint32_t part, uint64_t access) {
  MemoryEntry e;
  e.id = BlockId{rdd, part};
  e.size_bytes = 100;
  e.last_access_seq = access;
  return e;
}

TEST(PolicyTest, LruPicksLeastRecentlyUsed) {
  LruPolicy policy;
  std::vector<MemoryEntry> entries{Entry(1, 0, 9), Entry(1, 1, 3), Entry(2, 0, 7)};
  EXPECT_EQ(policy.SelectVictim(entries, {}), 1u);
}

TEST(PolicyTest, LrcPrefersLowestReferenceCount) {
  LrcPolicy policy;
  DependencyDigest digest;
  digest.ref_count[1] = 3;
  digest.ref_count[2] = 0;
  std::vector<MemoryEntry> entries{Entry(1, 0, 9), Entry(2, 0, 99)};
  EXPECT_EQ(policy.SelectVictim(entries, digest), 1u);
}

TEST(PolicyTest, MrdEvictsFarthestReference) {
  MrdPolicy policy;
  DependencyDigest digest;
  digest.current_stage = 1;
  digest.next_use_stage[1] = 1;  // distance 0
  digest.next_use_stage[2] = 5;  // distance 4
  std::vector<MemoryEntry> entries{Entry(1, 0, 9), Entry(2, 0, 99)};
  EXPECT_EQ(policy.SelectVictim(entries, digest), 1u);
  EXPECT_TRUE(policy.ShouldPrefetch(1, digest));
  EXPECT_FALSE(policy.ShouldPrefetch(2, digest));
}

TEST(PolicyTest, DigestDistanceInfinityForUnknown) {
  DependencyDigest digest;
  digest.current_stage = 2;
  digest.next_use_stage[1] = 0;  // already passed
  EXPECT_EQ(digest.ReferenceDistance(1), std::numeric_limits<int>::max());
  EXPECT_EQ(digest.ReferenceDistance(42), std::numeric_limits<int>::max());
}

TEST(PolicyTest, FactoryKnowsAllNames) {
  for (const char* name : {"lru", "lrc", "mrd"}) {
    EXPECT_NE(MakePolicy(name), nullptr) << name;
  }
}

// --- coordinator behaviour ------------------------------------------------------------

EngineConfig TinyConfig(uint64_t capacity) {
  EngineConfig config;
  config.num_executors = 1;  // single executor keeps eviction order deterministic
  config.threads_per_executor = 1;
  config.memory_capacity_per_executor = capacity;
  return config;
}

// Two cached datasets that together exceed memory force evictions (blocks of
// the dataset being written are never victims, mirroring Spark's same-RDD
// eviction guard, so the pressure must come from a second dataset). MEM_ONLY
// must then recompute the evicted blocks on re-access.
TEST(PolicyCoordinatorTest, MemOnlyRecomputesEvictedBlocks) {
  EngineContext engine(TinyConfig(KiB(48)));
  engine.SetCoordinator(std::make_unique<PolicyCoordinator>(&engine, MakePolicy("lru"),
                                                            EvictionMode::kMemOnly));
  auto generations = std::make_shared<std::atomic<int>>(0);
  auto first = Generate<int>(&engine, "first", 2, [generations](uint32_t p) {
    generations->fetch_add(1);
    return std::vector<int>(4000, static_cast<int>(p));  // ~16 KiB per partition
  });
  auto second = Generate<int>(&engine, "second", 2, [](uint32_t p) {
    return std::vector<int>(4000, static_cast<int>(p));
  });
  first->Cache();
  second->Cache();
  EXPECT_EQ(first->Count(), 2u * 4000u);
  const int first_round = generations->load();
  EXPECT_EQ(second->Count(), 2u * 4000u);  // admitting these evicts `first`
  EXPECT_EQ(first->Count(), 2u * 4000u);   // re-access => recomputation
  EXPECT_GT(generations->load(), first_round);
  const auto snap = engine.metrics().Snapshot();
  EXPECT_GT(snap.evictions_discard, 0u);
  EXPECT_EQ(snap.evictions_to_disk, 0u);
  EXPECT_GT(snap.cache_misses, 0u);
}

TEST(PolicyCoordinatorTest, MemAndDiskServesEvictionsFromDisk) {
  EngineContext engine(TinyConfig(KiB(48)));
  engine.SetCoordinator(std::make_unique<PolicyCoordinator>(&engine, MakePolicy("lru"),
                                                            EvictionMode::kMemAndDisk));
  auto generations = std::make_shared<std::atomic<int>>(0);
  auto rdd = Generate<int>(&engine, "big", 8, [generations](uint32_t p) {
    generations->fetch_add(1);
    return std::vector<int>(4000, static_cast<int>(p));
  });
  rdd->Cache();
  EXPECT_EQ(rdd->Count(), 8u * 4000u);
  EXPECT_EQ(generations->load(), 8);
  // Disk admits are async-first: let the writes commit so the re-read below
  // comes from the disk tier rather than the spill queue's in-flight copy.
  engine.DrainAllSpills();
  EXPECT_EQ(rdd->Count(), 8u * 4000u);
  EXPECT_EQ(generations->load(), 8);  // recovered from disk, never recomputed
  const auto snap = engine.metrics().Snapshot();
  EXPECT_GT(snap.evictions_to_disk, 0u);
  EXPECT_GT(snap.cache_hits_disk, 0u);
  EXPECT_GT(snap.total_task.cache_disk_ms, 0.0);
}

TEST(PolicyCoordinatorTest, UnannotatedDataNeverCached) {
  EngineContext engine(TinyConfig(MiB(4)));
  engine.SetCoordinator(std::make_unique<PolicyCoordinator>(&engine, MakePolicy("lru"),
                                                            EvictionMode::kMemAndDisk));
  auto rdd = Parallelize<int>(&engine, "ints", std::vector<int>(1000, 1), 4);
  EXPECT_EQ(rdd->Count(), 1000u);
  EXPECT_EQ(engine.TotalMemoryUsed(), 0u);
}

TEST(PolicyCoordinatorTest, UnpersistDropsAllTiers) {
  EngineContext engine(TinyConfig(KiB(48)));
  engine.SetCoordinator(std::make_unique<PolicyCoordinator>(&engine, MakePolicy("lru"),
                                                            EvictionMode::kMemAndDisk));
  auto rdd = Generate<int>(&engine, "big", 8, [](uint32_t p) {
    return std::vector<int>(4000, static_cast<int>(p));
  });
  rdd->Cache();
  rdd->Count();
  EXPECT_GT(engine.TotalMemoryUsed() + engine.block_manager(0).disk().used_bytes(), 0u);
  rdd->Unpersist();
  // A disk admit still mid-write when the unpersist lands is cancelled and
  // its file deleted right after the commit: quiesce the spill worker first.
  engine.DrainAllSpills();
  EXPECT_EQ(engine.TotalMemoryUsed(), 0u);
  EXPECT_EQ(engine.block_manager(0).disk().used_bytes(), 0u);
}

TEST(PolicyCoordinatorTest, OversizedBlockGoesStraightToDisk) {
  EngineContext engine(TinyConfig(KiB(4)));
  engine.SetCoordinator(std::make_unique<PolicyCoordinator>(&engine, MakePolicy("lru"),
                                                            EvictionMode::kMemAndDisk));
  auto rdd = Generate<int>(&engine, "huge", 1,
                           [](uint32_t) { return std::vector<int>(10000, 1); });
  rdd->Cache();
  rdd->Count();
  engine.DrainAllSpills();  // the disk admit is async-first
  EXPECT_EQ(engine.TotalMemoryUsed(), 0u);
  EXPECT_GT(engine.block_manager(0).disk().used_bytes(), 0u);
}

TEST(AlluxioCoordinatorTest, ServesSerializedHitsAndCountsDeserTime) {
  EngineContext engine(TinyConfig(MiB(1)));
  engine.SetCoordinator(std::make_unique<AlluxioCoordinator>(&engine));
  auto generations = std::make_shared<std::atomic<int>>(0);
  auto rdd = Generate<int>(&engine, "data", 4, [generations](uint32_t p) {
    generations->fetch_add(1);
    return std::vector<int>(1000, static_cast<int>(p));
  });
  rdd->Cache();
  EXPECT_EQ(rdd->Count(), 4000u);
  EXPECT_EQ(rdd->Count(), 4000u);
  EXPECT_EQ(generations->load(), 4);  // hits from the serialized tier
  const auto snap = engine.metrics().Snapshot();
  EXPECT_GT(snap.cache_hits_memory, 0u);
  // Even memory hits pay (de)serialization in the Alluxio model.
  EXPECT_GT(snap.total_task.cache_disk_ms, 0.0);
}

TEST(AlluxioCoordinatorTest, EvictsSerializedVictimsToDisk) {
  EngineContext engine(TinyConfig(KiB(16)));
  engine.SetCoordinator(std::make_unique<AlluxioCoordinator>(&engine));
  auto rdd = Generate<int>(&engine, "data", 8, [](uint32_t p) {
    return std::vector<int>(2000, static_cast<int>(p));  // ~8 KiB serialized
  });
  rdd->Cache();
  EXPECT_EQ(rdd->Count(), 16000u);
  // Evictions hand their disk writes to the spill worker; quiesce it before
  // asserting on committed disk bytes.
  engine.DrainAllSpills();
  EXPECT_GT(engine.block_manager(0).disk().used_bytes(), 0u);
  EXPECT_EQ(rdd->Count(), 16000u);  // recoverable from the disk tier
}

}  // namespace
}  // namespace blaze
