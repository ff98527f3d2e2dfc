// Multi-tenant service plane tests: share-split arithmetic, the eviction
// floor under cross-tenant cache pressure, work-conserving borrowing and
// reclaim, shared-dataset refcounting across tenant-scoped unpersists,
// admission control (reject vs bounded queueing), and a 4-tenant concurrent
// driver stress (also run under TSan via ci.sh).
#include <gtest/gtest.h>

#include <any>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/cache/policies.h"
#include "src/cache/policy_coordinator.h"
#include "src/common/units.h"
#include "src/dataflow/dag_scheduler.h"
#include "src/dataflow/job_server.h"
#include "src/dataflow/rdd.h"
#include "src/dataflow/tenant.h"

namespace blaze {
namespace {

TenantSpec Spec(std::string name, double share, int max_in_flight = 0,
                int max_queued = 8, int max_wait_ms = 10000) {
  TenantSpec spec;
  spec.name = std::move(name);
  spec.memory_share = share;
  spec.max_in_flight_jobs = max_in_flight;
  spec.max_queued_jobs = max_queued;
  spec.max_queue_wait_ms = max_wait_ms;
  return spec;
}

EngineConfig TenantConfig(uint64_t capacity, std::vector<TenantSpec> tenants,
                          size_t executors = 1, size_t threads = 1) {
  EngineConfig config;
  config.num_executors = executors;
  config.threads_per_executor = threads;
  config.memory_capacity_per_executor = capacity;
  config.multi_tenant = true;
  config.tenants = std::move(tenants);
  return config;
}

void InstallLru(EngineContext& engine) {
  engine.SetCoordinator(std::make_unique<PolicyCoordinator>(&engine, MakePolicy("lru"),
                                                            EvictionMode::kMemOnly));
}

// Tenant-attributed Count(): the actions on Rdd<T> are untenanted, so tests
// drive RunJobAs directly with the same row-counting process.
size_t CountAs(EngineContext& engine, TenantId tenant,
               const std::shared_ptr<RddBase>& target, std::string* reason = nullptr) {
  size_t rows = 0;
  for (std::any& result : engine.RunJobAs(
           tenant, target,
           [](const BlockPtr& block) -> std::any { return block->NumRows(); },
           /*raw_blocks=*/true, reason)) {
    rows += std::any_cast<size_t>(result);
  }
  return rows;
}

// ~8 KiB per partition of int rows.
RddPtr<int> CachedInts(EngineContext& engine, const std::string& name, uint32_t parts,
                       std::atomic<int>* generations = nullptr) {
  auto rdd = Generate<int>(&engine, name, parts, [generations](uint32_t p) {
    if (generations != nullptr) {
      generations->fetch_add(1);
    }
    return std::vector<int>(2000, static_cast<int>(p));
  });
  rdd->Cache();
  return rdd;
}

TEST(TenantRegistryTest, ShareSplitAndLookup) {
  // One explicit 50% tenant; the two unsized ones split the remaining half.
  TenantRegistry registry({Spec("gold", 0.5), Spec("s1", 0.0), Spec("s2", 0.0)},
                          /*capacity_per_executor=*/KiB(100), /*num_executors=*/2);
  ASSERT_EQ(registry.num_tenants(), 3u);
  const std::vector<uint64_t>& shares = registry.ShareBytesPerExecutor();
  EXPECT_EQ(shares[0], KiB(50));
  EXPECT_EQ(shares[1], KiB(25));
  EXPECT_EQ(shares[2], KiB(25));
  EXPECT_EQ(registry.FindByName("gold"), std::optional<TenantId>(0u));
  EXPECT_EQ(registry.FindByName("s2"), std::optional<TenantId>(2u));
  EXPECT_FALSE(registry.FindByName("nobody").has_value());
}

// The tentpole invariant: a churning tenant can evict its own blocks and any
// borrowed (over-share) bytes, but never another tenant's within-share cache.
TEST(TenantTest, EvictionFloorProtectsWithinShareBlocks) {
  EngineContext engine(
      TenantConfig(KiB(96), {Spec("quiet", 0.5), Spec("churn", 0.5)}));
  InstallLru(engine);
  const TenantId quiet = *engine.tenants()->FindByName("quiet");
  const TenantId churn = *engine.tenants()->FindByName("churn");

  std::atomic<int> quiet_generations{0};
  auto hot = CachedInts(engine, "quiet_hot", 3, &quiet_generations);  // ~24 KiB
  ASSERT_EQ(CountAs(engine, quiet, hot), 3u * 2000u);
  ASSERT_EQ(quiet_generations.load(), 3);
  const uint64_t quiet_used = engine.block_manager(0).arbiter().TenantCacheUsed(quiet);
  ASSERT_GT(quiet_used, 0u);
  ASSERT_LE(quiet_used, engine.block_manager(0).arbiter().TenantShareBytes(quiet));

  // Far more churn data than the whole store holds: every admission runs a
  // victim scan under pressure.
  for (int round = 0; round < 6; ++round) {
    auto noisy = CachedInts(engine, "churn_" + std::to_string(round), 4);
    ASSERT_EQ(CountAs(engine, churn, noisy), 4u * 2000u);
  }

  // The quiet tenant's within-share blocks must have survived: re-reading them
  // recomputes nothing.
  for (uint32_t p = 0; p < 3; ++p) {
    EXPECT_TRUE(engine.block_manager(0).memory().Contains(BlockId{hot->id(), p}));
  }
  EXPECT_EQ(CountAs(engine, quiet, hot), 3u * 2000u);
  EXPECT_EQ(quiet_generations.load(), 3);
  const TenantRegistry::TenantStats stats = engine.tenants()->Stats(quiet);
  EXPECT_EQ(stats.cache_misses, 0u);
  EXPECT_GT(stats.cache_hits, 0u);
}

// Shares are floors, not caps: a lone tenant may cache past its share into
// idle capacity, and loses exactly that borrowed portion when the other
// tenant shows up.
TEST(TenantTest, WorkConservingBorrowThenReclaim) {
  EngineContext engine(TenantConfig(KiB(96), {Spec("a", 0.5), Spec("b", 0.5)}));
  InstallLru(engine);
  const TenantId a = *engine.tenants()->FindByName("a");
  const TenantId b = *engine.tenants()->FindByName("b");
  const MemoryArbiter& arbiter = engine.block_manager(0).arbiter();

  auto big = CachedInts(engine, "a_big", 10);  // ~82 KiB > a's 48 KiB share
  ASSERT_EQ(CountAs(engine, a, big), 10u * 2000u);
  const uint64_t borrowed_before = arbiter.TenantBorrowedBytes(a);
  EXPECT_GT(arbiter.TenantCacheUsed(a), arbiter.TenantShareBytes(a));
  EXPECT_GT(borrowed_before, 0u);

  auto claim = CachedInts(engine, "b_claim", 4);  // within b's share
  ASSERT_EQ(CountAs(engine, b, claim), 4u * 2000u);
  for (uint32_t p = 0; p < 4; ++p) {
    EXPECT_TRUE(engine.block_manager(0).memory().Contains(BlockId{claim->id(), p}));
  }
  // Reclaim came out of a's borrowed bytes; a keeps at least its share.
  EXPECT_LT(arbiter.TenantBorrowedBytes(a), borrowed_before);
  EXPECT_LT(arbiter.TenantCacheUsed(a), arbiter.TenantShareBytes(a) + borrowed_before);
}

// A dataset referenced by two tenants survives the first tenant's unpersist
// and disappears on the last one's.
TEST(TenantTest, SharedDatasetRefcountAcrossUnpersist) {
  EngineContext engine(TenantConfig(MiB(4), {Spec("a", 0.5), Spec("b", 0.5)}));
  InstallLru(engine);
  const TenantId a = *engine.tenants()->FindByName("a");
  const TenantId b = *engine.tenants()->FindByName("b");

  auto shared = CachedInts(engine, "shared", 2);
  ASSERT_EQ(CountAs(engine, a, shared), 2u * 2000u);
  ASSERT_EQ(CountAs(engine, b, shared), 2u * 2000u);
  EXPECT_EQ(engine.tenants()->OwnerOf(shared->id()), a);  // first toucher
  EXPECT_EQ(engine.tenants()->TenantsReferencing(shared->id()), 2u);

  engine.UnpersistForTenant(*shared, a);
  EXPECT_GT(engine.TotalMemoryUsed(), 0u);  // deferred: b still references it
  for (uint32_t p = 0; p < 2; ++p) {
    EXPECT_TRUE(engine.block_manager(0).memory().Contains(BlockId{shared->id(), p}));
  }

  engine.UnpersistForTenant(*shared, b);
  EXPECT_EQ(engine.TotalMemoryUsed(), 0u);
  EXPECT_EQ(engine.tenants()->TenantsReferencing(shared->id()), 0u);
}

// max_in_flight=1 with a zero-length queue: the second concurrent submit is
// rejected with a reason (and counted), not parked forever.
TEST(TenantTest, AdmissionRejectsPastQueueBound) {
  EngineContext engine(TenantConfig(
      MiB(4), {Spec("only", 1.0, /*max_in_flight=*/1, /*max_queued=*/0,
                    /*max_wait_ms=*/100)}));
  InstallLru(engine);
  const TenantId only = *engine.tenants()->FindByName("only");

  auto slow = Generate<int>(&engine, "slow", 1, [](uint32_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    return std::vector<int>(100, 1);
  });
  std::string reason;
  JobHandle handle = engine.SubmitJobAs(
      only, slow, [](const BlockPtr& block) -> std::any { return block->NumRows(); },
      /*raw_blocks=*/true, &reason);
  ASSERT_TRUE(reason.empty());

  // The slot is held by the sleeping job and the queue admits nobody.
  auto quick = Generate<int>(&engine, "quick", 1,
                             [](uint32_t) { return std::vector<int>(100, 2); });
  std::string reject;
  EXPECT_EQ(CountAs(engine, only, quick, &reject), 0u);
  EXPECT_FALSE(reject.empty());

  size_t rows = 0;
  for (std::any& result : handle.Wait()) {
    rows += std::any_cast<size_t>(result);
  }
  EXPECT_EQ(rows, 100u);
  const TenantRegistry::TenantStats stats = engine.tenants()->Stats(only);
  EXPECT_EQ(stats.jobs_rejected, 1u);
  EXPECT_EQ(stats.jobs_completed, 1u);

  // With the slot free again the same submit sails through.
  EXPECT_EQ(CountAs(engine, only, quick, &reject), 100u);
}

// A bounded queue parks the submit until the slot frees instead of rejecting.
TEST(TenantTest, AdmissionQueuesWithinBound) {
  EngineContext engine(TenantConfig(
      MiB(4), {Spec("only", 1.0, /*max_in_flight=*/1, /*max_queued=*/2,
                    /*max_wait_ms=*/5000)}));
  InstallLru(engine);
  const TenantId only = *engine.tenants()->FindByName("only");

  auto slow = Generate<int>(&engine, "slow", 1, [](uint32_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    return std::vector<int>(100, 1);
  });
  std::string reason;
  JobHandle handle = engine.SubmitJobAs(
      only, slow, [](const BlockPtr& block) -> std::any { return block->NumRows(); },
      /*raw_blocks=*/true, &reason);
  ASSERT_TRUE(reason.empty());

  auto quick = Generate<int>(&engine, "quick", 1,
                             [](uint32_t) { return std::vector<int>(100, 2); });
  std::string reject;
  EXPECT_EQ(CountAs(engine, only, quick, &reject), 100u);  // parked, then ran
  EXPECT_TRUE(reject.empty());
  handle.Wait();
  const TenantRegistry::TenantStats stats = engine.tenants()->Stats(only);
  EXPECT_EQ(stats.jobs_rejected, 0u);
  EXPECT_EQ(stats.jobs_completed, 2u);
}

// Four tenants hammering one engine from concurrent drivers: private cached
// datasets plus one cross-tenant dataset, with admission caps engaged. Run
// under TSan by tools/ci.sh.
TEST(TenantTest, FourTenantConcurrentDrivers) {
  EngineContext engine(TenantConfig(
      KiB(256),
      {Spec("t0", 0.25, 2), Spec("t1", 0.25, 2), Spec("t2", 0.25, 2),
       Spec("t3", 0.25, 2)},
      /*executors=*/2, /*threads=*/2));
  InstallLru(engine);
  const std::string names[] = {"t0", "t1", "t2", "t3"};

  auto shared = CachedInts(engine, "stress_shared", 4);
  constexpr int kJobsPerTenant = 12;
  std::atomic<uint64_t> rows{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> drivers;
  for (int t = 0; t < 4; ++t) {
    drivers.emplace_back([&, t] {
      const TenantId tenant = *engine.tenants()->FindByName(names[t]);
      auto mine = CachedInts(engine, "stress_private_" + std::to_string(t), 2);
      for (int j = 0; j < kJobsPerTenant; ++j) {
        auto& target = j % 3 == 0 ? shared : mine;
        std::string reason;
        const size_t got = CountAs(engine, tenant, target, &reason);
        if (got == 0) {
          failures.fetch_add(1);
        }
        rows.fetch_add(got);
      }
    });
  }
  for (std::thread& driver : drivers) {
    driver.join();
  }
  EXPECT_EQ(failures.load(), 0);
  // 4 shared reads (8000 rows) + 8 private reads (4000 rows) per tenant.
  EXPECT_EQ(rows.load(), 4u * (4u * 8000u + 8u * 4000u));
  EXPECT_EQ(engine.tenants()->TenantsReferencing(shared->id()), 4u);
  for (int t = 0; t < 4; ++t) {
    const TenantRegistry::TenantStats stats =
        engine.tenants()->Stats(*engine.tenants()->FindByName(names[t]));
    EXPECT_EQ(stats.jobs_completed, static_cast<uint64_t>(kJobsPerTenant));
    EXPECT_EQ(stats.jobs_rejected, 0u);
    EXPECT_EQ(stats.jobs_running, 0);
  }
}

// The job-server RPC plane end-to-end over loopback: submit/status/stats for
// a known tenant, unknown-tenant and unknown-workload refusals.
TEST(TenantTest, JobServerSubmitStatusStats) {
  EngineContext engine(TenantConfig(MiB(4), {Spec("gold", 0.5), Spec("bronze", 0.5)}));
  InstallLru(engine);
  BlazeJobServer server(&engine, /*port=*/0);
  server.RegisterWorkload(
      "count", [](EngineContext& eng, TenantId tenant, int iterations, std::string*) {
        auto data = Generate<int>(&eng, "srv_" + std::to_string(tenant), 2,
                                  [](uint32_t) { return std::vector<int>(100, 1); });
        data->Cache();
        uint64_t rows = 0;
        for (int i = 0; i < iterations; ++i) {
          for (std::any& result : eng.RunJobAs(
                   tenant, data,
                   [](const BlockPtr& block) -> std::any { return block->NumRows(); },
                   /*raw_blocks=*/true)) {
            rows += std::any_cast<size_t>(result);
          }
        }
        return "rows=" + std::to_string(rows);
      });
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  BlazeServiceClient client(server.port());
  int64_t job_id = -1;
  ASSERT_TRUE(client.Submit("gold", "count", /*iterations=*/3, &job_id, &error)) << error;
  net::JobStatusRespMsg status;
  ASSERT_TRUE(client.WaitDone(job_id, &status, /*timeout_ms=*/30000, &error)) << error;
  EXPECT_EQ(status.state, "done");
  EXPECT_EQ(status.detail, "rows=600");

  EXPECT_FALSE(client.Submit("nobody", "count", 1, &job_id, &error));
  EXPECT_NE(error.find("unknown tenant"), std::string::npos);
  EXPECT_FALSE(client.Submit("gold", "nothing", 1, &job_id, &error));
  EXPECT_NE(error.find("unknown workload"), std::string::npos);

  std::vector<net::TenantStatRow> stats;
  ASSERT_TRUE(client.Stats(&stats, &error)) << error;
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].name, "gold");
  EXPECT_EQ(stats[0].jobs_completed, 3u);  // three engine jobs inside the workload
  EXPECT_GT(stats[0].cache_hits, 0u);
  EXPECT_EQ(stats[1].name, "bronze");
  EXPECT_EQ(stats[1].jobs_completed, 0u);
  server.Stop();
}

}  // namespace
}  // namespace blaze
