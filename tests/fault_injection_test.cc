// Fault injection: task attempts fail at a configured rate and are retried;
// results are unaffected and failures are counted.
#include <gtest/gtest.h>

#include "src/common/units.h"

#include <memory>

#include "src/cache/policies.h"
#include "src/cache/policy_coordinator.h"
#include "src/dataflow/pair_rdd.h"
#include "src/dataflow/rdd.h"

namespace blaze {
namespace {

uint64_t RunWorkload(double failure_rate) {
  EngineConfig config;
  config.num_executors = 2;
  config.threads_per_executor = 2;
  config.memory_capacity_per_executor = KiB(64);
  config.task_failure_rate = failure_rate;
  config.max_task_attempts = 16;  // generous for high injected rates
  EngineContext engine(config);
  engine.SetCoordinator(std::make_unique<PolicyCoordinator>(&engine, MakePolicy("lru"),
                                                            EvictionMode::kMemAndDisk));
  auto base = Generate<std::pair<uint32_t, int>>(&engine, "fi.base", 4, [](uint32_t p) {
    std::vector<std::pair<uint32_t, int>> rows;
    for (uint32_t k = 0; k < 200; ++k) {
      rows.emplace_back(k % 23, static_cast<int>(k + p));
    }
    return rows;
  });
  base->Cache();
  auto reduced = ReduceByKey<uint32_t, int>(
      base, [](const int& a, const int& b) { return a + b; }, 4);
  uint64_t fingerprint = 0;  // unsigned: the hash wraps by design
  for (int job = 0; job < 3; ++job) {
    for (const auto& [key, value] : reduced->Collect()) {
      fingerprint = fingerprint * 31 + key + value;
    }
  }
  const auto snap = engine.metrics().Snapshot();
  if (failure_rate > 0.0) {
    EXPECT_GT(snap.task_failures, 0u);
  } else {
    EXPECT_EQ(snap.task_failures, 0u);
  }
  return fingerprint;
}

TEST(FaultInjectionTest, ResultsSurviveInjectedFailures) {
  const uint64_t clean = RunWorkload(0.0);
  EXPECT_EQ(RunWorkload(0.2), clean);
  EXPECT_EQ(RunWorkload(0.5), clean);
}

TEST(FaultInjectionTest, ExhaustedRetriesAreFatal) {
  // The engine (and its worker threads) must be created inside the death
  // statement: a fork()ed child does not inherit the parent's worker threads.
  EXPECT_DEATH(
      {
        EngineConfig config;
        config.num_executors = 1;
        config.threads_per_executor = 1;
        config.memory_capacity_per_executor = KiB(64);
        config.task_failure_rate = 1.0;  // every attempt fails
        config.max_task_attempts = 2;
        EngineContext engine(config);
        auto rdd = Generate<int>(&engine, "fatal", 1,
                                 [](uint32_t) { return std::vector<int>{1}; });
        (void)rdd->Count();
      },
      "exhausted retries");
}

TEST(FaultInjectionTest, FailureDecisionIsDeterministic) {
  // Two identical runs inject the same number of failures.
  auto count_failures = [] {
    EngineConfig config;
    config.num_executors = 2;
    config.threads_per_executor = 1;
    config.memory_capacity_per_executor = MiB(1);
    config.task_failure_rate = 0.3;
    config.max_task_attempts = 16;
    EngineContext engine(config);
    auto rdd = Generate<int>(&engine, "det", 8,
                             [](uint32_t p) { return std::vector<int>(10, (int)p); });
    rdd->Count();
    rdd->Count();
    return engine.metrics().Snapshot().task_failures;
  };
  EXPECT_EQ(count_failures(), count_failures());
}

}  // namespace
}  // namespace blaze
