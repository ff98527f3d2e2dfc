// Distributed-mode smoke: the PR-9 acceptance gate, run by tools/ci.sh.
//
// Phase 1 — byte-identical results: runs the fig09 PageRank workload once
// in-process and once with a coordinator + 2 worker processes, under both the
// Spark MEM+DISK baseline and full Blaze, and demands the results match to
// the last bit (same rank-sum double, same vertex count). Where the payload
// bytes live must be invisible to the computation.
//
// Phase 2 — wire sanity: ping / sum_u64 task round-trips and nonzero wire
// counters prove the traffic actually crossed process boundaries.
//
// Phase 3 — fault recovery: SIGKILLs a worker mid-run, waits for the
// heartbeat monitor to declare the loss and respawn the slot, and checks the
// engine still produces the bit-identical result — lost blocks recompute
// through lineage, lost shuffle buckets rebuild.
//
// Exits nonzero on the first violated expectation.
#include <csignal>
#include <cstdio>
#include <cstring>
#include <thread>

#include "src/blaze/blaze_runner.h"
#include "src/cache/policies.h"
#include "src/cache/policy_coordinator.h"
#include "src/common/units.h"
#include "src/net/remote_executor.h"
#include "src/workloads/pagerank.h"

namespace {

int failures = 0;

#define SMOKE_CHECK(cond, what)                                  \
  do {                                                           \
    if (cond) {                                                  \
      std::printf("ok      %s\n", what);                         \
    } else {                                                     \
      std::printf("FAILED  %s\n", what);                         \
      ++failures;                                                \
    }                                                            \
  } while (0)

blaze::WorkloadParams SmokeParams() {
  blaze::WorkloadParams params;
  params.partitions = 8;
  params.iterations = 4;
  params.scale = 1.0 / 16.0;
  return params;
}

blaze::EngineConfig SmokeConfig(bool distributed) {
  blaze::EngineConfig config;
  config.num_executors = 2;
  config.threads_per_executor = 2;
  // Tight enough that eviction (and in distributed mode, worker-side
  // demotion) actually happens.
  config.memory_capacity_per_executor = blaze::KiB(256);
  config.disk_throughput_bytes_per_sec = blaze::MiB(64);
  config.distributed = distributed;
  config.num_workers = 2;
  return config;
}

bool BitIdentical(const blaze::PageRankResult& a, const blaze::PageRankResult& b) {
  return std::memcmp(&a.rank_sum, &b.rank_sum, sizeof(double)) == 0 &&
         a.num_vertices == b.num_vertices;
}

blaze::PageRankResult RunSparkMemDisk(bool distributed) {
  blaze::EngineContext engine(SmokeConfig(distributed));
  engine.SetCoordinator(std::make_unique<blaze::PolicyCoordinator>(
      &engine, blaze::MakePolicy("lru"), blaze::EvictionMode::kMemAndDisk));
  return blaze::RunPageRank(engine, SmokeParams());
}

blaze::PageRankResult RunBlaze(bool distributed) {
  blaze::EngineContext engine(SmokeConfig(distributed));
  blaze::BlazeRunConfig run_config;
  run_config.options = blaze::BlazeOptions::Full();
  // No profiling phase: the profiling engine is a separate in-process
  // instance anyway; the on-the-fly lineage exercises the same stubs.
  blaze::PageRankResult result;
  blaze::RunWithBlaze(engine, run_config, [&result](blaze::EngineContext& e) {
    result = blaze::RunPageRank(e, SmokeParams());
  });
  return result;
}

void PhaseByteIdentical() {
  std::printf("--- phase 1: byte-identical results (in-process vs 2 workers)\n");
  const auto local_spark = RunSparkMemDisk(/*distributed=*/false);
  const auto dist_spark = RunSparkMemDisk(/*distributed=*/true);
  SMOKE_CHECK(BitIdentical(local_spark, dist_spark),
              "spark-memdisk pagerank result bit-identical");
  const auto local_blaze = RunBlaze(/*distributed=*/false);
  const auto dist_blaze = RunBlaze(/*distributed=*/true);
  SMOKE_CHECK(BitIdentical(local_blaze, dist_blaze),
              "blaze pagerank result bit-identical");
  SMOKE_CHECK(BitIdentical(local_spark, local_blaze),
              "systems agree with each other");
}

void PhaseWireSanity() {
  std::printf("--- phase 2: wire sanity\n");
  blaze::EngineContext engine(SmokeConfig(/*distributed=*/true));
  auto* remote = engine.remote_executors();
  SMOKE_CHECK(remote != nullptr && remote->num_workers() == 2, "2 workers up");

  blaze::net::TaskResultMsg result;
  SMOKE_CHECK(remote->RunTask(0, "ping", {1, 2, 3}, &result) && result.ok &&
                  result.payload == std::vector<uint8_t>({1, 2, 3}),
              "ping round-trip echoes args");

  // sum_u64 takes its operands as packed native-endian words.
  const uint64_t operands[] = {7, 35, 100};
  std::vector<uint8_t> args(sizeof(operands));
  std::memcpy(args.data(), operands, sizeof(operands));
  SMOKE_CHECK(remote->RunTask(1, "sum_u64", std::move(args), &result) && result.ok &&
                  result.payload.size() == 8 &&
                  [&result] {
                    uint64_t sum = 0;
                    std::memcpy(&sum, result.payload.data(), 8);
                    return sum == 142;
                  }(),
              "sum_u64 computes on the worker");

  engine.SetCoordinator(std::make_unique<blaze::PolicyCoordinator>(
      &engine, blaze::MakePolicy("lru"), blaze::EvictionMode::kMemAndDisk));
  blaze::RunPageRank(engine, SmokeParams());
  const auto& counters = remote->counters();
  SMOKE_CHECK(counters.block_puts.load() > 0, "block payloads crossed the wire");
  SMOKE_CHECK(counters.bucket_puts.load() > 0, "shuffle buckets crossed the wire");
  SMOKE_CHECK(counters.block_fetches.load() + counters.bucket_fetches.load() > 0,
              "payload fetches crossed the wire");
  bool stats_seen = false;
  for (size_t slot = 0; slot < remote->num_workers(); ++slot) {
    stats_seen |= remote->LastStats(slot).pid > 0;
  }
  SMOKE_CHECK(stats_seen, "heartbeat stats flowing");
}

void PhaseKillRecovery() {
  std::printf("--- phase 3: SIGKILL worker, recover through lineage\n");
  blaze::EngineConfig config = SmokeConfig(/*distributed=*/true);
  config.heartbeat_interval_ms = 100;
  config.heartbeat_miss_limit = 2;
  blaze::EngineContext engine(config);
  auto* remote = engine.remote_executors();

  blaze::BlazeRunConfig run_config;
  run_config.options = blaze::BlazeOptions::Full();
  auto* coordinator = blaze::RunWithBlaze(
      engine, run_config,
      [](blaze::EngineContext& e) { blaze::RunPageRank(e, SmokeParams()); });
  (void)coordinator;

  const int first_pid = remote->WorkerPid(0);
  SMOKE_CHECK(remote->KillWorker(0, SIGKILL), "SIGKILL delivered to worker 0");
  // The monitor notices via waitpid/heartbeats, invalidates, and respawns.
  bool respawned = false;
  for (int i = 0; i < 200 && !respawned; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    respawned = remote->WorkerAlive(0) && remote->WorkerPid(0) != first_pid;
  }
  SMOKE_CHECK(respawned, "worker 0 respawned into its slot");
  SMOKE_CHECK(remote->counters().workers_lost.load() >= 1, "loss was declared");

  // Post-kill run: stubs of the dead worker are gone, lineage recomputes,
  // shuffle buckets rebuild — and the answer is still bit-identical.
  const auto after = blaze::RunPageRank(engine, SmokeParams());
  const auto reference = RunSparkMemDisk(/*distributed=*/false);
  SMOKE_CHECK(BitIdentical(after, reference), "post-kill result bit-identical");
}

}  // namespace

int main() {
  PhaseByteIdentical();
  PhaseWireSanity();
  PhaseKillRecovery();
  if (failures == 0) {
    std::printf("dist_smoke: all checks passed\n");
    return 0;
  }
  std::printf("dist_smoke: %d check(s) FAILED\n", failures);
  return 1;
}
