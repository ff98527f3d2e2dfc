// PageRank under three caching systems, side by side: recomputation-based
// MEM_ONLY Spark, checkpoint-based MEM+DISK Spark, and Blaze's unified
// decision layer (with its dependency-extraction profiling phase).
//
//   $ ./build/examples/pagerank_app [scale]
//
// Memory is deliberately sized below the workload's cached working set, so
// the three systems' eviction/recovery strategies actually matter.
#include <cstdlib>
#include <iostream>

#include "src/blaze/blaze_runner.h"
#include "src/cache/policies.h"
#include "src/cache/policy_coordinator.h"
#include "src/common/stopwatch.h"
#include "src/common/units.h"
#include "src/metrics/report.h"
#include "src/workloads/pagerank.h"

namespace {

blaze::EngineConfig MakeConfig(double scale) {
  blaze::EngineConfig config;
  config.num_executors = 4;
  config.threads_per_executor = 2;
  // Memory scales with the data so the cached working set always exceeds it.
  config.memory_capacity_per_executor = static_cast<uint64_t>(
      static_cast<double>(blaze::MiB(1) + blaze::KiB(768)) * scale);
  config.disk_throughput_bytes_per_sec = 32ULL << 20;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace blaze;
  WorkloadParams params;
  params.partitions = 16;
  params.iterations = 10;
  params.scale = argc > 1 ? std::atof(argv[1]) : 0.5;

  TextTable table;
  table.AddRow({"system", "ACT", "recompute", "disk I/O", "evictions", "disk written"});

  for (const std::string system : {"MEM_ONLY Spark", "MEM+DISK Spark", "Blaze"}) {
    EngineContext engine(MakeConfig(params.scale));
    Stopwatch act;
    PageRankResult result;
    if (system == "Blaze") {
      BlazeRunConfig run_config;
      run_config.options = BlazeOptions::Full();
      const WorkloadParams profiling_params = params.ForProfiling();
      run_config.profiling_driver = [profiling_params](EngineContext& e) {
        RunPageRank(e, profiling_params);
      };
      RunWithBlaze(engine, run_config,
                   [&](EngineContext& e) { result = RunPageRank(e, params); });
    } else {
      const EvictionMode mode = system == "MEM_ONLY Spark" ? EvictionMode::kMemOnly
                                                           : EvictionMode::kMemAndDisk;
      engine.SetCoordinator(
          std::make_unique<PolicyCoordinator>(&engine, MakePolicy("lru"), mode));
      result = RunPageRank(engine, params);
    }
    const double act_ms = act.ElapsedMillis();
    const auto snap = engine.metrics().Snapshot();
    table.AddRow({system, FormatMillis(act_ms), FormatMillis(snap.total_task.recompute_ms),
                  FormatMillis(snap.total_task.cache_disk_ms),
                  std::to_string(snap.evictions_to_disk + snap.evictions_discard),
                  FormatBytes(snap.disk_bytes_written_total)});
    std::cout << system << ": rank sum " << result.rank_sum << " over "
              << result.num_vertices << " vertices\n";
  }
  std::cout << "\n" << table.Render("PageRank under three caching systems");
  return 0;
}
