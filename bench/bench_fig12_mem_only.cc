// Paper Fig. 12: memory-only comparison (no disk tier anywhere): number of
// evictions and accumulated recomputation time of evicted data for MEM_ONLY
// Spark, LRC, MRD, and Blaze(MEM) on PR, CC, LR, and SVD++.
#include <iostream>

#include "bench/harness.h"
#include "src/metrics/report.h"
#include "src/workloads/systems.h"

int main(int argc, char** argv) {
  blaze::BenchArgs(argc, argv);
  using namespace blaze;
  const std::vector<std::string> workloads{"pr", "cc", "lr", "svdpp"};
  std::vector<std::string> systems;
  for (const SystemSpec& system : AllSystems()) {
    if (system.memory_only) {
      systems.push_back(system.name);
    }
  }

  TextTable evictions;
  TextTable recompute;
  std::vector<std::string> header{"workload"};
  for (const auto& system : systems) {
    header.push_back(FindSystem(system).label);
  }
  evictions.AddRow(header);
  recompute.AddRow(header);

  for (const auto& workload : workloads) {
    std::vector<std::string> ev_row{workload};
    std::vector<std::string> rc_row{workload};
    for (const auto& system : systems) {
      const BenchResult result = RunBench({workload, system});
      ev_row.push_back(std::to_string(result.metrics.evictions_discard +
                                      result.metrics.evictions_to_disk));
      rc_row.push_back(Fmt(result.metrics.total_task.recompute_ms, 1));
    }
    evictions.AddRow(ev_row);
    recompute.AddRow(rc_row);
    std::cout << "." << std::flush;
  }
  std::cout << "\n"
            << evictions.Render("Fig. 12a: number of evictions (memory-only systems)")
            << "\n"
            << recompute.Render(
                   "Fig. 12b: accumulated recomputation time of evicted data (ms)");
  std::cout << "Paper shape: Blaze(MEM) incurs no evictions in LR (only reused data is\n"
               "cached) and far lower recomputation time than LRU everywhere, even when\n"
               "its eviction count is not the lowest (it evicts cheap-to-recover data).\n";
  return 0;
}
