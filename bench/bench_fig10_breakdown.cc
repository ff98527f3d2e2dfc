// Paper Fig. 10: accumulated task-time breakdown per system per workload —
// disk I/O time for caching (incl. (de)serialization) vs computation+shuffle —
// plus the cache-activity counters that explain it (evictions, hits, misses,
// recomputation time, disk bytes).
#include <iostream>

#include "bench/harness.h"
#include "src/common/units.h"
#include "src/metrics/report.h"
#include "src/workloads/systems.h"
#include "src/workloads/workload.h"

int main(int argc, char** argv) {
  blaze::BenchArgs(argc, argv);
  using namespace blaze;
  for (const std::string& workload : AllWorkloadNames()) {
    TextTable table;
    table.AddRow({"system", "task total (ms)", "disk I/O (ms)", "compute+shuffle (ms)",
                  "recompute (ms)", "evict->disk", "evict->drop", "unpersist", "disk written",
                  "disk peak"});
    for (const auto& system : HeadlineSystems()) {
      const BenchResult result = RunBench({workload, system});
      const TaskMetrics& t = result.metrics.total_task;
      table.AddRow({FindSystem(system).label, Fmt(t.compute_ms + t.cache_disk_ms, 1),
                    Fmt(t.cache_disk_ms, 1), Fmt(t.compute_ms, 1), Fmt(t.recompute_ms, 1),
                    std::to_string(result.metrics.evictions_to_disk),
                    std::to_string(result.metrics.evictions_discard),
                    std::to_string(result.metrics.unpersists),
                    FormatBytes(result.metrics.disk_bytes_written_total),
                    FormatBytes(result.metrics.disk_bytes_peak)});
    }
    std::cout << table.Render("Fig. 10 breakdown: " + workload) << "\n";
  }
  std::cout << "Paper shape: Blaze's disk column collapses (95%+ reduction vs MEM+DISK);\n"
               "MEM_ONLY shows no disk but large recompute; Alluxio pays (de)ser on hits.\n";
  return 0;
}
