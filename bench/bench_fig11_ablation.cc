// Paper Fig. 11: performance breakdown of Blaze's components. Starting from
// MEM+DISK Spark, +AutoCache adds reference-driven automatic caching and
// unpersisting, +CostAware adds cost-ranked victim selection, and full Blaze
// adds the admission comparison, the recompute-vs-spill choice, and the ILP
// state plan.
#include <iostream>

#include "bench/harness.h"
#include "src/common/units.h"
#include "src/metrics/report.h"
#include "src/workloads/systems.h"
#include "src/workloads/workload.h"

int main(int argc, char** argv) {
  blaze::BenchArgs(argc, argv);
  using namespace blaze;
  const std::vector<std::string> systems{"spark-memdisk", "blaze-auto", "blaze-costaware",
                                         "blaze"};
  TextTable table;
  TextTable disk_table;
  std::vector<std::string> header{"workload"};
  for (const auto& system : systems) {
    header.push_back(FindSystem(system).label + " (ms)");
  }
  header.push_back("AutoCache gain");
  header.push_back("CostAware gain");
  header.push_back("ILP gain");
  table.AddRow(header);
  std::vector<std::string> disk_header{"workload"};
  for (const auto& system : systems) {
    disk_header.push_back(FindSystem(system).label);
  }
  disk_table.AddRow(disk_header);

  for (const std::string& workload : AllWorkloadNames()) {
    std::vector<double> act;
    std::vector<std::string> row{workload};
    std::vector<std::string> disk_row{workload};
    for (const auto& system : systems) {
      const BenchResult result = RunBench({workload, system});
      act.push_back(result.act_ms);
      row.push_back(Fmt(result.act_ms, 1));
      disk_row.push_back(FormatBytes(result.metrics.disk_bytes_written_total));
    }
    row.push_back(Fmt(act[0] / act[1], 2) + "x");
    row.push_back(Fmt(act[1] / act[2], 2) + "x");
    row.push_back(Fmt(act[2] / act[3], 2) + "x");
    table.AddRow(row);
    disk_table.AddRow(disk_row);
    std::cout << "." << std::flush;
  }
  std::cout << "\n" << table.Render("Fig. 11: Blaze component ablation (ACT)") << "\n"
            << disk_table.Render("Fig. 11 supplement: cache bytes written to disk");
  std::cout << "Paper shape: AutoCache provides the bulk of the ACT gain; the cost model\n"
               "and ILP further cut the disk traffic (full Blaze writes nearly nothing)\n"
               "and refine eviction choices where the reused working set itself is\n"
               "memory-contended.\n";
  return 0;
}
