// Paper Fig. 13: value of the dependency-extraction profiling phase. Blaze is
// run with and without the profiling run on PR, CC, LR, and SVD++; without
// it, future references are learned on the fly and the first iterations of
// each congruence class go uncached. ACT is normalized to the w/o-profiling
// run (paper reports 0.61/0.77/1.00/0.92 with profiling).
#include <iostream>

#include "bench/harness.h"
#include "src/metrics/report.h"

int main(int argc, char** argv) {
  blaze::BenchArgs(argc, argv);
  using namespace blaze;
  TextTable table;
  table.AddRow({"workload", "w/o profiling (ms)", "w/ profiling (ms)", "normalized ACT",
                "profiling overhead"});
  for (const std::string workload : {"pr", "cc", "lr", "svdpp"}) {
    const BenchResult without = RunBench({workload, "blaze-noprofile"});
    const BenchResult with = RunBench({workload, "blaze"});
    table.AddRow({workload, Fmt(without.act_ms, 1), Fmt(with.act_ms, 1),
                  Fmt(with.act_ms / without.act_ms, 2),
                  Fmt(100.0 * with.metrics.profiling_ms / with.act_ms, 1) + "% of ACT"});
    std::cout << "." << std::flush;
  }
  std::cout << "\n"
            << table.Render("Fig. 13: Blaze with vs without dependency profiling")
            << "Paper shape: profiling pays for itself (normalized ACT < 1, largest gain\n"
               "for the graph workloads with cross-job references); overhead is a few\n"
               "percent of ACT.\n";
  return 0;
}
