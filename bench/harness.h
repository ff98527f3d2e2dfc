// Shared benchmark harness: runs one (workload, system) pair in a fresh
// engine and reports ACT plus the full metric snapshot. Every paper-figure
// binary is a thin driver over this.
#ifndef BENCH_HARNESS_H_
#define BENCH_HARNESS_H_

#include <string>
#include <vector>

#include "src/metrics/run_metrics.h"

namespace blaze {

struct RunSpec {
  std::string workload;  // pr, cc, lr, kmeans, gbt, svdpp
  std::string system;    // a catalogue name (src/workloads/systems.h)
  // Scale multiplier applied on top of the benchmark defaults
  // (BLAZE_BENCH_SCALE env var also multiplies in).
  double scale = 1.0;
  int iterations_override = 0;  // 0 = workload default
};

struct BenchResult {
  RunSpec spec;
  double act_ms = 0.0;  // end-to-end application completion time
  RunMetricsSnapshot metrics;
};

// Runs the spec in a fresh engine configured with the benchmark defaults
// (4 executors x 2 threads, per-workload memory capacity, throttled disk).
// When BLAZE_TRACE=<path> is set (or --trace was passed to BenchArgs), the
// run is recorded by the flight recorder and exported on completion: Chrome
// trace JSON to <path-stem>.<workload>.<system>.json, the cache audit log to
// the same stem + ".audit.jsonl", and a text summary to stderr.
BenchResult RunBench(const RunSpec& spec);

// Shared flag parsing for the figure binaries:
//   --trace=PATH   same as BLAZE_TRACE=PATH
//   --scale=X      same as BLAZE_BENCH_SCALE=X
// Unknown flags abort with a usage message.
void BenchArgs(int argc, char** argv);

// Splits a comma-separated env var into a filtered subset of `defaults`
// (order preserved); unset/empty env keeps all defaults. Used with
// BLAZE_BENCH_WORKLOADS / BLAZE_BENCH_SYSTEMS to shrink figure sweeps.
std::vector<std::string> FilterFromEnv(std::vector<std::string> defaults,
                                       const char* env_var);

// All systems of the paper's headline comparison (Fig. 9/10), in order.
std::vector<std::string> HeadlineSystems();

// Reads BLAZE_BENCH_SCALE (default 1.0); lets CI shrink every figure run.
double GlobalBenchScale();

}  // namespace blaze

#endif  // BENCH_HARNESS_H_
