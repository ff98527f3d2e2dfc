// Repository benchmark: shared types of the driver (perfbench.cc), the three
// workloads (workloads.cc) and the trace analysis (trace_stats.cc).
#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/trace.h"

namespace perfbench {

// Engine shape and run identity; printed with every record.
struct Env {
  unsigned nproc = 1;
  size_t executors = 1;
  size_t threads_per_executor = 1;
  uint64_t seed = 0;
  // A per-layer run (--trace 1): probes that only per-layer metrics use
  // (pr-dist's ping round trips) run in its units and nowhere else.
  bool per_layer = false;
  std::string commit;
  std::string worker_binary;  // blaze_worker beside the benchmark binary
};

// What one measured unit produced: one application run (pr-blaze, pr-dist)
// or one serving session of a fixed number of jobs (serve-zipf).
struct RunRecord {
  // Which of the workload's inputs the unit ran. Units of one input are
  // summarised together, so a run's figures do not hang on how many units of
  // each input it had time for.
  size_t input = 0;
  uint64_t attempted = 0;  // application runs, or jobs, attempted
  uint64_t failed = 0;     // wrong result, exception, rejected job, counter mismatch
  double setup_ms = 0.0;   // engine construction (+ worker spawn / pool build)
  // Peak resident memory of the unit: this process's peak above its
  // resident set when the unit started, plus each worker process's peak
  // (pr-dist; workers start fresh with every unit).
  double peak_rss_mb = 0.0;
  double act_ms = 0.0;     // application wall time, profiling included
  double driver_ms = 0.0;  // the part of act_ms that ran the jobs counted in `jobs`
  uint64_t jobs = 0;
  double steal_pct = 0.0;  // share of the machine's CPU time the host took
  // CPU time (user + system) the unit cost, of this process and of its
  // worker processes, set-up and teardown included. The host's steal is not
  // in it: the kernel leaves stolen time out of every task's run time.
  double cpu_ms = 0.0;
  // The unit's per-job latency percentiles: exact, where the benchmark times
  // each job itself (serve-zipf), else from the scheduler's job histogram.
  double job_p50_ms = 0.0;
  double job_p99_ms = 0.0;
  uint64_t job_samples = 0;
  // Per-layer values of this unit, by metric name.
  std::map<std::string, double> layer;
  // Ping round trips (pr-dist), pooled across units before percentiles.
  std::vector<double> rtt_ms;
};

class BenchWorkload {
 public:
  virtual ~BenchWorkload() = default;
  // "scale=1 partitions=16 iterations=10"-style description of the inputs.
  virtual std::string Describe() const = 0;
  // Computes the reference outputs for the seed. Never timed.
  virtual void Prepare() = 0;
  // One measured unit. With `traced`, the flight recorder covers the unit
  // and the record carries span-derived (T) metrics instead of counters.
  virtual RunRecord RunOnce(bool traced) = 0;
};

// nullptr for an unknown name.
std::unique_ptr<BenchWorkload> MakeBenchWorkload(const std::string& name, const Env& env);
std::vector<std::string> BenchWorkloadNames();

// A memory field of /proc/<pid>/status ("VmHWM" peak resident set, "VmRSS"
// resident set) of the process whose /proc directory is given, in MiB; 0
// when it cannot be read.
double ProcStatusMb(const std::string& proc_dir, const char* field);

// Nearest-rank percentile (q in [0, 1]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double q);

// Span totals of one drained trace, in milliseconds. Self time is a span's
// duration minus the part covered by spans nested inside it on the same
// thread. task.queue_wait and job.run are not work done on the emitting
// thread (a wait, and a job-wide span emitted by whichever thread finished
// the job), so they are totalled but kept out of the nesting.
struct SpanStats {
  std::map<std::string, double> self_ms;
  std::map<std::string, double> total_ms;
  uint64_t dropped = 0;
};
SpanStats AnalyzeTrace(const blaze::trace::Dump& dump);

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
