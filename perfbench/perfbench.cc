// perfbench: the repository benchmark's driver binary (run it through
// run.py, which builds it).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--commit ID]
//
// Runs units of one workload back to back for S seconds and checks every
// unit's results against a reference computed before the clock starts.
// --trace 0 reports the end-to-end metrics; --trace 1 spends the first half
// of the window untraced (counter-derived per-layer metrics) and the second
// half under the flight recorder (span-derived metrics and the tracing
// overhead). Human-readable lines go first; the last line of stdout is one
// JSON object {"correct", "attempted", "failed", "metrics"}.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/perfbench.h"
#include "src/common/stopwatch.h"

namespace perfbench {

double ProcStatusMb(const std::string& proc_dir, const char* field) {
  std::FILE* f = std::fopen((proc_dir + "/status").c_str(), "r");
  if (f == nullptr) {
    return 0.0;
  }
  const std::string format = std::string(field) + ": %llu kB";
  double mb = 0.0;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    unsigned long long kib = 0;
    if (std::sscanf(line, format.c_str(), &kib) == 1) {
      mb = static_cast<double>(kib) / 1024.0;
      break;
    }
  }
  std::fclose(f);
  return mb;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[rank == 0 ? 0 : rank - 1];
}

namespace {

struct Metric {
  const char* name;
  const char* unit;
};

constexpr Metric kEndToEnd[] = {
    {"cpu_s", "s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

// Every per-layer metric, in BENCHMARK.json order. A metric a workload does
// not exercise reads 0 (net.* off pr-dist, tenant metrics off serve-zipf).
constexpr Metric kPerLayer[] = {
    {"wall.act_s", "s"},
    {"wall.job_p50_ms", "ms"},
    {"wall.job_p99_ms", "ms"},
    {"wall.jobs_per_s", "1/s"},
    {"dataflow.jobs", "count"},
    {"dataflow.tasks", "count"},
    {"dataflow.task_busy_ms", "ms"},
    {"dataflow.task_p50_ms", "ms"},
    {"dataflow.task_p99_ms", "ms"},
    {"dataflow.queue_wait_ms", "ms"},
    {"dataflow.recompute_ms", "ms"},
    {"dataflow.shuffle_put_ms", "ms"},
    {"dataflow.shuffle_fetch_ms", "ms"},
    {"dataflow.fused_ops", "count"},
    {"dataflow.vec_rows", "count"},
    {"dataflow.materializations_avoided", "count"},
    {"dataflow.task_failures", "count"},
    {"dataflow.tenant.gold.job_p99_ms", "ms"},
    {"dataflow.tenant.bronze.job_p99_ms", "ms"},
    {"dataflow.tenant.gold.hit_ratio", "ratio"},
    {"storage.hits_memory", "count"},
    {"storage.hits_disk", "count"},
    {"storage.misses", "count"},
    {"storage.memory_hit_ratio", "ratio"},
    {"storage.evictions_disk", "count"},
    {"storage.evictions_discard", "count"},
    {"storage.disk_mb_written", "MB"},
    {"storage.disk_mb_read", "MB"},
    {"storage.disk_peak_mb", "MB"},
    {"storage.cache_disk_ms", "ms"},
    {"storage.disk_io_p99_ms", "ms"},
    {"storage.spill_ms", "ms"},
    {"storage.load_ms", "ms"},
    {"storage.async_spills", "count"},
    {"storage.async_fetches", "count"},
    {"storage.spill_queue_rejects", "count"},
    {"storage.spill_queue_peak", "count"},
    {"blaze.profiling_ms", "ms"},
    {"blaze.admits", "count"},
    {"blaze.evicts", "count"},
    {"blaze.unpersists", "count"},
    {"solver.solves", "count"},
    {"solver.solve_ms", "ms"},
    {"solver.solve_p99_ms", "ms"},
    {"solver.ilp_wait_ms", "ms"},
    {"serialize.columnar_blocks", "count"},
    {"serialize.columnar_ratio", "ratio"},
    {"serialize.decodes", "count"},
    {"serialize.decode_ms", "ms"},
    {"net.rpc_rtt_p50_ms", "ms"},
    {"net.rpc_rtt_p99_ms", "ms"},
    {"net.block_puts", "count"},
    {"net.block_fetches", "count"},
    {"net.bucket_puts", "count"},
    {"net.bucket_fetches", "count"},
    {"net.wire_mb", "MB"},
    {"net.rpc_retries", "count"},
    {"net.rpc_failures", "count"},
    {"trace.task_run_self_ms", "ms"},
    {"trace.recompute_self_ms", "ms"},
    {"trace.ilp_solve_self_ms", "ms"},
    {"trace.job_run_ms", "ms"},
    {"trace.dropped_events", "count"},
    {"trace.overhead_act_ms", "ms"},
    {"trace.overhead_job_p50_ms", "ms"},
};

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string commit = "unknown";
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--commit ID]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage(("missing value for " + flag).c_str());
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value);
    } else if (flag == "--trace") {
      args.trace = std::atoi(value);
    } else if (flag == "--commit") {
      args.commit = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty() || args.seconds <= 0.0 || (args.trace != 0 && args.trace != 1)) {
    Usage("--workload, --seconds > 0 and --trace 0|1 are required");
  }
  return args;
}

unsigned CpuCount() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

// Engine shape: one single-threaded executor per two cores. The other half of
// the cores is left to the threads beside the executors (drivers, the spill
// worker, worker processes) and to the host: with every core busy, a core the
// host takes away stalls a task that a whole stage then waits for, and the
// figures follow the host's load rather than the engine's.
Env MakeEnv(const Args& args, const char* argv0) {
  Env env;
  env.nproc = CpuCount();
  env.executors = std::max(1u, env.nproc / 2);
  env.threads_per_executor = 1;
  env.seed = args.seed;
  env.per_layer = args.trace == 1;
  env.commit = args.commit;
  std::error_code ec;
  const std::filesystem::path self = std::filesystem::canonical("/proc/self/exe", ec);
  env.worker_binary =
      ((ec ? std::filesystem::path(argv0) : self).parent_path() / "blaze_worker").string();
  return env;
}

// Middle value, or the mean of the two middle values.
double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  const size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  const double upper = v[mid];
  if (v.size() % 2 == 1) {
    return upper;
  }
  return (*std::max_element(v.begin(), v.begin() + mid) + upper) / 2.0;
}

// Resets the process's peak resident set to its current size, so each unit's
// peak is its own rather than an earlier unit's. Where the kernel refuses, the
// peak spans the whole process.
void ResetPeakRss() {
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

// Busy and stolen CPU time since boot, from /proc/stat, in clock ticks. The
// steal share over a run tells how much the host took from this machine.
struct CpuTicks {
  unsigned long long total = 0;
  unsigned long long steal = 0;
};

CpuTicks ReadCpuTicks() {
  CpuTicks t;
  if (std::FILE* f = std::fopen("/proc/stat", "r")) {
    unsigned long long v[8] = {};
    if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1], &v[2],
                    &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
      for (unsigned long long x : v) {
        t.total += x;
      }
      t.steal = v[7];
    }
    std::fclose(f);
  }
  return t;
}

// Share of the CPU time between two readings that the host took, in percent.
double StealPct(const CpuTicks& before, const CpuTicks& after) {
  const unsigned long long ticks = after.total - before.total;
  return ticks == 0 ? 0.0
                    : 100.0 * static_cast<double>(after.steal - before.steal) /
                          static_cast<double>(ticks);
}

// CPU time (user + system) of this process and its reaped children, in ms.
double CpuMs() {
  double ms = 0.0;
  for (int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage u{};
    getrusage(who, &u);
    ms += (u.ru_utime.tv_sec + u.ru_stime.tv_sec) * 1e3 +
          (u.ru_utime.tv_usec + u.ru_stime.tv_usec) / 1e3;
  }
  return ms;
}

// Finite or 0: a value that must never break the JSON line.
double Finite(double v) { return std::isfinite(v) ? v : 0.0; }

std::vector<double> Collect(const std::vector<RunRecord>& units, double RunRecord::*field) {
  std::vector<double> out;
  for (const RunRecord& u : units) {
    out.push_back(u.*field);
  }
  return out;
}

// The run's figure for a per-unit value: the median over each input's units,
// averaged over the inputs. The median per input shrugs off the units a
// passing disturbance slowed; the mean weighs every input once, however many
// units of it the run had time for.
template <typename Value>
double Summarize(const std::vector<RunRecord>& units, Value value) {
  std::map<size_t, std::vector<double>> by_input;
  for (const RunRecord& u : units) {
    by_input[u.input].push_back(value(u));
  }
  double sum = 0.0;
  for (const auto& [input, values] : by_input) {
    sum += Median(values);
  }
  return by_input.empty() ? 0.0 : sum / static_cast<double>(by_input.size());
}

double Summarize(const std::vector<RunRecord>& units, double RunRecord::*field) {
  return Summarize(units, [field](const RunRecord& u) { return u.*field; });
}

void PrintSpread(const char* name, const char* unit, const std::vector<double>& values) {
  if (values.empty()) {
    return;
  }
  std::printf("  %-38s median=%.6g min=%.6g max=%.6g %s (n=%zu)\n", name, Median(values),
              *std::min_element(values.begin(), values.end()),
              *std::max_element(values.begin(), values.end()), unit, values.size());
}

// Runs units until `until_s` on `clock` has passed (at least one unit).
void RunUnits(BenchWorkload& workload, bool traced, const blaze::Stopwatch& clock,
              double until_s, std::vector<RunRecord>* out) {
  do {
    // Each unit starts from a trimmed heap, as a fresh application would.
    malloc_trim(0);
    ResetPeakRss();
    // What earlier units left resident (allocator caches, process-wide
    // registries) is not the unit's own memory.
    const double start_rss_mb = ProcStatusMb("/proc/self", "VmRSS");
    const blaze::Stopwatch wall;
    const CpuTicks ticks_before = ReadCpuTicks();
    const double cpu_before_ms = CpuMs();
    out->push_back(workload.RunOnce(traced));
    RunRecord& u = out->back();
    u.cpu_ms = CpuMs() - cpu_before_ms;
    u.steal_pct = StealPct(ticks_before, ReadCpuTicks());
    u.peak_rss_mb += ProcStatusMb("/proc/self", "VmHWM") - start_rss_mb;
    std::printf("unit %zu%s input=%zu wall_ms=%.1f act_ms=%.1f setup_ms=%.2f jobs=%llu "
                "job_p50_ms=%.3f job_p99_ms=%.3f start_rss_mb=%.1f peak_rss_mb=%.1f "
                "steal_pct=%.1f cpu_ms=%.1f failed=%llu\n",
                out->size() - 1, traced ? " traced" : "", u.input, wall.ElapsedMillis(),
                u.act_ms, u.setup_ms, static_cast<unsigned long long>(u.jobs), u.job_p50_ms,
                u.job_p99_ms, start_rss_mb, u.peak_rss_mb, u.steal_pct, u.cpu_ms,
                static_cast<unsigned long long>(u.failed));
  } while (clock.ElapsedSeconds() < until_s);
}

struct Reported {
  std::string name;
  std::string unit;
  double value;
};

struct WorkloadResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Reported> metrics;
};

// The wall-clock figures of the untraced units: application time, job
// latency percentiles and job throughput.
std::map<std::string, double> WallTimes(const std::vector<RunRecord>& units) {
  return {
      {"wall.act_s", Summarize(units, [](const RunRecord& u) { return u.act_ms / 1e3; })},
      {"wall.job_p50_ms", Summarize(units, &RunRecord::job_p50_ms)},
      {"wall.job_p99_ms", Summarize(units, &RunRecord::job_p99_ms)},
      {"wall.jobs_per_s", Summarize(units,
                                    [](const RunRecord& u) {
                                      return u.driver_ms > 0.0 ? static_cast<double>(u.jobs) /
                                                                     (u.driver_ms / 1e3)
                                                               : 0.0;
                                    })},
  };
}

// Set-up time is the median over every unit's own set-up. Units spread the
// samples over the whole run, so a burst of host steal moves few of them.
std::vector<Reported> EndToEndMetrics(const std::vector<RunRecord>& plain) {
  uint64_t job_samples = 0;
  std::set<size_t> inputs;
  std::vector<double> setup_s;
  for (const RunRecord& u : plain) {
    setup_s.push_back(u.setup_ms / 1e3);
    job_samples += u.job_samples;
    inputs.insert(u.input);
  }
  PrintSpread("cpu_ms (per unit)", "ms", Collect(plain, &RunRecord::cpu_ms));
  PrintSpread("act_ms (per unit)", "ms", Collect(plain, &RunRecord::act_ms));
  PrintSpread("job_p50_ms (per unit)", "ms", Collect(plain, &RunRecord::job_p50_ms));
  PrintSpread("job_p99_ms (per unit)", "ms", Collect(plain, &RunRecord::job_p99_ms));
  PrintSpread("setup_s", "s", setup_s);
  PrintSpread("peak_rss_mb (per unit)", "MB", Collect(plain, &RunRecord::peak_rss_mb));
  std::printf("  jobs timed: %llu over %zu units of %zu inputs\n",
              static_cast<unsigned long long>(job_samples), plain.size(), inputs.size());
  for (const auto& [name, value] : WallTimes(plain)) {
    std::printf("  %s %.6g\n", name.c_str(), value);
  }
  const double values[] = {Summarize(plain, [](const RunRecord& u) { return u.cpu_ms / 1e3; }),
                           Median(setup_s), Summarize(plain, &RunRecord::peak_rss_mb)};
  std::vector<Reported> out;
  for (size_t i = 0; i < std::size(kEndToEnd); ++i) {
    out.push_back({kEndToEnd[i].name, kEndToEnd[i].unit, values[i]});
  }
  return out;
}

// Traced minus untraced: the mean, over the inputs both halves ran, of the
// difference of their medians.
double TracingOverhead(const std::vector<RunRecord>& plain, const std::vector<RunRecord>& traced,
                       double RunRecord::*field) {
  std::map<size_t, std::vector<double>> untraced_by_input;
  std::map<size_t, std::vector<double>> traced_by_input;
  for (const RunRecord& u : plain) {
    untraced_by_input[u.input].push_back(u.*field);
  }
  for (const RunRecord& u : traced) {
    traced_by_input[u.input].push_back(u.*field);
  }
  double sum = 0.0;
  size_t inputs = 0;
  for (const auto& [input, values] : traced_by_input) {
    if (auto it = untraced_by_input.find(input); it != untraced_by_input.end()) {
      sum += Median(values) - Median(it->second);
      ++inputs;
    }
  }
  return inputs == 0 ? 0.0 : sum / static_cast<double>(inputs);
}

// Counters, untraced timings and pings come from the first half's units,
// span times from the second half's.
std::vector<Reported> PerLayerMetrics(const std::vector<RunRecord>& plain,
                                      const std::vector<RunRecord>& traced) {
  std::map<std::string, double> values;
  for (const Metric& m : kPerLayer) {
    std::vector<double> samples;
    for (const std::vector<RunRecord>* units : {&plain, &traced}) {
      for (const RunRecord& u : *units) {
        if (auto it = u.layer.find(m.name); it != u.layer.end()) {
          samples.push_back(it->second);
        }
      }
    }
    PrintSpread(m.name, m.unit, samples);
    values[m.name] = Median(samples);
  }
  std::vector<double> rtt_ms;
  for (const RunRecord& u : plain) {
    rtt_ms.insert(rtt_ms.end(), u.rtt_ms.begin(), u.rtt_ms.end());
  }
  values["net.rpc_rtt_p50_ms"] = Percentile(rtt_ms, 0.50);
  values["net.rpc_rtt_p99_ms"] = Percentile(rtt_ms, 0.99);
  if (!rtt_ms.empty()) {
    std::printf("  ping round trips: p50=%.4f ms p99=%.4f ms over %zu samples\n",
                values["net.rpc_rtt_p50_ms"], values["net.rpc_rtt_p99_ms"], rtt_ms.size());
  }
  for (const auto& [name, value] : WallTimes(plain)) {
    values[name] = value;
  }
  // Tracing overhead: traced minus untraced units of the same run.
  values["trace.overhead_act_ms"] = TracingOverhead(plain, traced, &RunRecord::act_ms);
  values["trace.overhead_job_p50_ms"] = TracingOverhead(plain, traced, &RunRecord::job_p50_ms);
  std::printf("  tracing overhead: act %+.3f ms, job p50 %+.4f ms\n",
              values["trace.overhead_act_ms"], values["trace.overhead_job_p50_ms"]);
  std::vector<Reported> out;
  for (const Metric& m : kPerLayer) {
    out.push_back({m.name, m.unit, values[m.name]});
  }
  return out;
}

WorkloadResult RunWorkload(const std::string& name, const Args& args, const Env& env) {
  std::unique_ptr<BenchWorkload> workload = MakeBenchWorkload(name, env);
  if (workload == nullptr) {
    Usage(("unknown workload " + name).c_str());
  }
  std::printf("env {\"workload\":\"%s\",\"nproc\":%u,\"executors\":%zu,"
              "\"threads_per_executor\":%zu,\"seed\":%llu,\"commit\":\"%s\","
              "\"trace\":%d,\"seconds\":%g,\"inputs\":\"%s\"}\n",
              name.c_str(), env.nproc, env.executors, env.threads_per_executor,
              static_cast<unsigned long long>(env.seed), env.commit.c_str(), args.trace,
              args.seconds, workload->Describe().c_str());
  workload->Prepare();
  std::fflush(stdout);

  std::vector<RunRecord> plain;
  std::vector<RunRecord> traced;
  const CpuTicks ticks_before = ReadCpuTicks();
  blaze::Stopwatch clock;
  if (args.trace == 0) {
    RunUnits(*workload, false, clock, args.seconds, &plain);
  } else {
    RunUnits(*workload, false, clock, args.seconds / 2, &plain);
    RunUnits(*workload, true, clock, args.seconds, &traced);
  }
  const CpuTicks ticks_after = ReadCpuTicks();
  const unsigned long long ticks = ticks_after.total - ticks_before.total;
  std::printf("units %zu untraced, %zu traced in %.1f s; host steal %.1f%% of cpu time\n",
              plain.size(), traced.size(), clock.ElapsedSeconds(),
              ticks == 0 ? 0.0
                         : 100.0 * static_cast<double>(ticks_after.steal - ticks_before.steal) /
                               static_cast<double>(ticks));

  WorkloadResult result;
  for (const std::vector<RunRecord>* units : {&plain, &traced}) {
    for (const RunRecord& u : *units) {
      result.attempted += u.attempted;
      result.failed += u.failed;
    }
  }
  result.metrics = args.trace == 0 ? EndToEndMetrics(plain)
                                   : PerLayerMetrics(plain, traced);
  std::printf("failed_frac %.6g (%llu of %llu)\n",
              result.attempted == 0 ? 1.0
                                    : static_cast<double>(result.failed) /
                                          static_cast<double>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));
  return result;
}

std::string ResultJson(const WorkloadResult& r) {
  std::string json = "{\"correct\": ";
  json += r.failed == 0 && r.attempted > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    char value[40];
    std::snprintf(value, sizeof(value), "%.17g", Finite(r.metrics[i].value));
    json += (i == 0 ? "\"" : ", \"") + r.metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + r.metrics[i].unit + "\"}";
  }
  return json + "}}";
}

}  // namespace

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Env env = MakeEnv(args, argv[0]);
  if (args.workload != "all") {
    const WorkloadResult result = RunWorkload(args.workload, args, env);
    std::printf("%s\n", ResultJson(result).c_str());
    return 0;
  }
  // Every workload in this one process, one after another: a result line
  // each, then one JSON object whose metric names carry the workload.
  WorkloadResult all;
  for (const std::string& name : BenchWorkloadNames()) {
    const WorkloadResult result = RunWorkload(name, args, env);
    std::printf("result %s %s\n", name.c_str(), ResultJson(result).c_str());
    std::fflush(stdout);
    all.attempted += result.attempted;
    all.failed += result.failed;
    for (const Reported& m : result.metrics) {
      all.metrics.push_back({name + "." + m.name, m.unit, m.value});
    }
  }
  std::printf("%s\n", ResultJson(all).c_str());
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
