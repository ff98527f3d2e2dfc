// The three benchmark workloads. Each drives the engine only through its
// public entry points (workload Run* functions, EngineContext, RunJobAs,
// ExtractDependencies, RemoteExecutorSet::RunTask) and reads counters from
// RunMetrics snapshots and MetricsRegistry snapshots taken around the
// measured part of a unit.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <any>
#include <cstdio>
#include <cstring>
#include <exception>
#include <functional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "perfbench/perfbench.h"
#include "src/blaze/blaze_coordinator.h"
#include "src/blaze/profiler.h"
#include "src/cache/policies.h"
#include "src/cache/policy_coordinator.h"
#include "src/common/rng.h"
#include "src/common/stopwatch.h"
#include "src/common/units.h"
#include "src/dataflow/engine_context.h"
#include "src/dataflow/pair_rdd.h"
#include "src/dataflow/rdd.h"
#include "src/metrics/histogram.h"
#include "src/metrics/registry.h"
#include "src/net/remote_executor.h"
#include "src/workloads/pagerank.h"

namespace perfbench {

using blaze::EngineConfig;
using blaze::EngineContext;
using blaze::RegistrySnapshot;
using blaze::RunMetricsSnapshot;
using blaze::Stopwatch;
using blaze::WorkloadParams;

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

// Registry histograms read per unit. Histograms cannot be differenced, so
// each is zeroed right before the measured part of a unit instead.
constexpr const char* kUnitHistograms[] = {"sched.job_latency_ms", "task.latency_ms",
                                           "disk.io_ms", "ilp.solve_ms"};

void ResetUnitHistograms() {
  for (const char* name : kUnitHistograms) {
    blaze::MetricsRegistry::Global().Histogram(name)->Reset();
  }
}

// Counter or callback-gauge value; 0 when absent.
double RegValue(const RegistrySnapshot& snap, const std::string& name) {
  if (const uint64_t* c = snap.FindCounter(name)) {
    return static_cast<double>(*c);
  }
  if (const int64_t* g = snap.FindGauge(name)) {
    return static_cast<double>(*g);
  }
  return 0.0;
}

double RegDelta(const RegistrySnapshot& before, const RegistrySnapshot& after,
                const std::string& name) {
  return RegValue(after, name) - RegValue(before, name);
}

blaze::HistogramSnapshot RegHist(const RegistrySnapshot& snap, const std::string& name) {
  const blaze::HistogramSnapshot* h = snap.FindHistogram(name);
  return h != nullptr ? *h : blaze::HistogramSnapshot{};
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double TaskWallMs(const RunMetricsSnapshot& m) {
  double total = 0.0;
  for (const auto& [job, slice] : m.per_job) {
    total += slice.task_wall_ms;
  }
  return total;
}

// after - before for the additive RunMetrics fields the benchmark reports;
// peaks keep the later value (a peak over the engine's life so far).
RunMetricsSnapshot Diff(const RunMetricsSnapshot& after, const RunMetricsSnapshot& before) {
  RunMetricsSnapshot d = after;
  d.num_tasks -= before.num_tasks;
  d.total_task.compute_ms -= before.total_task.compute_ms;
  d.total_task.cache_disk_ms -= before.total_task.cache_disk_ms;
  d.total_task.recompute_ms -= before.total_task.recompute_ms;
  d.total_task.ilp_wait_ms -= before.total_task.ilp_wait_ms;
  d.total_task.cache_disk_bytes_read -= before.total_task.cache_disk_bytes_read;
  d.total_task.cache_disk_bytes_written -= before.total_task.cache_disk_bytes_written;
  d.total_task.fused_ops -= before.total_task.fused_ops;
  d.total_task.rows_vectorized -= before.total_task.rows_vectorized;
  d.total_task.materializations_avoided -= before.total_task.materializations_avoided;
  d.evictions_to_disk -= before.evictions_to_disk;
  d.evictions_discard -= before.evictions_discard;
  d.unpersists -= before.unpersists;
  d.cache_hits_memory -= before.cache_hits_memory;
  d.cache_hits_disk -= before.cache_hits_disk;
  d.cache_misses -= before.cache_misses;
  d.disk_bytes_written_total -= before.disk_bytes_written_total;
  d.solver_ms -= before.solver_ms;
  d.solver_invocations -= before.solver_invocations;
  d.task_failures -= before.task_failures;
  d.async_spills -= before.async_spills;
  d.async_fetches -= before.async_fetches;
  d.spill_queue_rejects -= before.spill_queue_rejects;
  d.columnar_blocks -= before.columnar_blocks;
  d.columnar_bytes -= before.columnar_bytes;
  d.columnar_row_bytes -= before.columnar_row_bytes;
  d.columnar_decodes -= before.columnar_decodes;
  d.columnar_decode_ms -= before.columnar_decode_ms;
  for (const auto& [job, slice] : before.per_job) {
    d.per_job.erase(job);
  }
  return d;
}

// Counter-derived per-layer values of one unit: `m` is the unit's RunMetrics
// delta and before/after the registry snapshots around its measured part.
// Returns false when the registry's task count disagrees with RunMetrics
// (counters leaking between engines, or a lost update).
bool RecordLayers(const RunMetricsSnapshot& m, const RegistrySnapshot& before,
                  const RegistrySnapshot& after, RunRecord* rec) {
  auto& l = rec->layer;
  const double tasks_registry = RegDelta(before, after, "task.completed");
  const blaze::HistogramSnapshot task_hist = RegHist(after, "task.latency_ms");
  l["dataflow.jobs"] = RegDelta(before, after, "sched.jobs_completed");
  l["dataflow.tasks"] = static_cast<double>(m.num_tasks);
  l["dataflow.task_busy_ms"] = TaskWallMs(m);
  l["dataflow.task_p50_ms"] = task_hist.p50_ms;
  l["dataflow.task_p99_ms"] = task_hist.p99_ms;
  l["dataflow.recompute_ms"] = m.total_task.recompute_ms;
  l["dataflow.fused_ops"] = static_cast<double>(m.total_task.fused_ops);
  l["dataflow.vec_rows"] = static_cast<double>(m.total_task.rows_vectorized);
  l["dataflow.materializations_avoided"] =
      static_cast<double>(m.total_task.materializations_avoided);
  l["dataflow.task_failures"] = static_cast<double>(m.task_failures);

  const double hits_mem = static_cast<double>(m.cache_hits_memory);
  const double hits_disk = static_cast<double>(m.cache_hits_disk);
  const double misses = static_cast<double>(m.cache_misses);
  l["storage.hits_memory"] = hits_mem;
  l["storage.hits_disk"] = hits_disk;
  l["storage.misses"] = misses;
  l["storage.memory_hit_ratio"] = Ratio(hits_mem, hits_mem + hits_disk + misses);
  l["storage.evictions_disk"] = static_cast<double>(m.evictions_to_disk);
  l["storage.evictions_discard"] = static_cast<double>(m.evictions_discard);
  l["storage.disk_mb_written"] = static_cast<double>(m.disk_bytes_written_total) / kMiB;
  l["storage.disk_mb_read"] = static_cast<double>(m.total_task.cache_disk_bytes_read) / kMiB;
  l["storage.disk_peak_mb"] = static_cast<double>(m.disk_bytes_peak) / kMiB;
  l["storage.cache_disk_ms"] = m.total_task.cache_disk_ms;
  l["storage.disk_io_p99_ms"] = RegHist(after, "disk.io_ms").p99_ms;
  l["storage.async_spills"] = static_cast<double>(m.async_spills);
  l["storage.async_fetches"] = static_cast<double>(m.async_fetches);
  l["storage.spill_queue_rejects"] = static_cast<double>(m.spill_queue_rejects);
  l["storage.spill_queue_peak"] = static_cast<double>(m.spill_queue_peak_depth);

  l["blaze.admits"] = RegDelta(before, after, "audit.admit");
  l["blaze.evicts"] = RegDelta(before, after, "audit.evict");
  l["blaze.unpersists"] = static_cast<double>(m.unpersists);

  l["solver.solves"] = static_cast<double>(m.solver_invocations);
  l["solver.solve_ms"] = m.solver_ms;
  l["solver.solve_p99_ms"] = RegHist(after, "ilp.solve_ms").p99_ms;
  l["solver.ilp_wait_ms"] = m.total_task.ilp_wait_ms;

  l["serialize.columnar_blocks"] = static_cast<double>(m.columnar_blocks);
  l["serialize.columnar_ratio"] = Ratio(static_cast<double>(m.columnar_bytes),
                                        static_cast<double>(m.columnar_row_bytes));
  l["serialize.decodes"] = static_cast<double>(m.columnar_decodes);
  l["serialize.decode_ms"] = m.columnar_decode_ms;

  l["net.block_puts"] = RegDelta(before, after, "net.block_puts");
  l["net.block_fetches"] = RegDelta(before, after, "net.block_fetches");
  l["net.bucket_puts"] = RegDelta(before, after, "net.bucket_puts");
  l["net.bucket_fetches"] = RegDelta(before, after, "net.bucket_fetches");
  l["net.wire_mb"] = (RegDelta(before, after, "net.block_put_bytes") +
                      RegDelta(before, after, "net.block_fetch_bytes")) /
                     kMiB;
  l["net.rpc_retries"] = RegDelta(before, after, "net.rpc_retries");
  l["net.rpc_failures"] = RegDelta(before, after, "net.rpc_failures");

  if (tasks_registry != static_cast<double>(m.num_tasks)) {
    std::fprintf(stderr, "perfbench: registry task.completed delta %.0f != RunMetrics "
                 "num_tasks %llu\n", tasks_registry,
                 static_cast<unsigned long long>(m.num_tasks));
    return false;
  }
  return true;
}

// Span-derived (T) per-layer values of one traced unit.
void RecordTraceLayers(const blaze::trace::Dump& dump, RunRecord* rec) {
  const SpanStats spans = AnalyzeTrace(dump);
  const auto self = [&](const char* name) {
    auto it = spans.self_ms.find(name);
    return it == spans.self_ms.end() ? 0.0 : it->second;
  };
  const auto total = [&](const char* name) {
    auto it = spans.total_ms.find(name);
    return it == spans.total_ms.end() ? 0.0 : it->second;
  };
  auto& l = rec->layer;
  l["dataflow.queue_wait_ms"] = total("task.queue_wait");
  l["dataflow.shuffle_put_ms"] = self("shuffle.put");
  l["dataflow.shuffle_fetch_ms"] = self("shuffle.fetch");
  l["storage.spill_ms"] = self("block.spill");
  l["storage.load_ms"] = self("block.load");
  l["trace.task_run_self_ms"] = self("task.run");
  l["trace.recompute_self_ms"] = self("task.recompute");
  l["trace.ilp_solve_self_ms"] = self("ilp.solve");
  l["trace.job_run_ms"] = total("job.run");
  l["trace.dropped_events"] = static_cast<double>(spans.dropped);
}

void StartTrace() {
  blaze::trace::Config config;
  config.capacity_per_thread = 1 << 16;
  blaze::trace::Start(config);
}

blaze::trace::Dump StopTrace() {
  blaze::trace::Stop();
  return blaze::trace::Drain();
}

EngineConfig ShapedConfig(const Env& env, uint64_t aggregate_capacity) {
  EngineConfig config;
  config.num_executors = env.executors;
  config.threads_per_executor = env.threads_per_executor;
  config.memory_capacity_per_executor = aggregate_capacity / env.executors;
  return config;
}

std::string Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(bits));
  return buf;
}

// Bit-exact result fingerprint.
std::string Fingerprint(const blaze::PageRankResult& r) {
  return "vertices=" + std::to_string(r.num_vertices) + " rank_sum=" + Bits(r.rank_sum);
}

// Runs `fn` in a forked child and returns its lines (empty if the child
// fails). Reference runs go there so that the buffers and allocator state
// they leave behind never count in the measured process's resident set.
// Called before this process has started any thread.
std::vector<std::string> InChildProcess(const std::function<std::vector<std::string>()>& fn) {
  int fds[2];
  if (pipe(fds) != 0) {
    return {};
  }
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return {};
  }
  if (pid == 0) {
    close(fds[0]);
    std::string out;
    for (const std::string& line : fn()) {
      out += line + "\n";
    }
    const char* p = out.data();
    size_t left = out.size();
    while (left > 0) {
      const ssize_t n = write(fds[1], p, left);
      if (n <= 0) {
        _exit(1);
      }
      p += n;
      left -= static_cast<size_t>(n);
    }
    _exit(0);
  }
  close(fds[1]);
  std::string in;
  char buf[4096];
  ssize_t n;
  while ((n = read(fds[0], buf, sizeof(buf))) > 0) {
    in.append(buf, static_cast<size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return {};
  }
  std::vector<std::string> lines;
  std::istringstream stream(in);
  for (std::string line; std::getline(stream, line);) {
    lines.push_back(line);
  }
  return lines;
}

// --- PageRank under Blaze (pr-blaze, pr-dist) --------------------------------------

class PageRankWorkload : public BenchWorkload {
 public:
  // Units cycle through `num_inputs` inputs generated from seeds derived from
  // the benchmark seed, so a run's figures average over many graphs rather
  // than sit on one graph's partition skew.
  PageRankWorkload(const Env& env, WorkloadParams params, int num_inputs, EngineConfig config,
                   int pings_per_worker)
      : env_(env),
        params_(params),
        config_(config),
        pings_per_worker_(pings_per_worker) {
    for (int i = 0; i < num_inputs; ++i) {
      seeds_.push_back(env.seed * 1000 + static_cast<uint64_t>(i));
    }
  }

  std::string Describe() const override {
    std::ostringstream os;
    os << "scale=" << params_.scale << " partitions=" << params_.partitions
       << " iterations=" << params_.iterations << " inputs=" << seeds_.size()
       << " capacity_mb="
       << static_cast<double>(config_.memory_capacity_per_executor * config_.num_executors) /
              kMiB
       << " workers=" << (config_.distributed ? config_.num_workers : 0);
    return os.str();
  }

  // Reference per input: an in-process engine whose memory holds everything,
  // under the plain annotation-following LRU coordinator — no eviction,
  // spill, recompute, profile or wire.
  void Prepare() override {
    references_ = InChildProcess([this] {
      std::vector<std::string> fingerprints;
      // Untimed, so every core runs an executor.
      EngineConfig config;
      config.num_executors = env_.nproc;
      config.memory_capacity_per_executor = blaze::GiB(1) / env_.nproc;
      for (uint64_t seed : seeds_) {
        EngineContext engine(config);
        engine.SetCoordinator(std::make_unique<blaze::PolicyCoordinator>(
            &engine, blaze::MakePolicy("lru"), blaze::EvictionMode::kMemAndDisk));
        fingerprints.push_back(Fingerprint(blaze::RunPageRank(engine, ParamsFor(seed))));
      }
      return fingerprints;
    });
    if (references_.size() != seeds_.size()) {
      throw std::runtime_error("reference runs failed");
    }
    for (size_t i = 0; i < seeds_.size(); ++i) {
      std::printf("reference seed=%llu %s\n", static_cast<unsigned long long>(seeds_[i]),
                  references_[i].c_str());
    }
  }

  RunRecord RunOnce(bool traced) override {
    RunRecord rec;
    rec.attempted = 1;
    const size_t input = next_input_++ % seeds_.size();
    rec.input = input;
    try {
      Run(input, traced, &rec);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: run failed: %s\n", e.what());
      rec.failed = 1;
    }
    return rec;
  }

 private:
  WorkloadParams ParamsFor(uint64_t seed) const {
    WorkloadParams params = params_;
    params.seed = seed;
    return params;
  }

  void Run(size_t input, bool traced, RunRecord* rec) {
    const WorkloadParams params = ParamsFor(seeds_[input]);
    Stopwatch setup;
    auto engine = std::make_unique<EngineContext>(config_);
    rec->setup_ms = setup.ElapsedMillis();

    // Profiling: the dependency-extraction run on the sampled input, as
    // RunWithBlaze does it, timed here so blaze.profiling_ms is measured by
    // the benchmark itself. It is part of the application's time (Fig. 13).
    if (traced) {
      StartTrace();
    }
    Stopwatch profiling;
    const WorkloadParams profiling_params = params.ForProfiling();
    const blaze::ProfilingResult profile = blaze::ExtractDependencies(
        [profiling_params](EngineContext& e) { blaze::RunPageRank(e, profiling_params); },
        engine->num_executors());
    const double profiling_ms = profiling.ElapsedMillis();

    // Untimed: isolate this run's counters from the profiling engine's.
    ResetUnitHistograms();
    const RegistrySnapshot before = blaze::MetricsRegistry::Global().Snapshot();

    Stopwatch driver;
    auto coordinator =
        std::make_unique<blaze::BlazeCoordinator>(engine.get(), blaze::BlazeOptions::Full());
    coordinator->SeedProfile(profile.profile);
    engine->metrics().RecordProfiling(profile.elapsed_ms);
    engine->SetCoordinator(std::move(coordinator));
    const blaze::PageRankResult result = blaze::RunPageRank(*engine, params);
    rec->driver_ms = driver.ElapsedMillis();
    rec->act_ms = profiling_ms + rec->driver_ms;

    const blaze::trace::Dump dump = traced ? StopTrace() : blaze::trace::Dump{};
    const RegistrySnapshot after = blaze::MetricsRegistry::Global().Snapshot();
    const RunMetricsSnapshot metrics = engine->metrics().Snapshot();
    rec->jobs = static_cast<uint64_t>(RegDelta(before, after, "sched.jobs_completed"));
    blaze::LatencyHistogram job_hist;
    blaze::MetricsRegistry::Global().Histogram("sched.job_latency_ms")->MergeInto(&job_hist);
    const blaze::HistogramSnapshot jobs = job_hist.Snapshot();
    rec->job_p50_ms = jobs.p50_ms;
    rec->job_p99_ms = jobs.p99_ms;
    rec->job_samples = jobs.count;

    const std::string got = Fingerprint(result);
    bool ok = got == references_[input];
    if (!ok) {
      std::fprintf(stderr, "perfbench: result mismatch on seed %llu: got %s want %s\n",
                   static_cast<unsigned long long>(params.seed), got.c_str(),
                   references_[input].c_str());
    }
    if (traced) {
      RecordTraceLayers(dump, rec);
    } else {
      ok = RecordLayers(metrics, before, after, rec) && ok;
      rec->layer["blaze.profiling_ms"] = profiling_ms;
    }
    if (blaze::net::RemoteExecutorSet* remote = engine->remote_executors()) {
      // The workers hold the cached blocks and shuffle buckets: their peaks
      // count in the application's memory.
      for (size_t slot = 0; slot < remote->num_workers(); ++slot) {
        rec->peak_rss_mb +=
            ProcStatusMb("/proc/" + std::to_string(remote->WorkerPid(slot)), "VmHWM");
      }
      if (env_.per_layer && !Ping(*remote, rec)) {
        ok = false;
      }
    }
    rec->failed = ok ? 0 : 1;
    // Teardown (worker shutdown included) is outside every timed region.
  }

  // RPC round trips to every worker, outside act_s: the net layer's latency
  // without the data plane's payloads.
  bool Ping(blaze::net::RemoteExecutorSet& remote, RunRecord* rec) {
    std::vector<double>& rtt = rec->rtt_ms;
    for (size_t slot = 0; slot < remote.num_workers(); ++slot) {
      for (int i = 0; i < pings_per_worker_; ++i) {
        const std::vector<uint8_t> args = {static_cast<uint8_t>(i), 0x42};
        blaze::net::TaskResultMsg result;
        std::string error;
        Stopwatch watch;
        const bool sent = remote.RunTask(slot, "ping", args, &result, &error);
        const double ms = watch.ElapsedMillis();
        if (!sent || !result.ok || result.payload != args) {
          std::fprintf(stderr, "perfbench: ping to worker %zu failed: %s\n", slot,
                       error.c_str());
          return false;
        }
        rtt.push_back(ms);
      }
    }
    return true;
  }

  Env env_;
  WorkloadParams params_;
  EngineConfig config_;
  int pings_per_worker_;
  std::vector<uint64_t> seeds_;
  std::vector<std::string> references_;
  size_t next_input_ = 0;
};

// --- serve-zipf --------------------------------------------------------------------

using Row = std::pair<uint32_t, uint64_t>;

// Closed-loop small jobs against a pool of cached datasets with Zipf
// popularity, from two tenant classes. One unit is a session: a fresh engine,
// the pool built and warmed (set-up), then every driver issues a fixed
// number of jobs back to back.
class ServeZipfWorkload : public BenchWorkload {
 public:
  static constexpr int kDatasets = 12;
  static constexpr size_t kRowsPerDataset = 32768;
  static constexpr size_t kPartitions = 8;
  static constexpr uint32_t kKeySpace = 1024;
  static constexpr double kAlpha = 1.1;
  static constexpr double kShuffleFraction = 0.15;
  static constexpr int kJobsPerDriver = 500;

  explicit ServeZipfWorkload(const Env& env) : env_(env) {
    // Tenant classes gold:1 and bronze:N driver threads, one per core the
    // executors leave free (gold:1 bronze:1 on 4 cores).
    const int drivers = static_cast<int>(std::max<size_t>(2, env.nproc - env.executors));
    classes_ = {{"gold", 1}, {"bronze", drivers - 1}};
  }

  std::string Describe() const override {
    std::ostringstream os;
    os << "datasets=" << kDatasets << " rows=" << kRowsPerDataset
       << " partitions=" << kPartitions << " alpha=" << kAlpha
       << " shuffle_frac=" << kShuffleFraction << " jobs_per_driver=" << kJobsPerDriver
       << " drivers=gold:" << classes_[0].drivers << ",bronze:" << classes_[1].drivers
       << " loop=closed";
    return os.str();
  }

  // Generates the pool's rows and, outside every timed region, each job
  // kind's expected row count per dataset.
  void Prepare() override {
    blaze::Rng rng(env_.seed * 0x9E3779B97F4A7C15ULL + 0x5E57E);
    rows_.resize(kDatasets);
    distinct_keys_.resize(kDatasets);
    for (int d = 0; d < kDatasets; ++d) {
      std::set<uint32_t> keys;
      rows_[d].reserve(kRowsPerDataset);
      for (size_t i = 0; i < kRowsPerDataset; ++i) {
        const auto key = static_cast<uint32_t>(rng.NextU64(kKeySpace));
        rows_[d].emplace_back(key, rng.NextU64());
        keys.insert(key);
      }
      distinct_keys_[d] = keys.size();
    }
    std::printf("reference scan_rows=%zu distinct_keys[0]=%zu\n", kRowsPerDataset,
                distinct_keys_[0]);
  }

  RunRecord RunOnce(bool traced) override {
    RunRecord rec;
    const uint64_t session = session_++;
    try {
      Run(session, traced, &rec);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: session failed: %s\n", e.what());
      rec.attempted = std::max<uint64_t>(rec.attempted, 1);
      rec.failed = rec.attempted;
    }
    return rec;
  }

 private:
  struct Class {
    std::string name;
    int drivers;
  };

  // The engine of one session with its dataset pool built and warmed.
  // Members are declared so the pool dies before the engine it lives in.
  struct Session {
    std::unique_ptr<EngineContext> engine;
    std::vector<blaze::TenantId> tenant_ids;
    std::vector<blaze::RddPtr<Row>> pool;
  };

  Session Build() const {
    const uint64_t dataset_bytes = kRowsPerDataset * sizeof(Row);
    // ~60% of the pool fits in memory; the rest lives on disk.
    EngineConfig config = ShapedConfig(env_, dataset_bytes * kDatasets * 6 / 10);
    config.disk_throughput_bytes_per_sec = 64ULL << 20;
    config.shuffle_retention_jobs = 4;
    config.multi_tenant = true;
    for (const Class& cls : classes_) {
      blaze::TenantSpec spec;
      spec.name = cls.name;
      config.tenants.push_back(std::move(spec));
    }
    Session s;
    s.engine = std::make_unique<EngineContext>(config);
    EngineContext& engine = *s.engine;
    engine.SetCoordinator(std::make_unique<blaze::PolicyCoordinator>(
        &engine, blaze::MakePolicy("lru"), blaze::EvictionMode::kMemAndDisk));
    for (const Class& cls : classes_) {
      s.tenant_ids.push_back(*engine.tenants()->FindByName(cls.name));
    }
    for (int d = 0; d < kDatasets; ++d) {
      auto ds = blaze::Parallelize<Row>(&engine, "serve_ds" + std::to_string(d), rows_[d],
                                        kPartitions);
      ds->Cache();
      ds->Count();  // warm-up
      s.pool.push_back(std::move(ds));
    }
    return s;
  }

  void Run(uint64_t session, bool traced, RunRecord* rec) {
    Stopwatch setup;
    Session s = Build();
    rec->setup_ms = setup.ElapsedMillis();
    EngineContext& engine = *s.engine;
    const std::vector<blaze::TenantId>& tenant_ids = s.tenant_ids;
    const std::vector<blaze::RddPtr<Row>>& pool = s.pool;

    ResetUnitHistograms();
    const RegistrySnapshot before = blaze::MetricsRegistry::Global().Snapshot();
    const RunMetricsSnapshot metrics_before = engine.metrics().Snapshot();
    if (traced) {
      StartTrace();
    }

    struct DriverResult {
      std::vector<double> latencies;
      uint64_t failed = 0;
    };
    int total_drivers = 0;
    for (const Class& cls : classes_) {
      total_drivers += cls.drivers;
    }
    std::vector<DriverResult> results(total_drivers);
    std::vector<int> driver_class(total_drivers);
    for (int d = 0, slot = 0; d < static_cast<int>(classes_.size()); ++d) {
      for (int i = 0; i < classes_[d].drivers; ++i) {
        driver_class[slot++] = d;
      }
    }
    Stopwatch wall;
    std::vector<std::thread> drivers;
    for (int d = 0; d < total_drivers; ++d) {
      drivers.emplace_back([&, d] {
        blaze::Rng rng((env_.seed * 1000003 + session) * 64 + static_cast<uint64_t>(d));
        const blaze::TenantId tenant = tenant_ids[driver_class[d]];
        DriverResult& out = results[d];
        const auto count_rows = [](const blaze::BlockPtr& block) -> std::any {
          return block->NumRows();
        };
        for (int j = 0; j < kJobsPerDriver; ++j) {
          const size_t index = rng.NextPowerLaw(pool.size(), kAlpha);
          const bool shuffle = rng.NextDouble() < kShuffleFraction;
          std::shared_ptr<blaze::RddBase> target;
          size_t expected = 0;
          if (shuffle) {
            target = blaze::ReduceByKey<uint32_t, uint64_t>(
                pool[index], [](const uint64_t& a, const uint64_t& b) { return a + b; },
                kPartitions);
            expected = distinct_keys_[index];
          } else {
            target = pool[index]->Map(
                [](const Row& row) { return row.first ^ static_cast<uint32_t>(row.second); },
                "serve_scan");
            expected = kRowsPerDataset;
          }
          Stopwatch job;
          std::string reject_reason;
          size_t rows = 0;
          bool ok = true;
          try {
            const std::vector<std::any> parts = engine.RunJobAs(
                tenant, target, count_rows, /*raw_blocks=*/true, &reject_reason);
            for (const std::any& part : parts) {
              rows += std::any_cast<size_t>(part);
            }
            ok = !parts.empty() && rows == expected;
          } catch (const std::exception& e) {
            reject_reason = e.what();
            ok = false;
          }
          out.latencies.push_back(job.ElapsedMillis());
          if (!ok) {
            ++out.failed;
            std::fprintf(stderr, "perfbench: job failed (rows %zu, want %zu) %s\n", rows,
                         expected, reject_reason.c_str());
          }
        }
      });
    }
    for (std::thread& t : drivers) {
      t.join();
    }
    rec->driver_ms = wall.ElapsedMillis();
    rec->act_ms = rec->driver_ms;

    const blaze::trace::Dump dump = traced ? StopTrace() : blaze::trace::Dump{};
    const RegistrySnapshot after = blaze::MetricsRegistry::Global().Snapshot();
    const RunMetricsSnapshot metrics =
        Diff(engine.metrics().Snapshot(), metrics_before);
    std::vector<double> all_ms;
    std::map<std::string, std::vector<double>> class_ms;
    for (int d = 0; d < total_drivers; ++d) {
      const std::vector<double>& ms = results[d].latencies;
      auto& series = class_ms[classes_[driver_class[d]].name];
      series.insert(series.end(), ms.begin(), ms.end());
      all_ms.insert(all_ms.end(), ms.begin(), ms.end());
      rec->failed += results[d].failed;
    }
    rec->attempted = all_ms.size();
    rec->job_samples = all_ms.size();
    rec->job_p50_ms = Percentile(all_ms, 0.50);
    rec->job_p99_ms = Percentile(all_ms, 0.99);
    rec->jobs = static_cast<uint64_t>(RegDelta(before, after, "sched.jobs_completed"));
    if (traced) {
      RecordTraceLayers(dump, rec);
      return;
    }
    if (!RecordLayers(metrics, before, after, rec)) {
      ++rec->failed;
    }
    for (const auto& [cls, ms] : class_ms) {
      rec->layer["dataflow.tenant." + cls + ".job_p99_ms"] = Percentile(ms, 0.99);
    }
    const double gold_hits = RegDelta(before, after, "tenant.gold.hits");
    const double gold_misses = RegDelta(before, after, "tenant.gold.misses");
    rec->layer["dataflow.tenant.gold.hit_ratio"] = Ratio(gold_hits, gold_hits + gold_misses);
  }

  Env env_;
  std::vector<Class> classes_;
  std::vector<std::vector<Row>> rows_;
  std::vector<size_t> distinct_keys_;
  uint64_t session_ = 0;
};

WorkloadParams AppParams(size_t partitions, int iterations, double scale) {
  WorkloadParams params;
  params.partitions = partitions;
  params.iterations = iterations;
  params.scale = scale;
  return params;
}

}  // namespace

std::vector<std::string> BenchWorkloadNames() {
  return {"pr-blaze", "serve-zipf", "pr-dist"};
}

std::unique_ptr<BenchWorkload> MakeBenchWorkload(const std::string& name, const Env& env) {
  // The aggregate memory capacity follows the paper-figure harness (its
  // per-executor capacity times its 4 executors, per unit of scale), below
  // PageRank's cached working set.
  if (name == "pr-blaze") {
    const WorkloadParams params = AppParams(16, 10, 0.5);
    EngineConfig config = ShapedConfig(env, static_cast<uint64_t>(7 * kMiB * params.scale));
    config.disk_throughput_bytes_per_sec = 32ULL << 20;
    return std::make_unique<PageRankWorkload>(env, params, 16, config, 0);
  }
  if (name == "pr-dist") {
    const WorkloadParams params = AppParams(4, 4, 1.0 / 16.0);
    EngineConfig config = ShapedConfig(env, static_cast<uint64_t>(7 * kMiB * params.scale));
    config.disk_throughput_bytes_per_sec = 32ULL << 20;
    config.distributed = true;
    config.num_workers = 2;
    config.worker_binary = env.worker_binary;
    return std::make_unique<PageRankWorkload>(env, params, 8, config, 50);
  }
  if (name == "serve-zipf") {
    return std::make_unique<ServeZipfWorkload>(env);
  }
  return nullptr;
}

}  // namespace perfbench
