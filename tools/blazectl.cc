// blazectl — command-line driver for the Blaze engine.
//
//   blazectl list
//   blazectl run --workload pr --system blaze [--scale 1.0] [--iterations N]
//                [--partitions N] [--executors N] [--threads N]
//                [--capacity-kib N] [--disk-mbps N] [--format table|json]
//   blazectl top [--port N] [--interval-ms N] [--once] [--validate]
//
// Runs one (workload, system) pair and reports ACT plus the cache metrics.
// The systems are the catalogue's (src/workloads/systems.h); `list` prints
// them.
//
// `top` polls a running engine's telemetry endpoints (BLAZE_TELEMETRY_PORT)
// and renders a live dashboard; --validate instead checks that /stats parses
// as JSON and /metrics is well-formed Prometheus text, exiting nonzero if not.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <thread>

#include "src/common/http.h"
#include "src/common/json.h"
#include "src/common/stopwatch.h"
#include "src/common/units.h"
#include "src/dataflow/dag_scheduler.h"
#include "src/dataflow/pair_rdd.h"
#include "src/dataflow/rdd.h"
#include "src/metrics/report.h"
#include "src/workloads/systems.h"

namespace blaze {
namespace {

struct CliOptions {
  std::string command;
  std::string workload = "pr";
  std::string system = "blaze";
  std::string shape = "join";
  double scale = 1.0;
  int iterations = 0;  // 0 = workload default
  size_t partitions = 16;
  size_t executors = 4;
  size_t threads = 2;
  uint64_t capacity_kib = 2048;
  uint64_t disk_mbps = 32;
  std::string format = "table";
  int port = 8080;          // top: telemetry port of the engine to watch
  int interval_ms = 1000;   // top: refresh cadence
  bool once = false;        // top: one frame, no screen clearing
  bool validate = false;    // top: endpoint-validation mode
};

int Usage() {
  std::cerr << "usage: blazectl list\n"
               "       blazectl graph [--shape chain|diamond|join] [--partitions N]\n"
               "       blazectl run --workload <pr|cc|lr|kmeans|gbt|svdpp>\n"
               "                    --system <name from blazectl list>\n"
               "                    [--scale F] [--iterations N] [--partitions N]\n"
               "                    [--executors N] [--threads N] [--capacity-kib N]\n"
               "                    [--disk-mbps N] [--format table|json]\n"
               "       blazectl top [--port N] [--interval-ms N] [--once] [--validate]\n"
               "       blazectl tenants [--port N]\n";
  return 2;
}

bool ParseArgs(int argc, char** argv, CliOptions* options) {
  if (argc < 2) {
    return false;
  }
  options->command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    // Boolean flags: the value is optional ("--once" == "--once 1").
    if (flag == "--once" || flag == "--validate") {
      bool enabled = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') {
        const std::string value = argv[++i];
        enabled = value != "0" && value != "false";
      }
      (flag == "--once" ? options->once : options->validate) = enabled;
      continue;
    }
    if (i + 1 >= argc) {
      std::cerr << "flag " << flag << " needs a value\n";
      return false;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--system") {
      options->system = value;
    } else if (flag == "--scale") {
      options->scale = std::atof(value.c_str());
    } else if (flag == "--iterations") {
      options->iterations = std::atoi(value.c_str());
    } else if (flag == "--partitions") {
      options->partitions = static_cast<size_t>(std::atoi(value.c_str()));
    } else if (flag == "--executors") {
      options->executors = static_cast<size_t>(std::atoi(value.c_str()));
    } else if (flag == "--threads") {
      options->threads = static_cast<size_t>(std::atoi(value.c_str()));
    } else if (flag == "--capacity-kib") {
      options->capacity_kib = static_cast<uint64_t>(std::atoll(value.c_str()));
    } else if (flag == "--disk-mbps") {
      options->disk_mbps = static_cast<uint64_t>(std::atoll(value.c_str()));
    } else if (flag == "--format") {
      options->format = value;
    } else if (flag == "--shape") {
      options->shape = value;
    } else if (flag == "--port") {
      options->port = std::atoi(value.c_str());
    } else if (flag == "--interval-ms") {
      options->interval_ms = std::atoi(value.c_str());
    } else {
      std::cerr << "unknown flag: " << flag << "\n";
      return false;
    }
  }
  return true;
}

int RunCommand(const CliOptions& options) {
  auto workload = MakeWorkload(options.workload);
  WorkloadParams params = workload->DefaultParams();
  params.scale = options.scale;
  params.partitions = options.partitions;
  if (options.iterations > 0) {
    params.iterations = options.iterations;
  }

  EngineConfig config;
  config.num_executors = options.executors;
  config.threads_per_executor = options.threads;
  config.memory_capacity_per_executor =
      static_cast<uint64_t>(static_cast<double>(KiB(options.capacity_kib)) * options.scale);
  config.disk_throughput_bytes_per_sec =
      FindSystem(options.system).memory_only ? 0 : options.disk_mbps << 20;
  EngineContext engine(config);

  Stopwatch act;
  RunSystem(engine, options.system, *workload, params);
  const double act_ms = act.ElapsedMillis();
  const auto snap = engine.metrics().Snapshot();
  const TaskMetrics& t = snap.total_task;

  if (options.format == "json") {
    std::cout << "{\n"
              << "  \"workload\": \"" << options.workload << "\",\n"
              << "  \"system\": \"" << options.system << "\",\n"
              << "  \"act_ms\": " << Fmt(act_ms, 3) << ",\n"
              << "  \"task_compute_ms\": " << Fmt(t.compute_ms, 3) << ",\n"
              << "  \"task_disk_ms\": " << Fmt(t.cache_disk_ms, 3) << ",\n"
              << "  \"task_recompute_ms\": " << Fmt(t.recompute_ms, 3) << ",\n"
              << "  \"evictions_to_disk\": " << snap.evictions_to_disk << ",\n"
              << "  \"evictions_discard\": " << snap.evictions_discard << ",\n"
              << "  \"unpersists\": " << snap.unpersists << ",\n"
              << "  \"cache_hits_memory\": " << snap.cache_hits_memory << ",\n"
              << "  \"cache_hits_disk\": " << snap.cache_hits_disk << ",\n"
              << "  \"cache_misses\": " << snap.cache_misses << ",\n"
              << "  \"disk_bytes_written\": " << snap.disk_bytes_written_total << ",\n"
              << "  \"disk_bytes_peak\": " << snap.disk_bytes_peak << ",\n"
              << "  \"profiling_ms\": " << Fmt(snap.profiling_ms, 3) << ",\n"
              << "  \"solver_ms\": " << Fmt(snap.solver_ms, 3) << ",\n"
              << "  \"broadcast_bytes\": " << snap.broadcast_bytes << "\n"
              << "}\n";
  } else {
    TextTable table;
    table.AddRow({"metric", "value"});
    table.AddRow({"ACT", FormatMillis(act_ms)});
    table.AddRow({"task compute+shuffle", FormatMillis(t.compute_ms)});
    table.AddRow({"task disk I/O", FormatMillis(t.cache_disk_ms)});
    table.AddRow({"task recompute", FormatMillis(t.recompute_ms)});
    table.AddRow({"evictions (disk/drop)", std::to_string(snap.evictions_to_disk) + "/" +
                                               std::to_string(snap.evictions_discard)});
    table.AddRow({"unpersists", std::to_string(snap.unpersists)});
    table.AddRow({"hits (mem/disk)", std::to_string(snap.cache_hits_memory) + "/" +
                                         std::to_string(snap.cache_hits_disk)});
    table.AddRow({"misses (recomputed)", std::to_string(snap.cache_misses)});
    table.AddRow({"disk written", FormatBytes(snap.disk_bytes_written_total)});
    table.AddRow({"disk peak", FormatBytes(snap.disk_bytes_peak)});
    table.AddRow({"profiling", FormatMillis(snap.profiling_ms)});
    table.AddRow({"ILP solves", std::to_string(snap.solver_invocations) + " (" +
                                    FormatMillis(snap.solver_ms) + ")"});
    table.AddRow({"broadcast", FormatBytes(snap.broadcast_bytes)});
    std::cout << table.Render(options.workload + " on " + options.system);
  }
  return 0;
}

// Dumps the stage/RDD DAG the scheduler would execute for a canonical job
// shape as Graphviz DOT (render with `dot -Tsvg`). Shapes:
//   chain   — two back-to-back shuffles (three linear stages)
//   diamond — one shuffle read by two branches that re-join (shared map stage)
//   join    — a join of two independently shuffled datasets (sibling map
//             stages that the event-driven scheduler runs concurrently)
int GraphCommand(const CliOptions& options) {
  EngineConfig config;
  config.num_executors = options.executors;
  config.threads_per_executor = options.threads;
  EngineContext engine(config);
  const size_t parts = options.partitions;
  auto sum = [](const int& a, const int& b) { return a + b; };

  auto base = Parallelize<std::pair<uint32_t, int>>(&engine, "base", {{0, 1}, {1, 2}}, parts);
  std::shared_ptr<RddBase> target;
  if (options.shape == "chain") {
    auto once = ReduceByKey<uint32_t, int>(base, sum, parts);
    auto rekeyed = once->Map(
        [](const std::pair<uint32_t, int>& row) {
          return std::make_pair(row.first + 1, row.second);
        },
        "rekey");
    target = ReduceByKey<uint32_t, int>(rekeyed, sum, parts);
  } else if (options.shape == "diamond") {
    auto reduced = ReduceByKey<uint32_t, int>(base, sum, parts);
    auto left = MapValues(reduced, [](const int& v) { return v + 1; }, "left");
    auto right = MapValues(reduced, [](const int& v) { return v - 1; }, "right");
    target = JoinCoPartitioned(left, right);
  } else if (options.shape == "join") {
    auto other =
        Parallelize<std::pair<uint32_t, int>>(&engine, "other", {{0, 3}, {1, 4}}, parts);
    target = JoinCoPartitioned(ReduceByKey<uint32_t, int>(base, sum, parts),
                               ReduceByKey<uint32_t, int>(other, sum, parts));
  } else {
    std::cerr << "unknown shape: " << options.shape << "\n";
    return Usage();
  }
  std::cout << engine.scheduler().ExportDot(target);
  return 0;
}

// --- top: live telemetry dashboard ------------------------------------------------

// snapshot["counters"]["sched.jobs_completed"] as uint64, 0 if absent.
uint64_t StatCounter(const json::Value& snap, const char* section, const char* name) {
  const json::Value* obj = snap.Find(section);
  const json::Value* v = obj != nullptr ? obj->Find(name) : nullptr;
  return v != nullptr && v->is_number() ? static_cast<uint64_t>(v->as_number()) : 0;
}

// snapshot["histograms"][name][field] as double, 0 if absent.
double StatHistField(const json::Value& snap, const char* name, const char* field) {
  const json::Value* hists = snap.Find("histograms");
  const json::Value* h = hists != nullptr ? hists->Find(name) : nullptr;
  const json::Value* v = h != nullptr ? h->Find(field) : nullptr;
  return v != nullptr && v->is_number() ? v->as_number() : 0.0;
}

// Multi-tenant mode only: one row per tenant from the tenant.<name>.* gauges
// and the tenant.<name>.{hits,misses} counters. Returns false when the engine
// has no registered tenants (single-tenant mode publishes none of these).
bool RenderTenants(const json::Value& snap) {
  const json::Value* gauges = snap.Find("gauges");
  std::set<std::string> names;
  if (gauges != nullptr && gauges->is_object()) {
    for (const auto& [key, value] : gauges->as_object()) {
      char name[64] = {0};
      if (std::sscanf(key.c_str(), "tenant.%63[^.].", name) == 1) {
        names.insert(name);
      }
    }
  }
  if (names.empty()) {
    return false;
  }
  TextTable tenants;
  tenants.AddRow({"tenant", "share", "used", "borrowed", "hit%", "running", "queued",
                  "completed", "rejected"});
  for (const std::string& name : names) {
    const std::string prefix = "tenant." + name + ".";
    const auto gauge = [&](const char* field) {
      return StatCounter(snap, "gauges", (prefix + field).c_str());
    };
    const uint64_t hits = StatCounter(snap, "counters", (prefix + "hits").c_str());
    const uint64_t misses = StatCounter(snap, "counters", (prefix + "misses").c_str());
    const uint64_t lookups = hits + misses;
    tenants.AddRow(
        {name, FormatBytes(gauge("share_bytes")), FormatBytes(gauge("used_bytes")),
         FormatBytes(gauge("borrowed_bytes")),
         lookups == 0
             ? "-"
             : Fmt(100.0 * static_cast<double>(hits) / static_cast<double>(lookups), 1) +
                   "%",
         std::to_string(gauge("jobs_running")), std::to_string(gauge("jobs_queued")),
         std::to_string(gauge("jobs_completed")),
         std::to_string(gauge("jobs_rejected"))});
  }
  std::cout << tenants.Render("tenants");
  return true;
}

void RenderTop(const json::Value& snap, int port) {
  const json::Value* ts = snap.Find("ts_us");
  const double up_s = ts != nullptr && ts->is_number() ? ts->as_number() / 1e6 : 0.0;
  std::cout << "blaze engine @ 127.0.0.1:" << port << "  (up " << Fmt(up_s, 1) << "s)\n\n";

  TextTable jobs;
  jobs.AddRow({"jobs", "active", "submitted", "completed", "p50", "p95", "p99"});
  jobs.AddRow({"", std::to_string(StatCounter(snap, "gauges", "sched.jobs_active")),
               std::to_string(StatCounter(snap, "counters", "sched.jobs_submitted")),
               std::to_string(StatCounter(snap, "counters", "sched.jobs_completed")),
               FormatMillis(StatHistField(snap, "sched.job_latency_ms", "p50_ms")),
               FormatMillis(StatHistField(snap, "sched.job_latency_ms", "p95_ms")),
               FormatMillis(StatHistField(snap, "sched.job_latency_ms", "p99_ms"))});
  std::cout << jobs.Render("scheduler");

  TextTable tasks;
  tasks.AddRow({"tasks", "completed", "failed", "p50", "p95", "p99"});
  tasks.AddRow({"", std::to_string(StatCounter(snap, "counters", "task.completed")),
                std::to_string(StatCounter(snap, "counters", "task.failures")),
                FormatMillis(StatHistField(snap, "task.latency_ms", "p50_ms")),
                FormatMillis(StatHistField(snap, "task.latency_ms", "p95_ms")),
                FormatMillis(StatHistField(snap, "task.latency_ms", "p99_ms"))});
  std::cout << tasks.Render("tasks");

  // Which execution path tasks took: batches/rows that ran through columnar
  // kernels, and cached columnar reads served without row materialization.
  TextTable vec;
  vec.AddRow({"vectorized", "batches", "rows", "materializations avoided"});
  vec.AddRow({"", std::to_string(StatCounter(snap, "counters", "vec.batches")),
              std::to_string(StatCounter(snap, "counters", "vec.rows")),
              std::to_string(StatCounter(snap, "counters", "vec.materializations_avoided"))});
  std::cout << vec.Render("vectorized");

  const uint64_t hits_mem = StatCounter(snap, "counters", "cache.hits_memory");
  const uint64_t hits_disk = StatCounter(snap, "counters", "cache.hits_disk");
  const uint64_t misses = StatCounter(snap, "counters", "cache.misses");
  const uint64_t lookups = hits_mem + hits_disk + misses;
  TextTable cache;
  cache.AddRow({"cache", "hit% (mem/disk)", "misses", "evict (disk/drop)", "unpersists",
                "ilp solves"});
  cache.AddRow(
      {"",
       lookups == 0 ? "-"
                    : Fmt(100.0 * static_cast<double>(hits_mem + hits_disk) /
                              static_cast<double>(lookups),
                          1) +
                          "% (" + std::to_string(hits_mem) + "/" + std::to_string(hits_disk) +
                          ")",
       std::to_string(misses),
       std::to_string(StatCounter(snap, "counters", "cache.evictions_disk")) + "/" +
           std::to_string(StatCounter(snap, "counters", "cache.evictions_discard")),
       std::to_string(StatCounter(snap, "counters", "cache.unpersists")),
       std::to_string(StatCounter(snap, "counters", "ilp.solves"))});
  std::cout << cache.Render("cache");

  TextTable mem;
  mem.AddRow({"memory", "cached", "execution", "pinned blocks", "spill q", "shuffle",
              "arena"});
  mem.AddRow({"", FormatBytes(StatCounter(snap, "gauges", "arbiter.cache_used_bytes")),
              FormatBytes(StatCounter(snap, "gauges", "arbiter.execution_used_bytes")),
              std::to_string(StatCounter(snap, "gauges", "store.pinned_blocks")),
              std::to_string(StatCounter(snap, "gauges", "spill.queue_depth")) + " (" +
                  FormatBytes(StatCounter(snap, "gauges", "spill.pending_bytes")) + ")",
              FormatBytes(StatCounter(snap, "gauges", "shuffle.bytes_in_flight")),
              FormatBytes(StatCounter(snap, "gauges", "arena.live_bytes"))});
  std::cout << mem.Render("memory");

  RenderTenants(snap);

  // Distributed mode only: one row per worker process, fed by heartbeat acks
  // (worker.<slot>.* gauges exist only when the engine runs with workers).
  const json::Value* gauges = snap.Find("gauges");
  std::set<int> worker_slots;
  if (gauges != nullptr && gauges->is_object()) {
    for (const auto& [key, value] : gauges->as_object()) {
      int slot = -1;
      if (std::sscanf(key.c_str(), "worker.%d.", &slot) == 1) {
        worker_slots.insert(slot);
      }
    }
  }
  if (!worker_slots.empty()) {
    TextTable workers;
    workers.AddRow({"worker", "alive", "cached", "disk", "blocks", "buckets", "pinned",
                    "inflight", "tasks", "hb age"});
    for (const int slot : worker_slots) {
      const std::string prefix = "worker." + std::to_string(slot) + ".";
      const auto gauge = [&](const char* name) {
        return StatCounter(snap, "gauges", (prefix + name).c_str());
      };
      workers.AddRow({std::to_string(slot), gauge("alive") != 0 ? "yes" : "NO",
                      FormatBytes(gauge("live_bytes")), FormatBytes(gauge("disk_bytes")),
                      std::to_string(gauge("blocks")), std::to_string(gauge("buckets")),
                      std::to_string(gauge("pinned_blocks")),
                      std::to_string(gauge("inflight_tasks")),
                      std::to_string(gauge("tasks_executed")),
                      FormatMillis(static_cast<double>(gauge("heartbeat_age_ms")))});
    }
    std::cout << workers.Render("workers");

    TextTable wire;
    wire.AddRow({"wire", "block puts", "block fetches", "bucket puts", "bucket fetches",
                 "retries", "failures", "lost/restarted"});
    wire.AddRow({"",
                 std::to_string(StatCounter(snap, "gauges", "net.block_puts")) + " (" +
                     FormatBytes(StatCounter(snap, "gauges", "net.block_put_bytes")) + ")",
                 std::to_string(StatCounter(snap, "gauges", "net.block_fetches")) + " (" +
                     FormatBytes(StatCounter(snap, "gauges", "net.block_fetch_bytes")) +
                     ")",
                 std::to_string(StatCounter(snap, "gauges", "net.bucket_puts")),
                 std::to_string(StatCounter(snap, "gauges", "net.bucket_fetches")),
                 std::to_string(StatCounter(snap, "gauges", "net.rpc_retries")),
                 std::to_string(StatCounter(snap, "gauges", "net.rpc_failures")),
                 std::to_string(StatCounter(snap, "gauges", "net.workers_lost")) + "/" +
                     std::to_string(StatCounter(snap, "gauges", "net.worker_restarts"))});
    std::cout << wire.Render("wire");
  }
}

// Strict endpoint validation: /stats must parse as a JSON object with the
// three sections, /metrics must be Prometheus text ("# TYPE" comments and
// "name value" samples, all blaze_-prefixed). Exit code is the contract —
// ci.sh runs this against a live engine and fails the build on malformed
// output.
int ValidateEndpoints(int port) {
  std::string error;
  const auto stats = HttpGetLocal(static_cast<uint16_t>(port), "/stats", &error);
  if (!stats.has_value()) {
    std::cerr << "validate: GET /stats failed: " << error << "\n";
    return 1;
  }
  const auto parsed = json::Parse(*stats, &error);
  if (!parsed.has_value()) {
    std::cerr << "validate: /stats is not valid JSON: " << error << "\n";
    return 1;
  }
  for (const char* section : {"counters", "gauges", "histograms"}) {
    const json::Value* v = parsed->Find(section);
    if (v == nullptr || !v->is_object()) {
      std::cerr << "validate: /stats missing object section \"" << section << "\"\n";
      return 1;
    }
  }
  const auto metrics = HttpGetLocal(static_cast<uint16_t>(port), "/metrics", &error);
  if (!metrics.has_value()) {
    std::cerr << "validate: GET /metrics failed: " << error << "\n";
    return 1;
  }
  size_t samples = 0;
  size_t line_start = 0;
  const std::string& text = *metrics;
  while (line_start < text.size()) {
    size_t line_end = text.find('\n', line_start);
    if (line_end == std::string::npos) {
      line_end = text.size();
    }
    const std::string_view line(text.data() + line_start, line_end - line_start);
    line_start = line_end + 1;
    if (line.empty() || line[0] == '#') {
      continue;
    }
    // Sample lines: "blaze_name{...} value" or "blaze_name value".
    const size_t space = line.rfind(' ');
    if (line.rfind("blaze_", 0) != 0 || space == std::string_view::npos ||
        space + 1 >= line.size()) {
      std::cerr << "validate: malformed /metrics line: " << line << "\n";
      return 1;
    }
    char* end = nullptr;
    std::strtod(line.data() + space + 1, &end);
    if (end != line.data() + line.size()) {
      std::cerr << "validate: non-numeric sample value: " << line << "\n";
      return 1;
    }
    ++samples;
  }
  if (samples == 0) {
    std::cerr << "validate: /metrics served no samples\n";
    return 1;
  }
  std::cout << "telemetry endpoints ok (" << samples << " samples)\n";
  return 0;
}

int TopCommand(const CliOptions& options) {
  if (options.validate) {
    return ValidateEndpoints(options.port);
  }
  for (;;) {
    std::string error;
    const auto stats = HttpGetLocal(static_cast<uint16_t>(options.port), "/stats", &error);
    if (!stats.has_value()) {
      std::cerr << "blazectl top: " << error
                << "\n(start the engine with BLAZE_TELEMETRY_PORT="
                << options.port << ")\n";
      return 1;
    }
    const auto parsed = json::Parse(*stats, &error);
    if (!parsed.has_value()) {
      std::cerr << "blazectl top: /stats unparseable: " << error << "\n";
      return 1;
    }
    if (!options.once) {
      std::cout << "\033[H\033[2J";  // home + clear: redraw in place
    }
    RenderTop(*parsed, options.port);
    if (options.once) {
      return 0;
    }
    std::cout.flush();
    std::this_thread::sleep_for(std::chrono::milliseconds(options.interval_ms));
  }
}

// One-shot per-tenant view (the `tenants` table from top, nothing else).
int TenantsCommand(const CliOptions& options) {
  std::string error;
  const auto stats = HttpGetLocal(static_cast<uint16_t>(options.port), "/stats", &error);
  if (!stats.has_value()) {
    std::cerr << "blazectl tenants: " << error
              << "\n(start the engine with BLAZE_TELEMETRY_PORT=" << options.port << ")\n";
    return 1;
  }
  const auto parsed = json::Parse(*stats, &error);
  if (!parsed.has_value()) {
    std::cerr << "blazectl tenants: /stats unparseable: " << error << "\n";
    return 1;
  }
  if (!RenderTenants(*parsed)) {
    std::cerr << "blazectl tenants: engine is not multi-tenant (no tenant.* gauges)\n";
    return 1;
  }
  return 0;
}

int ListCommand() {
  std::cout << "workloads:";
  for (const auto& name : AllWorkloadNames()) {
    std::cout << " " << name;
  }
  std::cout << "\nsystems:";
  for (const auto& name : AllSystemNames()) {
    std::cout << " " << name;
  }
  std::cout << "\n";
  return 0;
}

}  // namespace
}  // namespace blaze

int main(int argc, char** argv) {
  blaze::CliOptions options;
  if (!blaze::ParseArgs(argc, argv, &options)) {
    return blaze::Usage();
  }
  if (options.command == "list") {
    return blaze::ListCommand();
  }
  if (options.command == "run") {
    return blaze::RunCommand(options);
  }
  if (options.command == "graph") {
    return blaze::GraphCommand(options);
  }
  if (options.command == "top") {
    return blaze::TopCommand(options);
  }
  if (options.command == "tenants") {
    return blaze::TenantsCommand(options);
  }
  return blaze::Usage();
}
