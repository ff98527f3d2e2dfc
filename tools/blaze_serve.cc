// blaze_serve — long-lived multi-tenant Blaze job server.
//
//   blaze_serve [--port N] [--tenants name:share:max_inflight,...]
//               [--executors N] [--threads N] [--capacity-kib N]
//               [--system spark-mem|blaze]
//
// Boots one engine in multi-tenant mode, registers the built-in service
// workloads, and serves submit/status/tenant-stats RPCs on the framed
// protocol (src/net) until SIGINT/SIGTERM. Tenant spec fields: `share` is
// the fraction of each executor's memory reserved as the tenant's eviction
// floor (0 = equal split of the unclaimed remainder), `max_inflight` caps
// concurrently running jobs (0 = unlimited).
//
// Built-in workloads (both tenant-scoped — every job runs through the
// admission gate and is attributed to the submitting tenant):
//   iterate — builds one cached tenant-private dataset, then reads it
//             `iterations` times: the well-behaved hot-loop tenant.
//   churn   — builds a *fresh* dataset every iteration and reads it twice:
//             the noisy neighbor that floods the cache.
//
// Expose telemetry with BLAZE_TELEMETRY_PORT=8080 and watch per-tenant usage
// with `blazectl top` / `blazectl tenants`.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "src/common/units.h"
#include "src/dataflow/job_server.h"
#include "src/dataflow/rdd.h"
#include "src/dataflow/tenant.h"
#include "src/workloads/systems.h"

namespace blaze {
namespace {

std::atomic<bool> g_stop{false};

void HandleSignal(int) { g_stop.store(true); }

// "gold:0.5:4,bronze:0.25:4" -> TenantSpecs. Missing fields default.
std::vector<TenantSpec> ParseTenantSpecs(const std::string& arg) {
  std::vector<TenantSpec> specs;
  size_t pos = 0;
  while (pos < arg.size()) {
    size_t end = arg.find(',', pos);
    if (end == std::string::npos) {
      end = arg.size();
    }
    const std::string entry = arg.substr(pos, end - pos);
    pos = end + 1;
    if (entry.empty()) {
      continue;
    }
    TenantSpec spec;
    const size_t c1 = entry.find(':');
    spec.name = entry.substr(0, c1);
    if (c1 != std::string::npos) {
      const size_t c2 = entry.find(':', c1 + 1);
      spec.memory_share = std::atof(entry.substr(c1 + 1, c2 - c1 - 1).c_str());
      if (c2 != std::string::npos) {
        spec.max_in_flight_jobs = std::atoi(entry.substr(c2 + 1).c_str());
      }
    }
    specs.push_back(std::move(spec));
  }
  return specs;
}

// One tenant-private cached dataset read `iterations` times.
std::string IterateWorkload(EngineContext& engine, TenantId tenant, int iterations,
                            std::string* reject_reason) {
  const int iters = iterations > 0 ? iterations : 4;
  const std::string name = "serve.iter.t" + std::to_string(tenant);
  std::vector<std::pair<uint32_t, int>> rows;
  rows.reserve(2048);
  for (int i = 0; i < 2048; ++i) {
    rows.emplace_back(tenant * 1000000u + static_cast<uint32_t>(i), i);
  }
  auto dataset = Parallelize<std::pair<uint32_t, int>>(&engine, name, rows, 8)
                     ->Map(
                         [](const std::pair<uint32_t, int>& row) {
                           return std::make_pair(row.first, row.second + 1);
                         },
                         name + ".hot");
  dataset->Cache();
  uint64_t total_rows = 0;
  for (int i = 0; i < iters; ++i) {
    std::string reason;
    auto results = engine.RunJobAs(
        tenant, dataset,
        [](const BlockPtr& block) -> std::any { return block->NumRows(); },
        /*raw_blocks=*/true, &reason);
    if (results.empty() && !reason.empty()) {
      *reject_reason = reason;
      return {};
    }
    for (std::any& r : results) {
      total_rows += std::any_cast<size_t>(r);
    }
  }
  return "iters=" + std::to_string(iters) + " rows=" + std::to_string(total_rows);
}

// A fresh cached dataset per iteration: sustained cache churn.
std::string ChurnWorkload(EngineContext& engine, TenantId tenant, int iterations,
                          std::string* reject_reason) {
  const int iters = iterations > 0 ? iterations : 4;
  static std::atomic<uint32_t> generation{0};
  uint64_t total_rows = 0;
  for (int i = 0; i < iters; ++i) {
    const uint32_t gen = generation.fetch_add(1);
    const std::string name =
        "serve.churn.t" + std::to_string(tenant) + ".g" + std::to_string(gen);
    std::vector<std::pair<uint32_t, int>> rows;
    rows.reserve(8192);
    for (int r = 0; r < 8192; ++r) {
      rows.emplace_back(gen * 100000u + static_cast<uint32_t>(r), r);
    }
    auto dataset = Parallelize<std::pair<uint32_t, int>>(&engine, name, rows, 8)
                       ->Map(
                           [](const std::pair<uint32_t, int>& row) {
                             return std::make_pair(row.first, row.second * 2);
                           },
                           name + ".m");
    dataset->Cache();
    for (int pass = 0; pass < 2; ++pass) {
      std::string reason;
      auto results = engine.RunJobAs(
          tenant, dataset,
          [](const BlockPtr& block) -> std::any { return block->NumRows(); },
          /*raw_blocks=*/true, &reason);
      if (results.empty() && !reason.empty()) {
        *reject_reason = reason;
        return {};
      }
      for (std::any& r : results) {
        total_rows += std::any_cast<size_t>(r);
      }
    }
    engine.UnpersistForTenant(*dataset, tenant);
  }
  return "iters=" + std::to_string(iters) + " rows=" + std::to_string(total_rows);
}

int Main(int argc, char** argv) {
  uint16_t port = 7070;
  std::string tenants_arg = "gold:0.5:4,bronze:0.25:4";
  std::string system = "spark-mem";
  size_t executors = 2;
  size_t threads = 2;
  uint64_t capacity_kib = 2048;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::cerr << "flag " << flag << " needs a value\n";
      return 2;
    }
    const std::string value = argv[++i];
    if (flag == "--port") {
      port = static_cast<uint16_t>(std::atoi(value.c_str()));
    } else if (flag == "--tenants") {
      tenants_arg = value;
    } else if (flag == "--system") {
      system = value;
    } else if (flag == "--executors") {
      executors = static_cast<size_t>(std::atoi(value.c_str()));
    } else if (flag == "--threads") {
      threads = static_cast<size_t>(std::atoi(value.c_str()));
    } else if (flag == "--capacity-kib") {
      capacity_kib = static_cast<uint64_t>(std::atoll(value.c_str()));
    } else {
      std::cerr << "unknown flag: " << flag << "\n";
      return 2;
    }
  }

  EngineConfig config;
  config.num_executors = executors;
  config.threads_per_executor = threads;
  config.memory_capacity_per_executor = KiB(capacity_kib);
  config.multi_tenant = true;
  config.tenants = ParseTenantSpecs(tenants_arg);
  if (config.tenants.empty()) {
    std::cerr << "no tenants in --tenants spec\n";
    return 2;
  }
  EngineContext engine(config);
  if (system != "spark-mem" && system != "none") {
    std::cerr << "unknown --system " << system << " (spark-mem|none)\n";
    return 2;
  }
  InstallSystem(engine, system);

  BlazeJobServer server(&engine, port);
  server.RegisterWorkload("iterate", IterateWorkload);
  server.RegisterWorkload("churn", ChurnWorkload);
  std::string error;
  if (!server.Start(&error)) {
    std::cerr << "blaze_serve: bind failed: " << error << "\n";
    return 1;
  }
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  std::cout << "blaze_serve listening on 127.0.0.1:" << server.port() << " with "
            << config.tenants.size() << " tenants\n";
  std::cout.flush();
  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::cout << "blaze_serve: shutting down\n";
  server.Stop();
  return 0;
}

}  // namespace
}  // namespace blaze

int main(int argc, char** argv) { return blaze::Main(argc, argv); }
