#include "src/workloads/systems.h"

#include <memory>

#include "src/blaze/blaze_runner.h"
#include "src/cache/alluxio_coordinator.h"
#include "src/cache/policies.h"
#include "src/common/logging.h"

namespace blaze {

const std::vector<SystemSpec>& AllSystems() {
  using enum SystemSpec::Coordinator;
  static const std::vector<SystemSpec> systems{
      {.name = "none", .label = "No caching"},
      {.name = "spark-mem", .label = "Spark (MEM)", .memory_only = true,
       .coordinator = kPolicy, .policy = "lru", .mode = EvictionMode::kMemOnly},
      {.name = "spark-memdisk", .label = "Spark (MEM+DISK)", .coordinator = kPolicy,
       .policy = "lru"},
      {.name = "alluxio", .label = "Spark+Alluxio", .coordinator = kAlluxio},
      {.name = "lrc", .label = "LRC", .coordinator = kPolicy, .policy = "lrc"},
      {.name = "mrd", .label = "MRD", .coordinator = kPolicy, .policy = "mrd"},
      {.name = "lrc-mem", .label = "LRC (MEM)", .memory_only = true, .coordinator = kPolicy,
       .policy = "lrc", .mode = EvictionMode::kMemOnly},
      {.name = "mrd-mem", .label = "MRD (MEM)", .memory_only = true, .coordinator = kPolicy,
       .policy = "mrd", .mode = EvictionMode::kMemOnly},
      {.name = "blaze", .label = "Blaze", .coordinator = kBlaze,
       .blaze = BlazeOptions::Full(), .profile = true},
      {.name = "blaze-auto", .label = "+AutoCache", .coordinator = kBlaze,
       .blaze = BlazeOptions::AutoCacheOnly(), .profile = true},
      {.name = "blaze-costaware", .label = "+CostAware", .coordinator = kBlaze,
       .blaze = BlazeOptions::CostAware(), .profile = true},
      {.name = "blaze-mem", .label = "Blaze (MEM)", .memory_only = true,
       .coordinator = kBlaze, .blaze = BlazeOptions::MemoryOnly(), .profile = true},
      {.name = "blaze-noprofile", .label = "Blaze w/o Profiling", .coordinator = kBlaze,
       .blaze = BlazeOptions::Full()},
  };
  return systems;
}

std::vector<std::string> AllSystemNames() {
  std::vector<std::string> names;
  for (const SystemSpec& system : AllSystems()) {
    names.push_back(system.name);
  }
  return names;
}

const SystemSpec& FindSystem(const std::string& name) {
  for (const SystemSpec& system : AllSystems()) {
    if (system.name == name) {
      return system;
    }
  }
  BLAZE_LOG(kFatal) << "unknown system " << name;
  return AllSystems().front();
}

void InstallSystem(EngineContext& engine, const std::string& name) {
  const SystemSpec& system = FindSystem(name);
  switch (system.coordinator) {
    case SystemSpec::Coordinator::kNone:
      break;  // engine default: cache nothing
    case SystemSpec::Coordinator::kPolicy:
      engine.SetCoordinator(std::make_unique<PolicyCoordinator>(
          &engine, MakePolicy(system.policy), system.mode));
      break;
    case SystemSpec::Coordinator::kAlluxio:
      engine.SetCoordinator(std::make_unique<AlluxioCoordinator>(&engine));
      break;
    case SystemSpec::Coordinator::kBlaze:
      engine.SetCoordinator(std::make_unique<BlazeCoordinator>(&engine, system.blaze));
      break;
  }
}

void RunSystem(EngineContext& engine, const std::string& name, const Workload& workload,
               const WorkloadParams& params) {
  const SystemSpec& system = FindSystem(name);
  if (system.coordinator == SystemSpec::Coordinator::kBlaze) {
    BlazeRunConfig run_config;
    run_config.options = system.blaze;
    if (system.profile) {
      run_config.profiling_driver = workload.MakeDriver(params.ForProfiling());
    }
    RunWithBlaze(engine, run_config, workload.MakeDriver(params));
    return;
  }
  InstallSystem(engine, name);
  workload.MakeDriver(params)(engine);
}

}  // namespace blaze
