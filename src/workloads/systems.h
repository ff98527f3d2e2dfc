// The catalogue of caching systems the paper compares (§7.1), plus the
// ablations of Figs. 11-13: one row per system name, and the one place that
// maps a name to a cache coordinator. The figure benches, blazectl and the
// system-equivalence tests all select systems through it.
#ifndef SRC_WORKLOADS_SYSTEMS_H_
#define SRC_WORKLOADS_SYSTEMS_H_

#include <string>
#include <vector>

#include "src/blaze/blaze_coordinator.h"
#include "src/cache/policy_coordinator.h"
#include "src/workloads/workload.h"

namespace blaze {

struct SystemSpec {
  enum class Coordinator { kNone, kPolicy, kAlluxio, kBlaze };

  std::string name;   // "spark-mem", "blaze", ...
  std::string label;  // figure/table label: "Spark (MEM)", "Blaze", ...
  // No disk tier: the engine runs with disk throughput 0.
  bool memory_only = false;
  Coordinator coordinator = Coordinator::kNone;
  // kPolicy: the eviction policy (MakePolicy name) and the recovery mode.
  std::string policy{};
  EvictionMode mode = EvictionMode::kMemAndDisk;
  // kBlaze: the component set, and whether RunSystem first profiles the
  // workload on sampled input (the paper's dependency extraction).
  BlazeOptions blaze{};
  bool profile = false;
};

// Every system, in catalogue order:
//   none             no caching (the engine's default coordinator)
//   spark-mem        MEM_ONLY Spark (LRU, recompute on miss)
//   spark-memdisk    MEM+DISK Spark (LRU, spill/reload)
//   alluxio          Spark+Alluxio (serialized tiered store)
//   lrc / mrd        dependency-aware policies on MEM+DISK Spark
//   lrc-mem/mrd-mem  the same on MEM_ONLY Spark (Fig. 12)
//   blaze            full Blaze with dependency-extraction profiling
//   blaze-auto       +AutoCache ablation (Fig. 11)
//   blaze-costaware  +CostAware ablation (Fig. 11)
//   blaze-mem        Blaze without the disk tier (Fig. 12)
//   blaze-noprofile  full Blaze without the profiling phase (Fig. 13)
const std::vector<SystemSpec>& AllSystems();
std::vector<std::string> AllSystemNames();

// The row for `name`; an unknown name is fatal.
const SystemSpec& FindSystem(const std::string& name);

// Installs the system's coordinator on `engine`. Blaze variants start
// without a profile (RunSystem is the path that profiles).
void InstallSystem(EngineContext& engine, const std::string& name);

// Runs `workload` under the system: Blaze variants go through RunWithBlaze
// (profiling first unless the row says not to), the rest install their
// coordinator and drive the workload.
void RunSystem(EngineContext& engine, const std::string& name, const Workload& workload,
               const WorkloadParams& params);

}  // namespace blaze

#endif  // SRC_WORKLOADS_SYSTEMS_H_
