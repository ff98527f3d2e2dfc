#include "src/blaze/profiler.h"

#include <memory>
#include <mutex>
#include <unordered_map>

#include "src/common/stopwatch.h"
#include "src/common/units.h"
#include "src/dataflow/dag_scheduler.h"
#include "src/dataflow/task_context.h"

namespace blaze {

namespace {

// Coordinator for the profiling run: records lineage structure and keeps every
// materialized block in an unbounded map (the sample is tiny, so caching all
// of it keeps the extraction fast and free of recomputation noise).
class LineageRecorder : public CacheCoordinator {
 public:
  explicit LineageRecorder(CostLineage* lineage) : lineage_(lineage) {}

  void OnJobStart(const JobInfo& job) override { lineage_->ObserveJobStart(job); }

  std::optional<BlockPtr> Lookup(const RddBase& rdd, uint32_t partition,
                                 TaskContext&) override {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = blocks_.find(BlockId{rdd.id(), partition});
    if (it == blocks_.end()) {
      return std::nullopt;
    }
    return it->second;
  }

  void BlockComputed(const RddBase& rdd, uint32_t partition, const BlockPtr& block,
                     double compute_ms, TaskContext&) override {
    lineage_->ObserveBlockComputed(rdd.id(), partition, block->SizeBytes(), compute_ms);
    std::lock_guard<std::mutex> lock(mu_);
    blocks_[BlockId{rdd.id(), partition}] = block;
  }

  bool IsManaged(const RddBase&) const override { return false; }

  void UnpersistRdd(const RddBase& rdd) override {
    std::lock_guard<std::mutex> lock(mu_);
    for (uint32_t p = 0; p < rdd.num_partitions(); ++p) {
      blocks_.erase(BlockId{rdd.id(), p});
    }
  }

 private:
  CostLineage* lineage_;
  std::mutex mu_;
  std::unordered_map<BlockId, BlockPtr, BlockIdHash> blocks_;
};

}  // namespace

ProfilingResult ExtractDependencies(const std::function<void(EngineContext&)>& driver,
                                    size_t num_executors, size_t threads_per_executor) {
  Stopwatch watch;
  EngineConfig config;
  config.num_executors = num_executors;
  config.threads_per_executor = threads_per_executor;
  config.memory_capacity_per_executor = GiB(4);  // effectively unbounded
  config.disk_throughput_bytes_per_sec = 0;

  EngineContext engine(config);
  CostLineage lineage;
  engine.SetCoordinator(std::make_unique<LineageRecorder>(&lineage));
  driver(engine);

  ProfilingResult result;
  result.profile = lineage.ExportProfile();
  result.elapsed_ms = watch.ElapsedMillis();
  result.jobs_observed = result.profile.num_jobs;
  return result;
}

}  // namespace blaze
