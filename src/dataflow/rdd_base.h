// Type-erased dataset node of the dataflow DAG (the engine's "RDD").
//
// Typed datasets (src/dataflow/rdd.h) subclass this; the scheduler, cache
// layers, and Blaze's CostLineage only see this interface.
#ifndef SRC_DATAFLOW_RDD_BASE_H_
#define SRC_DATAFLOW_RDD_BASE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/dataflow/types.h"
#include "src/serialize/byte_buffer.h"
#include "src/storage/block.h"

namespace blaze {

class EngineContext;
class RddBase;
class TaskContext;

// Splits a materialized parent block into `num_reduce` hash buckets (the
// map side of a shuffle). Installed by the typed transformation that created
// the shuffle dependency, so the scheduler can stay type-erased.
using ShuffleBucketizer = std::function<std::vector<BlockPtr>(const BlockPtr&, size_t)>;

struct Dependency {
  std::shared_ptr<RddBase> parent;
  bool is_shuffle = false;
  // Shuffle-only fields:
  int shuffle_id = -1;
  size_t num_reduce = 0;
  // `{}` lets narrow deps be written `Dependency{parent}` without a
  // -Wmissing-field-initializers warning (the build uses -Werror).
  ShuffleBucketizer bucketizer{};
  // The bucketizer iterates rows representation-agnostically (ForEachRow), so
  // the map-stage terminal may be fetched without forcing a row decode
  // (TaskContext::GetColumnarForTask) — a cached columnar parent feeds the
  // shuffle straight from its columns.
  bool accepts_columnar = false;
};

class RddBase : public std::enable_shared_from_this<RddBase> {
 public:
  RddBase(EngineContext* ctx, std::string name, size_t num_partitions,
          std::vector<Dependency> deps);
  virtual ~RddBase();

  RddBase(const RddBase&) = delete;
  RddBase& operator=(const RddBase&) = delete;

  RddId id() const { return id_; }
  const std::string& name() const { return name_; }
  size_t num_partitions() const { return num_partitions_; }
  const std::vector<Dependency>& dependencies() const { return deps_; }
  EngineContext* context() const { return ctx_; }

  StorageLevel storage_level() const { return storage_level_; }

  // Marks this dataset as hash-partitioned by key (outputs of shuffles; also
  // sources that generate key-partitioned data). Co-partitioned joins check it.
  bool hash_partitioned() const { return hash_partitioned_; }
  void set_hash_partitioned(bool v) { hash_partitioned_ = v; }

  // User annotation: keep this dataset's partitions in the cache layer.
  void Cache();
  // User annotation: drop all of this dataset's partitions from every tier.
  void Unpersist();

  // Eagerly materializes every partition into the engine's checkpoint store
  // (reliable storage outside the cache tiers) and truncates the lineage:
  // future accesses read the checkpoint instead of recomputing ancestors —
  // Spark's RDD.checkpoint(), the paper's §2.3 alternative recovery channel.
  void Checkpoint();
  bool is_checkpointed() const { return checkpointed_; }

  // Produces partition `index` from the parents, fetching parent partitions
  // through `tc` (which consults the caches and recomputes on miss).
  virtual BlockPtr Compute(uint32_t index, TaskContext& tc) const = 0;

  // Decodes a serialized block of this dataset's element type (dispatching on
  // the leading representation tag: row vs columnar wire format).
  virtual BlockPtr DecodeBlock(ByteSource& src) const = 0;

  // Representation selection: the cache-facing form of a freshly computed
  // block. Coordinators call this at admission; the executing task keeps the
  // object-row block it computed, only the cached copy changes form. The
  // default keeps the block as-is; Rdd<T> converts opted-in row types to the
  // columnar arena-backed layout.
  virtual BlockPtr CacheRepresentation(const BlockPtr& block) const { return block; }

 private:
  EngineContext* ctx_;
  RddId id_;
  std::string name_;
  size_t num_partitions_;
  std::vector<Dependency> deps_;
  StorageLevel storage_level_ = StorageLevel::kNone;
  bool hash_partitioned_ = false;
  bool checkpointed_ = false;
};

}  // namespace blaze

#endif  // SRC_DATAFLOW_RDD_BASE_H_
