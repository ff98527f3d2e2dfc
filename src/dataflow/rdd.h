// Typed dataset API: transformations, sources, and actions.
//
// Mirrors the Spark RDD programming model: transformations are lazy (they
// only build DAG nodes); actions submit a job through the DAG scheduler.
// Key-based operations (shuffles, joins) live in src/dataflow/pair_rdd.h.
#ifndef SRC_DATAFLOW_RDD_H_
#define SRC_DATAFLOW_RDD_H_

#include <algorithm>
#include <any>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/dataflow/engine_context.h"
#include "src/dataflow/fusion.h"
#include "src/dataflow/rdd_base.h"
#include "src/dataflow/task_context.h"
#include "src/dataflow/typed_block.h"

namespace blaze {

template <typename T>
class Rdd;

template <typename T>
using RddPtr = std::shared_ptr<Rdd<T>>;

// Creates and registers a dataset node. All dataset construction goes through
// here so the engine's registry can hand out live references by id.
template <typename R, typename... Args>
std::shared_ptr<R> NewRdd(Args&&... args) {
  auto rdd = std::make_shared<R>(std::forward<Args>(args)...);
  rdd->context()->RegisterRdd(rdd);
  return rdd;
}

template <typename T>
class Rdd : public RddBase {
 public:
  using ElementType = T;
  using RddBase::RddBase;

  BlockPtr DecodeBlock(ByteSource& src) const override {
    if constexpr (BlazeColumns<T>::kEnabled) {
      if (src.PeekByte() == kColumnarWireTag) {
        return ColumnarBlock<T>::DecodeFrom(src);
      }
    }
    return TypedBlock<T>::DecodeFrom(src);
  }

  BlockPtr CacheRepresentation(const BlockPtr& block) const override {
    if constexpr (kColumnarAutoEligible<T>) {
      // Layouts that only pay off under vectorized execution (raw-copyable
      // pairs) stay as object rows when the vectorized path is off: without
      // column kernels every memory hit would eat a recompose for nothing.
      if ((kColumnarNeedsVectorized<T> && !this->context()->config().enable_vectorized) ||
          block->representation() != BlockRepresentation::kObjectRows) {
        return block;
      }
      auto columnar = std::make_shared<ColumnarBlock<T>>(RowsOf<T>(block));
      this->context()->metrics().RecordColumnarBuild(columnar->SizeBytes(),
                                                     block->SizeBytes());
      return columnar;
    } else {
      return block;
    }
  }

  RddPtr<T> SharedThis() {
    return std::static_pointer_cast<Rdd<T>>(this->shared_from_this());
  }

  // --- transformations (lazy) -------------------------------------------------------
  template <typename F>
  auto Map(F fn, std::string name = "map") -> RddPtr<std::invoke_result_t<F, const T&>>;

  template <typename F>
  auto FlatMap(F fn, std::string name = "flatMap")
      -> RddPtr<typename std::invoke_result_t<F, const T&>::value_type>;

  RddPtr<T> Filter(std::function<bool(const T&)> pred, std::string name = "filter");

  // fn: (partition_index, const rows&) -> new rows (possibly of another type).
  template <typename F>
  auto MapPartitions(F fn, std::string name = "mapPartitions")
      -> RddPtr<typename std::invoke_result_t<F, uint32_t, const std::vector<T>&>::value_type>;

  // Bernoulli sample of each partition (deterministic per seed).
  RddPtr<T> Sample(double fraction, uint64_t seed, std::string name = "sample");

  // --- actions (eager) ---------------------------------------------------------------
  std::vector<T> Collect();
  size_t Count();

  // Generic aggregate: per-partition fold then driver-side merge.
  template <typename A>
  A Aggregate(A zero, std::function<void(A&, const T&)> seq_op,
              std::function<void(A&, const A&)> comb_op);

  // Associative reduce; nullopt on an empty dataset.
  std::optional<T> Reduce(std::function<T(const T&, const T&)> fn);

  // --- fused (pipelined) row access --------------------------------------------------
  // Narrow one-parent transforms override IsFusable/StreamFused so chains of
  // them execute as one pass per partition without materializing intermediate
  // blocks (see src/dataflow/fusion.h for the barrier rules).

  // True if this dataset can stream rows into a consumer instead of
  // materializing a block. Sources, shuffle reads, and multi-parent operators
  // stay non-fusable: they always go through TaskContext::GetBlock.
  virtual bool IsFusable() const { return false; }

  // Streams this dataset's rows for partition `index` into `sink` without
  // registering a block. Only called when IsFusable() and no barrier applies.
  virtual void StreamFused(TaskContext& tc, uint32_t index, RowSink<T>& sink) const {
    (void)tc;
    (void)index;
    (void)sink;
    BLAZE_CHECK(false) << "StreamFused on non-fusable dataset " << this->name();
  }

  // Produces this dataset's rows as a whole vector while fused (no block).
  // Default: collect the stream; operators that already build a vector
  // (MapPartitions) override to hand it over without a per-row pass.
  virtual SharedRows<T> RowsFused(TaskContext& tc, uint32_t index) const {
    auto out = std::make_shared<std::vector<T>>();
    CollectSink<T> collect(out.get());
    StreamFused(tc, index, collect);
    // The collection buffer grows geometrically; drop the slack so cached
    // blocks account (and hold) exactly their payload, as the pre-fusion
    // reserve()-sized operator outputs did.
    out->shrink_to_fit();
    return out;
  }

  // Consumer entry points: fetch this dataset's rows for `index`, fusing
  // through it when allowed, else materializing via tc.GetBlock (cache-aware).
  void StreamRows(TaskContext& tc, uint32_t index, RowSink<T>& sink) const;
  SharedRows<T> FusedRows(TaskContext& tc, uint32_t index) const;

  // --- vectorized (batch-at-a-time) access -------------------------------------------
  // The batch counterpart of StreamRows: operators with columnar kernels
  // exchange ColumnBatch views (dense values + optional selection vector)
  // instead of single rows, so a fusable chain runs as tight per-column loops
  // with one virtual call per kVectorBatchRows rows. Viability is decided on
  // the way *down* the chain — a link without a kernel declines before any
  // block is fetched or row produced — so a false return is side-effect free
  // and the caller falls back to the row path with identical results.

  // True if this operator can run as a columnar kernel (PipelineRdds built
  // with a VecFn). Sources and barriers don't need one: StreamBatches serves
  // them straight from the fetched block.
  virtual bool HasColumnarKernel() const { return false; }

  // Runs this operator's kernel, pulling parent batches recursively. Returns
  // false (before pushing anything) if the upstream chain cannot vectorize.
  virtual bool StreamBatchesFused(TaskContext& tc, uint32_t index, ColumnSink<T>& sink) const {
    (void)tc;
    (void)index;
    (void)sink;
    return false;
  }

  // Consumer entry point: streams this dataset's rows as batches. At a fusion
  // barrier (or a non-fusable node) the block is fetched columnar-capable via
  // tc.GetColumnarForTask and windowed into batches — columnar blocks gather
  // through a scratch buffer without materializing a row block, object-row
  // blocks emit zero-copy dense windows. Returns false if the chain has a
  // kernel-less link or vectorization is switched off.
  bool StreamBatches(TaskContext& tc, uint32_t index, ColumnSink<T>& sink) const;
};

// Dataset computed by a user function over parent partitions. One generic node
// covers every narrow transformation (map/filter/join-co-partitioned/zip).
template <typename U>
class TransformRdd final : public Rdd<U> {
 public:
  using ComputeFn = std::function<std::vector<U>(TaskContext&, uint32_t)>;

  TransformRdd(EngineContext* ctx, std::string name, size_t num_partitions,
               std::vector<Dependency> deps, ComputeFn fn)
      : Rdd<U>(ctx, std::move(name), num_partitions, std::move(deps)), fn_(std::move(fn)) {}

  BlockPtr Compute(uint32_t index, TaskContext& tc) const override {
    return MakeBlock(fn_(tc, index));
  }

 private:
  ComputeFn fn_;
};

// Fusable narrow transform (map/filter/flatMap/mapPartitions/sample and the
// pair-dataset equivalents): holds a streaming compute that pushes output
// rows into a sink, pulling parent rows through Rdd::StreamRows/FusedRows so
// the whole upstream chain pipelines until a fusion barrier. When this node
// itself must materialize (it is a barrier, a stage terminal, or fusion is
// disabled), Compute collects the stream into a block — so caching, eviction,
// recovery, and lineage recomputation behave exactly as for TransformRdd.
template <typename U>
class PipelineRdd final : public Rdd<U> {
 public:
  using StreamFn = std::function<void(TaskContext&, uint32_t, RowSink<U>&)>;
  // Optional whole-partition producer for operators that inherently build (or
  // can alias) a full row vector — MapPartitions hands its result over without
  // a per-row pass, Union/Coalesce return views of parent rows. Used by
  // RowsFused instead of collecting the stream.
  using RowsFn = std::function<SharedRows<U>(TaskContext&, uint32_t)>;
  // Optional columnar kernel: pulls parent batches (parent->StreamBatches)
  // and pushes transformed/selected batches. Returns false — before pushing
  // anything — when the upstream chain cannot vectorize.
  using VecFn = std::function<bool(TaskContext&, uint32_t, ColumnSink<U>&)>;

  PipelineRdd(EngineContext* ctx, std::string name, size_t num_partitions,
              std::vector<Dependency> deps, StreamFn stream, RowsFn rows = nullptr,
              VecFn vec = nullptr)
      : Rdd<U>(ctx, std::move(name), num_partitions, std::move(deps)),
        stream_(std::move(stream)),
        rows_(std::move(rows)),
        vec_(std::move(vec)) {}

  BlockPtr Compute(uint32_t index, TaskContext& tc) const override {
    return MakeBlockView(this->RowsFused(tc, index));
  }

  bool IsFusable() const override { return true; }

  bool HasColumnarKernel() const override { return vec_ != nullptr; }

  bool StreamBatchesFused(TaskContext& tc, uint32_t index, ColumnSink<U>& sink) const override {
    return vec_ != nullptr && vec_(tc, index, sink);
  }

  void StreamFused(TaskContext& tc, uint32_t index, RowSink<U>& sink) const override {
    // Hybrid chains: vectorize the upstream prefix even when this link's
    // consumer only speaks rows (a row-only operator downstream, or a
    // RowSink-based terminal). Declining is side-effect free, so the row
    // stream below starts from scratch.
    if (vec_ != nullptr && this->context()->config().enable_vectorized) {
      BatchToRowSink<U> bridge(&sink);
      if (vec_(tc, index, bridge)) {
        return;
      }
    }
    stream_(tc, index, sink);
  }

  SharedRows<U> RowsFused(TaskContext& tc, uint32_t index) const override {
    // Terminal of a fully-vectorized chain: collect surviving batches into
    // the block's row vector. Falls back to the row pipeline when any
    // upstream link lacks a kernel.
    if (vec_ != nullptr && this->context()->config().enable_vectorized) {
      auto out = std::make_shared<std::vector<U>>();
      CollectColumnSink<U> collect(out.get());
      if (vec_(tc, index, collect)) {
        out->shrink_to_fit();
        return out;
      }
    }
    if (rows_) {
      return rows_(tc, index);
    }
    return Rdd<U>::RowsFused(tc, index);
  }

 private:
  StreamFn stream_;
  RowsFn rows_;
  VecFn vec_;
};

// Adapters for vector-building operators: `build` produces the partition's
// rows as a vector; the stream form moves them out one by one.
template <typename U, typename BuildFn>
typename PipelineRdd<U>::StreamFn StreamFromBuild(BuildFn build) {
  return [build](TaskContext& tc, uint32_t index, RowSink<U>& sink) {
    std::vector<U> out = build(tc, index);
    for (U& v : out) {
      sink.Push(std::move(v));
    }
  };
}

template <typename U, typename BuildFn>
typename PipelineRdd<U>::RowsFn RowsFromBuild(BuildFn build) {
  return [build](TaskContext& tc, uint32_t index) {
    return std::make_shared<const std::vector<U>>(build(tc, index));
  };
}

// Source dataset: partitions produced by a generator function (models reading
// an input; re-invoked when lineage recomputation reaches the source).
template <typename T>
class SourceRdd final : public Rdd<T> {
 public:
  using GeneratorFn = std::function<std::vector<T>(uint32_t)>;

  SourceRdd(EngineContext* ctx, std::string name, size_t num_partitions, GeneratorFn gen)
      : Rdd<T>(ctx, std::move(name), num_partitions, {}), gen_(std::move(gen)) {}

  BlockPtr Compute(uint32_t index, TaskContext&) const override {
    return MakeBlock(gen_(index));
  }

 private:
  GeneratorFn gen_;
};

// --- factory helpers ---------------------------------------------------------------

template <typename T>
RddPtr<T> Generate(EngineContext* ctx, std::string name, size_t num_partitions,
                   typename SourceRdd<T>::GeneratorFn gen) {
  return NewRdd<SourceRdd<T>>(ctx, std::move(name), num_partitions, std::move(gen));
}

template <typename T>
RddPtr<T> Parallelize(EngineContext* ctx, std::string name, std::vector<T> data,
                      size_t num_partitions) {
  auto shared = std::make_shared<std::vector<T>>(std::move(data));
  return Generate<T>(ctx, std::move(name), num_partitions,
                     [shared, num_partitions](uint32_t index) {
                       const size_t n = shared->size();
                       const size_t begin = n * index / num_partitions;
                       const size_t end = n * (index + 1) / num_partitions;
                       return std::vector<T>(shared->begin() + begin, shared->begin() + end);
                     });
}

// --- Rdd<T> member definitions -------------------------------------------------------

template <typename T>
void Rdd<T>::StreamRows(TaskContext& tc, uint32_t index, RowSink<T>& sink) const {
  if (!IsFusable() || tc.IsFusionBarrier(*this)) {
    const BlockPtr block = tc.GetBlock(*this, index);
    for (const T& row : RowsOf<T>(block)) {
      sink.Push(row);
    }
    return;
  }
  tc.OnOperatorFused(*this);
  StreamFused(tc, index, sink);
}

template <typename T>
SharedRows<T> Rdd<T>::FusedRows(TaskContext& tc, uint32_t index) const {
  if (!IsFusable() || tc.IsFusionBarrier(*this)) {
    return SharedRowsOf<T>(tc.GetBlock(*this, index));
  }
  tc.OnOperatorFused(*this);
  return RowsFused(tc, index);
}

template <typename T>
bool Rdd<T>::StreamBatches(TaskContext& tc, uint32_t index, ColumnSink<T>& sink) const {
  if (!this->context()->config().enable_vectorized) {
    return false;
  }
  if (IsFusable() && !tc.IsFusionBarrier(*this)) {
    // Interior link: run this operator's kernel (if any) over parent batches.
    if (!HasColumnarKernel() || !StreamBatchesFused(tc, index, sink)) {
      return false;
    }
    tc.OnOperatorFused(*this);
    return true;
  }
  // Chain source (barrier or non-fusable node): fetch the block without
  // forcing a row decode and window it into batches. Reached only after every
  // downstream link accepted, so the fetch happens exactly once per task.
  const BlockPtr block = tc.GetColumnarForTask(*this, index);
  uint64_t batches = 0;
  uint64_t rows_pushed = 0;
  bool served_columnar = false;
  if constexpr (BlazeColumns<T>::kEnabled) {
    if (const auto* col = dynamic_cast<const ColumnarBlock<T>*>(block.get())) {
      // Gather batches straight off the columns through one scratch buffer
      // (row heap capacity reused across the partition via ColumnarAssignRow).
      const size_t n = col->NumRows();
      std::vector<T> scratch(std::min<size_t>(n, kVectorBatchRows));
      for (size_t off = 0; off < n; off += kVectorBatchRows) {
        const auto len = static_cast<uint32_t>(std::min<size_t>(kVectorBatchRows, n - off));
        for (uint32_t i = 0; i < len; ++i) {
          ColumnarAssignRow<T>(col->columns(), off + i, scratch[i]);
        }
        sink.PushBatch(ColumnBatch<T>{scratch.data(), nullptr, len});
        ++batches;
        rows_pushed += len;
      }
      served_columnar = true;
    }
  }
  if (!served_columnar) {
    // Object-row block: zero-copy dense windows over the contiguous vector.
    const std::vector<T>& rows = RowsOf<T>(block);
    for (size_t off = 0; off < rows.size(); off += kVectorBatchRows) {
      const auto len =
          static_cast<uint32_t>(std::min<size_t>(kVectorBatchRows, rows.size() - off));
      sink.PushBatch(ColumnBatch<T>{rows.data() + off, nullptr, len});
      ++batches;
      rows_pushed += len;
    }
  }
  // Counted once per chain, at the source: batches entering the pipeline.
  tc.metrics().vectorized_batches += batches;
  tc.metrics().rows_vectorized += rows_pushed;
  return true;
}

template <typename T>
template <typename F>
auto Rdd<T>::Map(F fn, std::string name) -> RddPtr<std::invoke_result_t<F, const T&>> {
  using U = std::invoke_result_t<F, const T&>;
  auto parent = SharedThis();
  // Columnar kernel for fixed-width rows: densify the input selection while
  // applying fn in one tight loop, then push a dense output batch. Var-len
  // rows (strings, vectors) stay on the row path, where moves beat the
  // kernel's scratch copies.
  typename PipelineRdd<U>::VecFn vec = nullptr;
  if constexpr (kFixedWidthRow<T> && kFixedWidthRow<U>) {
    vec = [parent, fn](TaskContext& tc, uint32_t index, ColumnSink<U>& sink) {
      std::vector<U> out(kVectorBatchRows);
      auto link = MakeColumnSink<T>([&fn, &sink, &out](const ColumnBatch<T>& in) {
        if (in.count > out.size()) {
          out.resize(in.count);
        }
        // Dense and selective loops split by hand: the dense form has no
        // per-row indirection, so the compiler can SIMD-vectorize it.
        if (in.sel == nullptr) {
          for (uint32_t i = 0; i < in.count; ++i) {
            out[i] = fn(in.values[i]);
          }
        } else {
          for (uint32_t i = 0; i < in.count; ++i) {
            out[i] = fn(in.values[in.sel[i]]);
          }
        }
        sink.PushBatch(ColumnBatch<U>{out.data(), nullptr, in.count});
      });
      return parent->StreamBatches(tc, index, link);
    };
  }
  return NewRdd<PipelineRdd<U>>(
      this->context(), std::move(name), this->num_partitions(),
      std::vector<Dependency>{Dependency{parent}},
      [parent, fn](TaskContext& tc, uint32_t index, RowSink<U>& sink) {
        auto link = MakeSink<T>([&fn, &sink](auto&& row) { sink.Push(fn(row)); });
        parent->StreamRows(tc, index, link);
      },
      nullptr, std::move(vec));
}

template <typename T>
template <typename F>
auto Rdd<T>::FlatMap(F fn, std::string name)
    -> RddPtr<typename std::invoke_result_t<F, const T&>::value_type> {
  using U = typename std::invoke_result_t<F, const T&>::value_type;
  auto parent = SharedThis();
  return NewRdd<PipelineRdd<U>>(
      this->context(), std::move(name), this->num_partitions(),
      std::vector<Dependency>{Dependency{parent}},
      [parent, fn](TaskContext& tc, uint32_t index, RowSink<U>& sink) {
        auto link = MakeSink<T>([&fn, &sink](auto&& row) {
          auto items = fn(row);
          for (auto& v : items) {
            sink.Push(std::move(v));
          }
        });
        parent->StreamRows(tc, index, link);
      });
}

template <typename T>
RddPtr<T> Rdd<T>::Filter(std::function<bool(const T&)> pred, std::string name) {
  auto parent = SharedThis();
  // Columnar kernel (any row type): refine the selection vector in place —
  // surviving rows are never copied, only their indexes, and the downstream
  // kernel (or terminal collect) reads them straight from the parent's batch.
  typename PipelineRdd<T>::VecFn vec =
      [parent, pred](TaskContext& tc, uint32_t index, ColumnSink<T>& sink) {
        std::vector<uint32_t> selbuf(kVectorBatchRows);
        auto link = MakeColumnSink<T>([&pred, &sink, &selbuf](const ColumnBatch<T>& in) {
          if (in.count > selbuf.size()) {
            selbuf.resize(in.count);
          }
          uint32_t n = 0;
          if (in.sel == nullptr) {
            for (uint32_t i = 0; i < in.count; ++i) {
              if (pred(in.values[i])) {
                selbuf[n++] = i;
              }
            }
          } else {
            for (uint32_t i = 0; i < in.count; ++i) {
              const uint32_t r = in.sel[i];
              if (pred(in.values[r])) {
                selbuf[n++] = r;
              }
            }
          }
          if (n > 0) {
            sink.PushBatch(ColumnBatch<T>{in.values, selbuf.data(), n});
          }
        });
        return parent->StreamBatches(tc, index, link);
      };
  auto result = NewRdd<PipelineRdd<T>>(
      this->context(), std::move(name), this->num_partitions(),
      std::vector<Dependency>{Dependency{parent}},
      [parent, pred](TaskContext& tc, uint32_t index, RowSink<T>& sink) {
        auto link = MakeSink<T>([&pred, &sink](auto&& row) {
          if (pred(row)) {
            sink.Push(std::forward<decltype(row)>(row));
          }
        });
        parent->StreamRows(tc, index, link);
      },
      nullptr, std::move(vec));
  result->set_hash_partitioned(this->hash_partitioned());
  return result;
}

template <typename T>
template <typename F>
auto Rdd<T>::MapPartitions(F fn, std::string name)
    -> RddPtr<typename std::invoke_result_t<F, uint32_t, const std::vector<T>&>::value_type> {
  using U = typename std::invoke_result_t<F, uint32_t, const std::vector<T>&>::value_type;
  auto parent = SharedThis();
  auto build = [parent, fn](TaskContext& tc, uint32_t index) {
    const SharedRows<T> rows = parent->FusedRows(tc, index);
    return fn(index, *rows);
  };
  return NewRdd<PipelineRdd<U>>(this->context(), std::move(name), this->num_partitions(),
                                std::vector<Dependency>{Dependency{parent}},
                                StreamFromBuild<U>(build), RowsFromBuild<U>(build));
}

template <typename T>
RddPtr<T> Rdd<T>::Sample(double fraction, uint64_t seed, std::string name) {
  auto parent = SharedThis();
  // Columnar kernel: like Filter, but the predicate is the rng draw. The
  // generator seeding and per-live-row draw order are identical to the row
  // path (batches arrive in row order; sel lists live rows in order), so the
  // sampled subset matches row execution bit for bit.
  typename PipelineRdd<T>::VecFn vec =
      [parent, fraction, seed](TaskContext& tc, uint32_t index, ColumnSink<T>& sink) {
        Rng rng(seed * 0x100000001B3ULL + index);
        std::vector<uint32_t> selbuf(kVectorBatchRows);
        auto link =
            MakeColumnSink<T>([&rng, fraction, &sink, &selbuf](const ColumnBatch<T>& in) {
              if (in.count > selbuf.size()) {
                selbuf.resize(in.count);
              }
              uint32_t n = 0;
              for (uint32_t i = 0; i < in.count; ++i) {
                const uint32_t r = in.RowIndex(i);
                if (rng.NextBool(fraction)) {
                  selbuf[n++] = r;
                }
              }
              if (n > 0) {
                sink.PushBatch(ColumnBatch<T>{in.values, selbuf.data(), n});
              }
            });
        return parent->StreamBatches(tc, index, link);
      };
  return NewRdd<PipelineRdd<T>>(
      this->context(), std::move(name), this->num_partitions(),
      std::vector<Dependency>{Dependency{parent}},
      [parent, fraction, seed](TaskContext& tc, uint32_t index, RowSink<T>& sink) {
        // Same per-partition generator and row order fused or not, so the
        // sampled subset is identical either way.
        Rng rng(seed * 0x100000001B3ULL + index);
        auto link = MakeSink<T>([&rng, fraction, &sink](auto&& row) {
          if (rng.NextBool(fraction)) {
            sink.Push(std::forward<decltype(row)>(row));
          }
        });
        parent->StreamRows(tc, index, link);
      },
      nullptr, std::move(vec));
}

template <typename T>
std::vector<T> Rdd<T>::Collect() {
  auto results = this->context()->RunJob(
      SharedThis(), [](const BlockPtr& block) -> std::any { return RowsOf<T>(block); });
  std::vector<T> out;
  for (std::any& result : results) {
    auto rows = std::any_cast<std::vector<T>>(std::move(result));
    out.insert(out.end(), std::make_move_iterator(rows.begin()),
               std::make_move_iterator(rows.end()));
  }
  return out;
}

template <typename T>
size_t Rdd<T>::Count() {
  // raw_blocks: a cached columnar terminal is counted without row decode.
  auto results = this->context()->RunJob(
      SharedThis(), [](const BlockPtr& block) -> std::any { return block->NumRows(); },
      /*raw_blocks=*/true);
  size_t total = 0;
  for (std::any& result : results) {
    total += std::any_cast<size_t>(result);
  }
  return total;
}

template <typename T>
template <typename A>
A Rdd<T>::Aggregate(A zero, std::function<void(A&, const T&)> seq_op,
                    std::function<void(A&, const A&)> comb_op) {
  // raw_blocks + ForEachRow: folds over a cached columnar terminal through a
  // reused scratch row instead of materializing the whole partition.
  auto results = this->context()->RunJob(
      SharedThis(),
      [&zero, &seq_op](const BlockPtr& block) -> std::any {
        A acc = zero;
        ForEachRow<T>(block, [&acc, &seq_op](const T& row) { seq_op(acc, row); });
        return acc;
      },
      /*raw_blocks=*/true);
  A total = zero;
  for (std::any& result : results) {
    comb_op(total, std::any_cast<A>(result));
  }
  return total;
}

template <typename T>
std::optional<T> Rdd<T>::Reduce(std::function<T(const T&, const T&)> fn) {
  using Partial = std::optional<T>;
  Partial result = Aggregate<Partial>(
      std::nullopt,
      [&fn](Partial& acc, const T& row) { acc = acc ? fn(*acc, row) : row; },
      [&fn](Partial& acc, const Partial& other) {
        if (other) {
          acc = acc ? fn(*acc, *other) : *other;
        }
      });
  return result;
}

}  // namespace blaze

#endif  // SRC_DATAFLOW_RDD_H_
