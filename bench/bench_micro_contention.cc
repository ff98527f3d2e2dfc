// Multi-threaded contention micro-benchmarks for the task hot path: the
// sharded MemoryStore / ShuffleService and the work-stealing ThreadPool,
// each measured against a local replica of the pre-sharding single-mutex
// design. Run with --benchmark_filter as usual; the interesting comparison
// is items_per_second at /threads:8 (sharded vs. single-mutex baseline).
#include <benchmark/benchmark.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/dataflow/shuffle.h"
#include "src/dataflow/typed_block.h"
#include "src/storage/memory_store.h"

namespace blaze {
namespace {

constexpr int kKeysPerThread = 64;
constexpr uint64_t kBlockBytes = 256;

BlockPtr SmallBlock() { return MakeBlock(std::vector<int>(kBlockBytes / sizeof(int), 1)); }

// ---------------------------------------------------------------------------
// Baselines: faithful replicas of the pre-sharding single-global-mutex
// designs, kept here so the benchmark always compares against them even as
// the real classes evolve.

class SingleMutexStore {
 public:
  explicit SingleMutexStore(uint64_t capacity) : capacity_(capacity) {}

  void Put(const BlockId& id, BlockPtr data, uint64_t size_bytes) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = blocks_.find(id);
    if (it != blocks_.end()) {
      used_ -= it->second.size_bytes;
      blocks_.erase(it);
    }
    MemoryEntry entry;
    entry.id = id;
    entry.data = std::move(data);
    entry.size_bytes = size_bytes;
    entry.last_access_seq = ++seq_;
    used_ += size_bytes;
    blocks_.emplace(id, std::move(entry));
  }

  std::optional<BlockPtr> Get(const BlockId& id) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = blocks_.find(id);
    if (it == blocks_.end()) {
      return std::nullopt;
    }
    it->second.last_access_seq = ++seq_;
    return it->second.data;
  }

  uint64_t used_bytes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return used_;
  }

 private:
  mutable std::mutex mu_;
  uint64_t capacity_;
  uint64_t used_ = 0;
  uint64_t seq_ = 0;
  std::unordered_map<BlockId, MemoryEntry, BlockIdHash> blocks_;
};

class SingleMutexShuffle {
 public:
  void PutBucket(int shuffle_id, uint32_t map_part, uint32_t reduce_part, BlockPtr bucket) {
    std::lock_guard<std::mutex> lock(mu_);
    const Key key{shuffle_id, map_part, reduce_part};
    auto it = buckets_.find(key);
    if (it != buckets_.end()) {
      approx_bytes_ -= it->second->SizeBytes();
      it->second = std::move(bucket);
      approx_bytes_ += it->second->SizeBytes();
      return;
    }
    approx_bytes_ += bucket->SizeBytes();
    buckets_.emplace(key, std::move(bucket));
  }

  BlockPtr GetBucket(int shuffle_id, uint32_t map_part, uint32_t reduce_part) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = buckets_.find(Key{shuffle_id, map_part, reduce_part});
    return it == buckets_.end() ? nullptr : it->second;
  }

 private:
  struct Key {
    int shuffle_id;
    uint32_t map_part;
    uint32_t reduce_part;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      uint64_t h = static_cast<uint64_t>(k.shuffle_id) * 0x9E3779B97F4A7C15ULL;
      h ^= (static_cast<uint64_t>(k.map_part) << 32) | k.reduce_part;
      return std::hash<uint64_t>()(h);
    }
  };
  mutable std::mutex mu_;
  std::unordered_map<Key, BlockPtr, KeyHash> buckets_;
  uint64_t approx_bytes_ = 0;
};

// The pre-work-stealing pool: one queue, one mutex, one cv.
class SingleQueuePool {
 public:
  explicit SingleQueuePool(size_t num_threads) {
    for (size_t i = 0; i < num_threads; ++i) {
      threads_.emplace_back([this] { WorkerLoop(); });
    }
  }
  ~SingleQueuePool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = true;
    }
    work_cv_.notify_all();
    for (auto& t : threads_) {
      t.join();
    }
  }
  void Submit(std::function<void()> fn) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(std::move(fn));
    }
    work_cv_.notify_one();
  }
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    idle_cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
  }

 private:
  void WorkerLoop() {
    for (;;) {
      std::function<void()> fn;
      {
        std::unique_lock<std::mutex> lock(mu_);
        work_cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
        if (queue_.empty()) {
          return;
        }
        fn = std::move(queue_.front());
        queue_.pop_front();
        ++active_;
      }
      fn();
      {
        std::lock_guard<std::mutex> lock(mu_);
        --active_;
      }
      idle_cv_.notify_all();
    }
  }
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::deque<std::function<void()>> queue_;
  size_t active_ = 0;
  bool shutdown_ = false;
  std::vector<std::thread> threads_;
};

// ---------------------------------------------------------------------------
// Store put/get mix: every thread owns a disjoint key range (as executor task
// slots touch distinct partitions); 1 in 8 operations is a same-size replace,
// the rest are cache hits.

template <typename Store>
void StorePutGetLoop(benchmark::State& state, Store& store) {
  const int base = state.thread_index() * kKeysPerThread;
  BlockPtr block = SmallBlock();
  for (int k = 0; k < kKeysPerThread; ++k) {
    store.Put(BlockId{1, static_cast<uint32_t>(base + k)}, block, kBlockBytes);
  }
  int op = 0;
  for (auto _ : state) {
    const BlockId id{1, static_cast<uint32_t>(base + op % kKeysPerThread)};
    if (op % 8 == 0) {
      store.Put(id, block, kBlockBytes);
    } else {
      benchmark::DoNotOptimize(store.Get(id));
    }
    ++op;
  }
  state.SetItemsProcessed(state.iterations());
}

// Shared stores live for the whole process (magic statics): benchmark worker
// threads enter the function unsynchronized, so per-run setup would race.
void BM_ShardedStorePutGet(benchmark::State& state) {
  static MemoryStore store(1ULL << 30);
  StorePutGetLoop(state, store);
}
BENCHMARK(BM_ShardedStorePutGet)->ThreadRange(1, 8)->UseRealTime();

void BM_SingleMutexStorePutGet(benchmark::State& state) {
  static SingleMutexStore store(1ULL << 30);
  StorePutGetLoop(state, store);
}
BENCHMARK(BM_SingleMutexStorePutGet)->ThreadRange(1, 8)->UseRealTime();

// ---------------------------------------------------------------------------
// Shuffle bucket writes + reads: each thread acts as one map task writing its
// buckets across 32 reduce partitions, then fetching them back — the M×R
// pattern of a map stage followed by a reduce sweep.

template <typename Shuffle>
void ShufflePutGetLoop(benchmark::State& state, Shuffle& shuffle) {
  const uint32_t map_part = static_cast<uint32_t>(state.thread_index());
  constexpr uint32_t kReduce = 32;
  BlockPtr block = SmallBlock();
  int op = 0;
  for (auto _ : state) {
    const uint32_t r = static_cast<uint32_t>(op % kReduce);
    if (op % 2 == 0) {
      shuffle.PutBucket(7, map_part, r, block);
    } else {
      benchmark::DoNotOptimize(shuffle.GetBucket(7, map_part, r));
    }
    ++op;
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_ShardedShufflePutGet(benchmark::State& state) {
  static ShuffleService shuffle;
  ShufflePutGetLoop(state, shuffle);
}
BENCHMARK(BM_ShardedShufflePutGet)->ThreadRange(1, 8)->UseRealTime();

void BM_SingleMutexShufflePutGet(benchmark::State& state) {
  static SingleMutexShuffle shuffle;
  ShufflePutGetLoop(state, shuffle);
}
BENCHMARK(BM_SingleMutexShufflePutGet)->ThreadRange(1, 8)->UseRealTime();

// ---------------------------------------------------------------------------
// Pool fan-out/drain: submit a stage-sized batch of trivial tasks and wait —
// the scheduler's per-stage pattern. Arg = worker count.

void BM_WorkStealingPoolDrain(benchmark::State& state) {
  ThreadPool pool(static_cast<size_t>(state.range(0)), "bench");
  constexpr int kTasks = 512;
  std::atomic<int> sink{0};
  for (auto _ : state) {
    std::vector<std::function<void()>> batch;
    batch.reserve(kTasks);
    for (int i = 0; i < kTasks; ++i) {
      batch.push_back([&sink] { sink.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.SubmitBatch(std::move(batch));
    pool.Wait();
  }
  state.SetItemsProcessed(state.iterations() * kTasks);
  state.counters["steals"] = static_cast<double>(pool.steal_count());
}
BENCHMARK(BM_WorkStealingPoolDrain)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_SingleQueuePoolDrain(benchmark::State& state) {
  SingleQueuePool pool(static_cast<size_t>(state.range(0)));
  constexpr int kTasks = 512;
  std::atomic<int> sink{0};
  for (auto _ : state) {
    for (int i = 0; i < kTasks; ++i) {
      pool.Submit([&sink] { sink.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.Wait();
  }
  state.SetItemsProcessed(state.iterations() * kTasks);
}
BENCHMARK(BM_SingleQueuePoolDrain)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

}  // namespace
}  // namespace blaze

BENCHMARK_MAIN();
