// Worker process: the remote half of distributed mode.
//
// A worker hosts one executor's storage slice — a full BlockManager
// (MemoryStore + DiskStore + MemoryArbiter + SpillQueue) — and serves the
// wire protocol over an RpcServer. It holds *payloads*: cache blocks and
// shuffle buckets as encoded bytes, admitted under its own memory bound with
// LRU demotion to its own disk tier when the bound is hit. All *decisions*
// (MCKP planning, admission, eviction policy, lineage) stay in the
// coordinator process, which addresses payloads by BlockId/bucket key.
//
// Task execution: C++ closures cannot cross a process boundary, so TaskLaunch
// names a closure from TaskClosureRegistry — a fixed set both binaries link
// ("ping", "sum_u64", "demote_block", "drop_block", "crash") used for
// worker-side storage maintenance, health checks, and fault drills.
//
// Incarnations: every put carries an incarnation number; removes are applied
// only when the resident incarnation matches. This makes the
// replace-then-release race benign — a stale destructor's RemoveBlock for
// incarnation k cannot delete the payload of incarnation k+1.
#ifndef SRC_NET_WORKER_H_
#define SRC_NET_WORKER_H_

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/metrics/run_metrics.h"
#include "src/net/message.h"
#include "src/net/rpc.h"
#include "src/storage/block_manager.h"

namespace blaze::net {

// A payload held by value: EncodeTo writes the raw bytes back out, so a
// DiskStore round trip (demotion and re-read) reproduces the payload
// byte-for-byte. NumRows is carried, not derived — the worker never decodes.
class EncodedPayloadBlock : public BlockData {
 public:
  EncodedPayloadBlock(std::vector<uint8_t> bytes, uint64_t rows)
      : bytes_(std::move(bytes)), rows_(rows) {}
  size_t SizeBytes() const override { return bytes_.size(); }
  size_t NumRows() const override { return rows_; }
  void EncodeTo(ByteSink& sink) const override {
    sink.WriteRaw(bytes_.data(), bytes_.size());
  }
  BlockRepresentation representation() const override {
    return BlockRepresentation::kEncoded;
  }
  const std::vector<uint8_t>& bytes() const { return bytes_; }

 private:
  std::vector<uint8_t> bytes_;
  uint64_t rows_;
};

struct WorkerConfig {
  uint16_t port = 0;  // 0 = ephemeral; the bound port is announced on stdout
  size_t slot = 0;    // executor slot this worker backs
  uint64_t memory_capacity_bytes = 64ULL << 20;
  std::filesystem::path disk_dir;               // empty = a fresh temp dir
  uint64_t disk_throughput_bytes_per_sec = 0;   // 0 = unthrottled
};

class Worker;

// Named task closures executable via TaskLaunch. Registration is static
// (both coordinator and worker binaries link the same set); the registry is
// the complete, auditable surface of what a wire message can make a worker
// run.
class TaskClosureRegistry {
 public:
  using Closure = std::function<TaskResultMsg(Worker&, const TaskLaunchMsg&)>;

  static TaskClosureRegistry& Instance();
  void Register(const std::string& name, Closure fn);
  const Closure* Lookup(const std::string& name) const;
  std::vector<std::string> Names() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, Closure> closures_;
};

class Worker {
 public:
  explicit Worker(const WorkerConfig& config);
  ~Worker();

  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  bool Start(std::string* error = nullptr);
  void Stop();
  uint16_t port() const { return server_ ? server_->port() : 0; }
  size_t slot() const { return config_.slot; }

  WorkerStats Stats();

  // Storage operations (also reached by task closures).
  AckMsg PutBlock(BlockPutMsg msg);
  BlockGetRespMsg GetBlock(const BlockGetMsg& msg);
  AckMsg RemoveBlock(const BlockRemoveMsg& msg);
  // Moves a resident block memory -> worker disk (the coordinator's remote
  // demotion verb). False if the block is not in the memory tier.
  bool DemoteBlock(const BlockId& id);

  AckMsg PutBucket(BucketPutMsg msg);
  BucketFetchRespMsg FetchBucket(const BucketFetchMsg& msg);
  AckMsg RemoveBucket(const BucketRemoveMsg& msg);

  BlockManager& block_manager() { return *bm_; }

  // True once a kShutdown message was served (WorkerMain exits its wait).
  bool shutdown_requested() const { return shutdown_.load(); }

 private:
  std::vector<uint8_t> Handle(const MessageHeader& header, ByteSource& body);
  TaskResultMsg RunTask(const TaskLaunchMsg& msg);
  // Demotes LRU unpinned memory-tier blocks until `needed` bytes fit (or
  // nothing is demotable). Called with admission_mu_ held.
  void MakeRoom(uint64_t needed);

  struct BucketKey {
    int32_t shuffle_id;
    uint32_t map_part;
    uint32_t reduce_part;
    bool operator<(const BucketKey& o) const {
      if (shuffle_id != o.shuffle_id) return shuffle_id < o.shuffle_id;
      if (map_part != o.map_part) return map_part < o.map_part;
      return reduce_part < o.reduce_part;
    }
  };
  struct BucketEntry {
    std::vector<uint8_t> payload;
    uint64_t incarnation = 0;
  };

  WorkerConfig config_;
  RunMetrics metrics_{1};
  std::filesystem::path owned_disk_dir_;  // wiped on destruction when set
  std::unique_ptr<BlockManager> bm_;
  std::unique_ptr<RpcServer> server_;

  // Serializes admission/demotion/removal so MakeRoom's scan-and-demote is
  // atomic with respect to concurrent puts. Reads (GetBlock/FetchBucket) do
  // not take it.
  std::mutex admission_mu_;
  std::unordered_map<BlockId, uint64_t, BlockIdHash> incarnations_;

  std::mutex bucket_mu_;
  std::map<BucketKey, BucketEntry> buckets_;
  std::atomic<uint64_t> bucket_bytes_{0};

  std::atomic<uint64_t> inflight_tasks_{0};
  std::atomic<uint64_t> tasks_executed_{0};
  std::atomic<bool> shutdown_{false};
};

// Entry point for tools/blaze_worker.cc. Flags: --port=N --slot=K
// --mem=BYTES --disk-dir=PATH --disk-bps=N. Announces
// "BLAZE_WORKER_PORT <port>" on stdout once serving, then blocks until
// stdin reaches EOF (the coordinator's lifeline pipe) or kShutdown arrives.
int WorkerMain(int argc, char** argv);

}  // namespace blaze::net

#endif  // SRC_NET_WORKER_H_
