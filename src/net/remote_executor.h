// Coordinator-side proxy for the worker fleet.
//
// RemoteExecutorSet owns N worker *processes* (fork+exec of the blaze_worker
// binary), one per executor slot, each reached through a pool of persistent
// RPC connections. The engine's decision plane never moves: schedulers,
// MCKP planning, arbiter ledgers, and lineage stay in this process and
// address remote payloads through the typed calls below.
//
// Liveness: a monitor thread heartbeats every worker on its own dedicated
// connection (so a heartbeat can never queue behind a bulk block transfer).
// heartbeat_miss_limit consecutive failures — or the child being reaped by
// waitpid — declares the worker lost: the proxy fires on_worker_lost(slot)
// (the engine invalidates CostLineage entries and drops the slot's shuffle
// buckets, everything downstream recovers from lineage) and then respawns a
// fresh worker into the same slot.
//
// Spawn handshake: the child announces "BLAZE_WORKER_PORT <p>" on its stdout
// pipe; its stdin is a lifeline pipe — if this process dies for any reason,
// the pipe closes and every worker exits on EOF, so no orphan processes
// survive a crashed coordinator.
#ifndef SRC_NET_REMOTE_EXECUTOR_H_
#define SRC_NET_REMOTE_EXECUTOR_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/net/message.h"
#include "src/net/rpc.h"
#include "src/storage/block.h"

namespace blaze::net {

struct RemoteExecutorConfig {
  size_t num_workers = 2;
  uint64_t worker_memory_bytes = 64ULL << 20;
  uint64_t disk_throughput_bytes_per_sec = 0;
  std::string worker_binary;      // empty = discover next to this executable
  int heartbeat_interval_ms = 250;
  int heartbeat_miss_limit = 4;   // consecutive misses before declaring loss
  int rpc_timeout_ms = 5000;
  bool respawn_lost_workers = true;
};

class RemoteExecutorSet {
 public:
  using WorkerLostCallback = std::function<void(size_t slot)>;

  // Monotonic counters for the net.* metrics plane.
  struct Counters {
    std::atomic<uint64_t> block_puts{0};
    std::atomic<uint64_t> block_put_bytes{0};
    std::atomic<uint64_t> block_fetches{0};
    std::atomic<uint64_t> block_fetch_bytes{0};
    std::atomic<uint64_t> bucket_puts{0};
    std::atomic<uint64_t> bucket_fetches{0};
    std::atomic<uint64_t> tasks_launched{0};
    std::atomic<uint64_t> rpc_retries{0};
    std::atomic<uint64_t> rpc_failures{0};
    std::atomic<uint64_t> workers_lost{0};
    std::atomic<uint64_t> worker_restarts{0};
  };

  explicit RemoteExecutorSet(const RemoteExecutorConfig& config);
  ~RemoteExecutorSet();

  RemoteExecutorSet(const RemoteExecutorSet&) = delete;
  RemoteExecutorSet& operator=(const RemoteExecutorSet&) = delete;

  // Spawns every worker and starts the heartbeat monitor. False (with the
  // failing slot's error) if any worker does not come up.
  bool Start(std::string* error = nullptr);

  // Stops the monitor, asks workers to shut down (shutdown message, then
  // lifeline EOF, then SIGKILL after a grace period) and reaps them.
  void Shutdown();

  // Registered before Start; runs on the monitor thread after a loss is
  // declared and before the slot is respawned.
  void set_on_worker_lost(WorkerLostCallback cb) { on_worker_lost_ = std::move(cb); }

  size_t num_workers() const { return workers_.size(); }

  // --- data plane (slot-addressed, blocking, retried) ------------------------

  bool PutBlock(size_t slot, const BlockId& id, uint64_t incarnation,
                uint64_t logical_bytes, std::vector<uint8_t> payload,
                std::string* error = nullptr);
  bool GetBlock(size_t slot, const BlockId& id, std::vector<uint8_t>* payload,
                bool* from_memory = nullptr, std::string* error = nullptr);
  // Fire-and-forget remove (stub destructors); failures are swallowed —
  // worker loss already invalidates everything the remove would touch.
  void ReleaseBlock(size_t slot, const BlockId& id, uint64_t incarnation,
                    bool include_memory, bool include_disk);

  bool PutBucket(size_t slot, int32_t shuffle_id, uint32_t map_part,
                 uint32_t reduce_part, uint64_t incarnation,
                 std::vector<uint8_t> payload, std::string* error = nullptr);
  bool FetchBucket(size_t slot, int32_t shuffle_id, uint32_t map_part,
                   uint32_t reduce_part, std::vector<uint8_t>* payload,
                   std::string* error = nullptr);
  void ReleaseBucket(size_t slot, int32_t shuffle_id, uint32_t map_part,
                     uint32_t reduce_part, uint64_t incarnation);
  // Drops every bucket of a shuffle on one worker (unpersist path).
  void ReleaseShuffle(size_t slot, int32_t shuffle_id);

  // Runs a registered task closure on the worker; blocks for the result.
  bool RunTask(size_t slot, const std::string& closure,
               std::vector<uint8_t> args, TaskResultMsg* result,
               std::string* error = nullptr);

  // Incarnation source for put/remove pairing (never returns 0 — zero means
  // "unguarded" on the wire).
  uint64_t NextIncarnation() { return incarnation_.fetch_add(1) + 1; }

  // --- liveness / telemetry ---------------------------------------------------

  bool WorkerAlive(size_t slot) const;
  int WorkerPid(size_t slot) const;
  uint16_t WorkerPort(size_t slot) const;
  // Stats from the worker's most recent heartbeat ack.
  WorkerStats LastStats(size_t slot) const;
  // Milliseconds since the last successful heartbeat ack.
  double HeartbeatAgeMs(size_t slot) const;
  const Counters& counters() const { return counters_; }

  // Sends `sig` to the worker process (fault injection).
  bool KillWorker(size_t slot, int sig);

  // After teardown starts, stub releases become no-ops (the fleet is going
  // away with all payloads anyway).
  void BeginTeardown() { teardown_.store(true); }
  bool teardown() const { return teardown_.load(std::memory_order_relaxed); }

  // Locates the worker binary: $BLAZE_WORKER_BIN, then blaze_worker beside
  // this executable, then ../tools/blaze_worker and tools/blaze_worker.
  // Empty string when nothing is found.
  static std::string DiscoverWorkerBinary();

 private:
  struct WorkerHandle {
    mutable std::mutex mu;        // guards respawn swaps of the fields below
    pid_t pid = -1;
    uint16_t port = 0;
    int lifeline_fd = -1;         // write end of the child's stdin pipe
    std::shared_ptr<RpcClient> client;     // data-plane pool
    std::shared_ptr<RpcClient> hb_client;  // dedicated heartbeat connection
    std::atomic<bool> alive{false};
    std::atomic<int> missed_heartbeats{0};
    std::atomic<uint64_t> hb_seq{0};
    WorkerStats last_stats;       // guarded by mu
    std::chrono::steady_clock::time_point last_ack;  // guarded by mu
  };

  bool SpawnWorker(size_t slot, std::string* error);
  void ReapWorker(WorkerHandle& handle, bool force_kill);
  void MonitorLoop();
  // One heartbeat round for one slot; returns false on miss.
  bool HeartbeatOnce(size_t slot);
  void HandleWorkerLoss(size_t slot);
  std::shared_ptr<RpcClient> ClientFor(size_t slot) const;
  bool CallWithAck(size_t slot, const std::vector<uint8_t>& request,
                   uint64_t request_id, std::string* error);

  RemoteExecutorConfig config_;
  std::string worker_binary_;
  std::vector<std::unique_ptr<WorkerHandle>> workers_;
  WorkerLostCallback on_worker_lost_;
  Counters counters_;
  std::atomic<uint64_t> incarnation_{0};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> teardown_{false};
  std::thread monitor_;
};

}  // namespace blaze::net

#endif  // SRC_NET_REMOTE_EXECUTOR_H_
