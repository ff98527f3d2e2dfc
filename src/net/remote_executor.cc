#include "src/net/remote_executor.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "src/common/logging.h"

namespace blaze::net {

namespace {

// Reads the child's "BLAZE_WORKER_PORT <p>\n" announcement with a deadline.
bool ReadPortAnnouncement(int fd, uint16_t* port, int timeout_ms, std::string* error) {
  std::string line;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) {
      if (error != nullptr) *error = "worker handshake timeout";
      return false;
    }
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLIN;
    const int remaining = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now).count());
    const int n = ::poll(&pfd, 1, std::max(1, remaining));
    if (n < 0) {
      if (errno == EINTR) continue;
      if (error != nullptr) *error = std::string("poll: ") + std::strerror(errno);
      return false;
    }
    if (n == 0) continue;
    char c = 0;
    const ssize_t got = ::read(fd, &c, 1);
    if (got <= 0) {
      if (error != nullptr) *error = "worker exited before handshake";
      return false;
    }
    if (c == '\n') {
      unsigned parsed = 0;
      if (std::sscanf(line.c_str(), "BLAZE_WORKER_PORT %u", &parsed) == 1 &&
          parsed > 0 && parsed <= 65535) {
        *port = static_cast<uint16_t>(parsed);
        return true;
      }
      line.clear();  // skip unrelated output lines
      continue;
    }
    line.push_back(c);
  }
}

}  // namespace

std::string RemoteExecutorSet::DiscoverWorkerBinary() {
  if (const char* env = std::getenv("BLAZE_WORKER_BIN");
      env != nullptr && *env != '\0') {
    return env;
  }
  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::path exe = fs::read_symlink("/proc/self/exe", ec);
  std::vector<fs::path> candidates;
  if (!ec) {
    const fs::path dir = exe.parent_path();
    candidates.push_back(dir / "blaze_worker");
    candidates.push_back(dir / ".." / "tools" / "blaze_worker");
    candidates.push_back(dir / "tools" / "blaze_worker");
  }
  candidates.push_back("tools/blaze_worker");
  for (const auto& candidate : candidates) {
    if (fs::exists(candidate, ec) && !ec) {
      return fs::absolute(candidate, ec).string();
    }
  }
  return "";
}

RemoteExecutorSet::RemoteExecutorSet(const RemoteExecutorConfig& config)
    : config_(config) {
  workers_.reserve(config_.num_workers);
  for (size_t i = 0; i < config_.num_workers; ++i) {
    workers_.push_back(std::make_unique<WorkerHandle>());
  }
}

RemoteExecutorSet::~RemoteExecutorSet() { Shutdown(); }

bool RemoteExecutorSet::Start(std::string* error) {
  worker_binary_ = config_.worker_binary.empty() ? DiscoverWorkerBinary()
                                                 : config_.worker_binary;
  if (worker_binary_.empty()) {
    if (error != nullptr) {
      *error = "blaze_worker binary not found (set BLAZE_WORKER_BIN)";
    }
    return false;
  }
  for (size_t slot = 0; slot < workers_.size(); ++slot) {
    if (!SpawnWorker(slot, error)) {
      Shutdown();
      return false;
    }
  }
  monitor_ = std::thread([this] { MonitorLoop(); });
  return true;
}

bool RemoteExecutorSet::SpawnWorker(size_t slot, std::string* error) {
  WorkerHandle& handle = *workers_[slot];
  int stdin_pipe[2];   // coordinator writes -> worker stdin (lifeline)
  int stdout_pipe[2];  // worker stdout -> coordinator (handshake)
  if (::pipe(stdin_pipe) != 0 || ::pipe(stdout_pipe) != 0) {
    if (error != nullptr) *error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }

  const std::string slot_arg = "--slot=" + std::to_string(slot);
  const std::string mem_arg = "--mem=" + std::to_string(config_.worker_memory_bytes);
  const std::string bps_arg =
      "--disk-bps=" + std::to_string(config_.disk_throughput_bytes_per_sec);

  const pid_t pid = ::fork();
  if (pid < 0) {
    if (error != nullptr) *error = std::string("fork: ") + std::strerror(errno);
    ::close(stdin_pipe[0]); ::close(stdin_pipe[1]);
    ::close(stdout_pipe[0]); ::close(stdout_pipe[1]);
    return false;
  }
  if (pid == 0) {
    // Child: wire the pipes and exec immediately (this process has threads;
    // only async-signal-safe calls are legal between fork and exec).
    ::dup2(stdin_pipe[0], STDIN_FILENO);
    ::dup2(stdout_pipe[1], STDOUT_FILENO);
    ::close(stdin_pipe[0]); ::close(stdin_pipe[1]);
    ::close(stdout_pipe[0]); ::close(stdout_pipe[1]);
    ::execl(worker_binary_.c_str(), worker_binary_.c_str(), slot_arg.c_str(),
            mem_arg.c_str(), bps_arg.c_str(), static_cast<char*>(nullptr));
    const char msg[] = "blaze_worker: exec failed\n";
    ::write(STDERR_FILENO, msg, sizeof(msg) - 1);
    ::_exit(127);
  }

  ::close(stdin_pipe[0]);
  ::close(stdout_pipe[1]);
  uint16_t port = 0;
  std::string handshake_error;
  if (!ReadPortAnnouncement(stdout_pipe[0], &port, /*timeout_ms=*/10000,
                            &handshake_error)) {
    if (error != nullptr) {
      *error = "worker " + std::to_string(slot) + ": " + handshake_error;
    }
    ::close(stdin_pipe[1]);
    ::close(stdout_pipe[0]);
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
    return false;
  }
  // The handshake pipe has served its purpose; worker logs go to stderr.
  ::close(stdout_pipe[0]);

  auto client = std::make_shared<RpcClient>(port, /*pool_size=*/4, config_.rpc_timeout_ms);
  client->set_on_retry([this] { counters_.rpc_retries.fetch_add(1); });
  auto hb_client = std::make_shared<RpcClient>(
      port, /*pool_size=*/1,
      std::max(100, config_.heartbeat_interval_ms * 2));

  std::lock_guard<std::mutex> lock(handle.mu);
  handle.pid = pid;
  handle.port = port;
  handle.lifeline_fd = stdin_pipe[1];
  handle.client = std::move(client);
  handle.hb_client = std::move(hb_client);
  handle.missed_heartbeats.store(0);
  handle.last_ack = std::chrono::steady_clock::now();
  handle.alive.store(true);
  return true;
}

void RemoteExecutorSet::ReapWorker(WorkerHandle& handle, bool force_kill) {
  pid_t pid = -1;
  int lifeline = -1;
  {
    std::lock_guard<std::mutex> lock(handle.mu);
    pid = handle.pid;
    lifeline = handle.lifeline_fd;
    handle.pid = -1;
    handle.lifeline_fd = -1;
    handle.alive.store(false);
    if (handle.client) handle.client->MarkDown();
    if (handle.hb_client) handle.hb_client->MarkDown();
  }
  if (lifeline >= 0) {
    ::close(lifeline);  // EOF on the worker's stdin: its main loop exits
  }
  if (pid <= 0) {
    return;
  }
  // Grace period for a clean exit, then force.
  for (int i = 0; i < 20; ++i) {
    if (::waitpid(pid, nullptr, WNOHANG) != 0) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  if (force_kill) {
    ::kill(pid, SIGKILL);
  }
  ::waitpid(pid, nullptr, 0);
}

void RemoteExecutorSet::Shutdown() {
  if (stopping_.exchange(true)) {
    return;
  }
  teardown_.store(true);
  if (monitor_.joinable()) {
    monitor_.join();
  }
  for (size_t slot = 0; slot < workers_.size(); ++slot) {
    WorkerHandle& handle = *workers_[slot];
    if (handle.alive.load()) {
      // Best-effort clean shutdown request before the lifeline close.
      const uint64_t request_id = 1;
      const auto request =
          EncodeEnvelope(MsgType::kShutdown, request_id, AckMsg{});
      std::vector<uint8_t> response;
      if (auto client = ClientFor(slot)) {
        client->Call(request, &response, nullptr, /*attempts=*/1);
      }
    }
    ReapWorker(handle, /*force_kill=*/true);
  }
}

void RemoteExecutorSet::MonitorLoop() {
  while (!stopping_.load()) {
    for (size_t slot = 0; slot < workers_.size() && !stopping_.load(); ++slot) {
      WorkerHandle& handle = *workers_[slot];
      if (!handle.alive.load()) {
        continue;
      }
      // A reaped child is a definitive loss — no need to wait out the
      // heartbeat miss budget.
      pid_t pid;
      {
        std::lock_guard<std::mutex> lock(handle.mu);
        pid = handle.pid;
      }
      bool dead = false;
      if (pid > 0 && ::waitpid(pid, nullptr, WNOHANG) == pid) {
        std::lock_guard<std::mutex> lock(handle.mu);
        // Retire pid and alive together: observers must never see a live
        // worker with no pid (the loss handler hasn't respawned yet).
        handle.pid = -1;  // already reaped
        handle.alive.store(false);
        dead = true;
      }
      if (!dead && !HeartbeatOnce(slot)) {
        dead = handle.missed_heartbeats.fetch_add(1) + 1 >=
               config_.heartbeat_miss_limit;
      }
      if (dead) {
        HandleWorkerLoss(slot);
      }
    }
    std::this_thread::sleep_for(
        std::chrono::milliseconds(config_.heartbeat_interval_ms));
  }
}

bool RemoteExecutorSet::HeartbeatOnce(size_t slot) {
  WorkerHandle& handle = *workers_[slot];
  std::shared_ptr<RpcClient> hb;
  {
    std::lock_guard<std::mutex> lock(handle.mu);
    hb = handle.hb_client;
  }
  if (!hb) {
    return false;
  }
  HeartbeatMsg msg;
  msg.seq = handle.hb_seq.fetch_add(1) + 1;
  const uint64_t request_id = msg.seq;
  const auto request = EncodeEnvelope(MsgType::kHeartbeat, request_id, msg);
  std::vector<uint8_t> response;
  if (!hb->Call(request, &response, nullptr, /*attempts=*/1)) {
    return false;
  }
  ByteSource body(response);
  const auto header = DecodeResponseHeader(response, request_id, &body);
  if (!header.has_value() || header->type != MsgType::kHeartbeatAck) {
    return false;
  }
  const auto ack = HeartbeatAckMsg::Decode(body);
  if (!ack.has_value() || ack->seq != msg.seq) {
    return false;
  }
  std::lock_guard<std::mutex> lock(handle.mu);
  handle.last_stats = ack->stats;
  handle.last_ack = std::chrono::steady_clock::now();
  handle.missed_heartbeats.store(0);
  return true;
}

void RemoteExecutorSet::HandleWorkerLoss(size_t slot) {
  WorkerHandle& handle = *workers_[slot];
  BLAZE_LOG(kWarn) << "worker " << slot << " (pid " << handle.pid
                   << ") lost: heartbeat timeout";
  counters_.workers_lost.fetch_add(1);
  ReapWorker(handle, /*force_kill=*/true);
  if (on_worker_lost_) {
    on_worker_lost_(slot);
  }
  if (config_.respawn_lost_workers && !stopping_.load()) {
    std::string spawn_error;
    if (SpawnWorker(slot, &spawn_error)) {
      counters_.worker_restarts.fetch_add(1);
      BLAZE_LOG(kInfo) << "worker " << slot << " respawned on port "
                       << WorkerPort(slot);
    } else {
      BLAZE_LOG(kError) << "worker " << slot
                        << " respawn failed: " << spawn_error;
    }
  }
}

std::shared_ptr<RpcClient> RemoteExecutorSet::ClientFor(size_t slot) const {
  if (slot >= workers_.size()) {
    return nullptr;
  }
  std::lock_guard<std::mutex> lock(workers_[slot]->mu);
  return workers_[slot]->client;
}

bool RemoteExecutorSet::CallWithAck(size_t slot,
                                    const std::vector<uint8_t>& request,
                                    uint64_t request_id, std::string* error) {
  auto client = ClientFor(slot);
  if (!client) {
    if (error != nullptr) *error = "no such worker slot";
    return false;
  }
  std::vector<uint8_t> response;
  if (!client->Call(request, &response, error)) {
    counters_.rpc_failures.fetch_add(1);
    return false;
  }
  ByteSource body(response);
  const auto header = DecodeResponseHeader(response, request_id, &body);
  if (!header.has_value() || header->type != MsgType::kAck) {
    if (error != nullptr) *error = "bad ack envelope";
    counters_.rpc_failures.fetch_add(1);
    return false;
  }
  const auto ack = AckMsg::Decode(body);
  if (!ack.has_value() || !ack->ok) {
    if (error != nullptr) {
      *error = ack.has_value() ? ack->error : "undecodable ack";
    }
    counters_.rpc_failures.fetch_add(1);
    return false;
  }
  return true;
}

bool RemoteExecutorSet::PutBlock(size_t slot, const BlockId& id,
                                 uint64_t incarnation, uint64_t logical_bytes,
                                 std::vector<uint8_t> payload,
                                 std::string* error) {
  auto client = ClientFor(slot);
  if (!client) {
    if (error != nullptr) *error = "no such worker slot";
    return false;
  }
  BlockPutMsg msg;
  msg.id = id;
  msg.incarnation = incarnation;
  msg.logical_bytes = logical_bytes;
  msg.payload = std::move(payload);
  const uint64_t bytes = msg.payload.size();
  const uint64_t request_id = client->NextRequestId();
  if (!CallWithAck(slot, EncodeEnvelope(MsgType::kBlockPut, request_id, msg),
                   request_id, error)) {
    return false;
  }
  counters_.block_puts.fetch_add(1);
  counters_.block_put_bytes.fetch_add(bytes);
  return true;
}

bool RemoteExecutorSet::GetBlock(size_t slot, const BlockId& id,
                                 std::vector<uint8_t>* payload,
                                 bool* from_memory, std::string* error) {
  auto client = ClientFor(slot);
  if (!client) {
    if (error != nullptr) *error = "no such worker slot";
    return false;
  }
  BlockGetMsg msg;
  msg.id = id;
  const uint64_t request_id = client->NextRequestId();
  const auto request = EncodeEnvelope(MsgType::kBlockGet, request_id, msg);
  std::vector<uint8_t> response;
  if (!client->Call(request, &response, error)) {
    counters_.rpc_failures.fetch_add(1);
    return false;
  }
  ByteSource body(response);
  const auto header = DecodeResponseHeader(response, request_id, &body);
  if (!header.has_value() || header->type != MsgType::kBlockGetResp) {
    if (error != nullptr) *error = "bad block_get envelope";
    counters_.rpc_failures.fetch_add(1);
    return false;
  }
  auto resp = BlockGetRespMsg::Decode(body);
  if (!resp.has_value()) {
    if (error != nullptr) *error = "undecodable block_get response";
    counters_.rpc_failures.fetch_add(1);
    return false;
  }
  if (!resp->found) {
    if (error != nullptr) *error = "block " + id.ToString() + " not on worker";
    return false;
  }
  counters_.block_fetches.fetch_add(1);
  counters_.block_fetch_bytes.fetch_add(resp->payload.size());
  *payload = std::move(resp->payload);
  if (from_memory != nullptr) {
    *from_memory = resp->from_memory;
  }
  return true;
}

void RemoteExecutorSet::ReleaseBlock(size_t slot, const BlockId& id,
                                     uint64_t incarnation, bool include_memory,
                                     bool include_disk) {
  if (teardown()) {
    return;  // the fleet is being torn down with every payload in it
  }
  auto client = ClientFor(slot);
  if (!client) {
    return;
  }
  BlockRemoveMsg msg;
  msg.id = id;
  msg.incarnation = incarnation;
  msg.include_memory = include_memory;
  msg.include_disk = include_disk;
  const uint64_t request_id = client->NextRequestId();
  CallWithAck(slot, EncodeEnvelope(MsgType::kBlockRemove, request_id, msg),
              request_id, nullptr);
}

bool RemoteExecutorSet::PutBucket(size_t slot, int32_t shuffle_id,
                                  uint32_t map_part, uint32_t reduce_part,
                                  uint64_t incarnation,
                                  std::vector<uint8_t> payload,
                                  std::string* error) {
  auto client = ClientFor(slot);
  if (!client) {
    if (error != nullptr) *error = "no such worker slot";
    return false;
  }
  BucketPutMsg msg;
  msg.shuffle_id = shuffle_id;
  msg.map_part = map_part;
  msg.reduce_part = reduce_part;
  msg.incarnation = incarnation;
  msg.payload = std::move(payload);
  const uint64_t request_id = client->NextRequestId();
  if (!CallWithAck(slot, EncodeEnvelope(MsgType::kBucketPut, request_id, msg),
                   request_id, error)) {
    return false;
  }
  counters_.bucket_puts.fetch_add(1);
  return true;
}

bool RemoteExecutorSet::FetchBucket(size_t slot, int32_t shuffle_id,
                                    uint32_t map_part, uint32_t reduce_part,
                                    std::vector<uint8_t>* payload,
                                    std::string* error) {
  auto client = ClientFor(slot);
  if (!client) {
    if (error != nullptr) *error = "no such worker slot";
    return false;
  }
  BucketFetchMsg msg;
  msg.shuffle_id = shuffle_id;
  msg.map_part = map_part;
  msg.reduce_part = reduce_part;
  const uint64_t request_id = client->NextRequestId();
  const auto request = EncodeEnvelope(MsgType::kBucketFetch, request_id, msg);
  std::vector<uint8_t> response;
  if (!client->Call(request, &response, error)) {
    counters_.rpc_failures.fetch_add(1);
    return false;
  }
  ByteSource body(response);
  const auto header = DecodeResponseHeader(response, request_id, &body);
  if (!header.has_value() || header->type != MsgType::kBucketFetchResp) {
    if (error != nullptr) *error = "bad bucket_fetch envelope";
    counters_.rpc_failures.fetch_add(1);
    return false;
  }
  auto resp = BucketFetchRespMsg::Decode(body);
  if (!resp.has_value() || !resp->found) {
    if (error != nullptr) *error = "bucket not on worker";
    return false;
  }
  counters_.bucket_fetches.fetch_add(1);
  *payload = std::move(resp->payload);
  return true;
}

void RemoteExecutorSet::ReleaseBucket(size_t slot, int32_t shuffle_id,
                                      uint32_t map_part, uint32_t reduce_part,
                                      uint64_t incarnation) {
  if (teardown()) {
    return;
  }
  auto client = ClientFor(slot);
  if (!client) {
    return;
  }
  BucketRemoveMsg msg;
  msg.shuffle_id = shuffle_id;
  msg.map_part = map_part;
  msg.reduce_part = reduce_part;
  msg.incarnation = incarnation;
  const uint64_t request_id = client->NextRequestId();
  CallWithAck(slot, EncodeEnvelope(MsgType::kBucketRemove, request_id, msg),
              request_id, nullptr);
}

void RemoteExecutorSet::ReleaseShuffle(size_t slot, int32_t shuffle_id) {
  if (teardown()) {
    return;
  }
  auto client = ClientFor(slot);
  if (!client) {
    return;
  }
  BucketRemoveMsg msg;
  msg.shuffle_id = shuffle_id;
  msg.all = true;
  const uint64_t request_id = client->NextRequestId();
  CallWithAck(slot, EncodeEnvelope(MsgType::kBucketRemove, request_id, msg),
              request_id, nullptr);
}

bool RemoteExecutorSet::RunTask(size_t slot, const std::string& closure,
                                std::vector<uint8_t> args, TaskResultMsg* result,
                                std::string* error) {
  auto client = ClientFor(slot);
  if (!client) {
    if (error != nullptr) *error = "no such worker slot";
    return false;
  }
  TaskLaunchMsg msg;
  msg.closure = closure;
  msg.args = std::move(args);
  const uint64_t request_id = client->NextRequestId();
  const auto request = EncodeEnvelope(MsgType::kTaskLaunch, request_id, msg);
  std::vector<uint8_t> response;
  if (!client->Call(request, &response, error)) {
    counters_.rpc_failures.fetch_add(1);
    return false;
  }
  ByteSource body(response);
  const auto header = DecodeResponseHeader(response, request_id, &body);
  if (!header.has_value() || header->type != MsgType::kTaskResult) {
    if (error != nullptr) *error = "bad task_result envelope";
    counters_.rpc_failures.fetch_add(1);
    return false;
  }
  auto decoded = TaskResultMsg::Decode(body);
  if (!decoded.has_value()) {
    if (error != nullptr) *error = "undecodable task result";
    counters_.rpc_failures.fetch_add(1);
    return false;
  }
  counters_.tasks_launched.fetch_add(1);
  *result = std::move(*decoded);
  return true;
}

bool RemoteExecutorSet::WorkerAlive(size_t slot) const {
  return slot < workers_.size() && workers_[slot]->alive.load();
}

int RemoteExecutorSet::WorkerPid(size_t slot) const {
  if (slot >= workers_.size()) {
    return -1;
  }
  std::lock_guard<std::mutex> lock(workers_[slot]->mu);
  return workers_[slot]->pid;
}

uint16_t RemoteExecutorSet::WorkerPort(size_t slot) const {
  if (slot >= workers_.size()) {
    return 0;
  }
  std::lock_guard<std::mutex> lock(workers_[slot]->mu);
  return workers_[slot]->port;
}

WorkerStats RemoteExecutorSet::LastStats(size_t slot) const {
  if (slot >= workers_.size()) {
    return {};
  }
  std::lock_guard<std::mutex> lock(workers_[slot]->mu);
  return workers_[slot]->last_stats;
}

double RemoteExecutorSet::HeartbeatAgeMs(size_t slot) const {
  if (slot >= workers_.size()) {
    return 0.0;
  }
  std::lock_guard<std::mutex> lock(workers_[slot]->mu);
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - workers_[slot]->last_ack)
      .count();
}

bool RemoteExecutorSet::KillWorker(size_t slot, int sig) {
  const int pid = WorkerPid(slot);
  if (pid <= 0) {
    return false;
  }
  return ::kill(pid, sig) == 0;
}

}  // namespace blaze::net
