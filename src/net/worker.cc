#include "src/net/worker.h"

#include <poll.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "src/common/logging.h"

namespace blaze::net {

namespace {

template <typename Msg>
std::vector<uint8_t> Reply(MsgType type, const MessageHeader& req, const Msg& msg) {
  return EncodeEnvelope(type, req.request_id, msg);
}

std::vector<uint8_t> ErrorAck(const MessageHeader& req, const std::string& why) {
  AckMsg ack;
  ack.ok = false;
  ack.error = why;
  return Reply(MsgType::kAck, req, ack);
}

// Standard closure set. Registered from a static initializer so every binary
// that links the worker library exposes the same registry.
bool RegisterBuiltinClosures() {
  auto& reg = TaskClosureRegistry::Instance();
  // Liveness probe: echoes its arguments.
  reg.Register("ping", [](Worker&, const TaskLaunchMsg& msg) {
    TaskResultMsg r;
    r.ok = true;
    r.payload = msg.args;
    return r;
  });
  // Sums little-endian u64s — exercises a real remote computation in tests.
  reg.Register("sum_u64", [](Worker&, const TaskLaunchMsg& msg) {
    TaskResultMsg r;
    if (msg.args.size() % 8 != 0) {
      r.error = "sum_u64: args not a multiple of 8 bytes";
      return r;
    }
    uint64_t sum = 0;
    for (size_t i = 0; i < msg.args.size(); i += 8) {
      uint64_t v = 0;
      std::memcpy(&v, msg.args.data() + i, 8);
      sum += v;
    }
    r.ok = true;
    r.payload.resize(8);
    std::memcpy(r.payload.data(), &sum, 8);
    return r;
  });
  // Moves a resident block memory -> worker disk (the coordinator's spill
  // path for remote-held blocks: the bytes never transit back).
  reg.Register("demote_block", [](Worker& w, const TaskLaunchMsg& msg) {
    TaskResultMsg r;
    ByteSource src(msg.args);
    BlockId id;
    if (src.remaining() < 8) {
      r.error = "demote_block: short args";
      return r;
    }
    id.rdd_id = src.ReadPod<uint32_t>();
    id.partition = src.ReadPod<uint32_t>();
    if (!w.DemoteBlock(id)) {
      r.error = "demote_block: " + id.ToString() + " not in memory tier";
      return r;
    }
    r.ok = true;
    return r;
  });
  // Drops a block from both tiers (incarnation-guarded).
  reg.Register("drop_block", [](Worker& w, const TaskLaunchMsg& msg) {
    TaskResultMsg r;
    ByteSource src(msg.args);
    if (src.remaining() < 16) {
      r.error = "drop_block: short args";
      return r;
    }
    BlockRemoveMsg rm;
    rm.id.rdd_id = src.ReadPod<uint32_t>();
    rm.id.partition = src.ReadPod<uint32_t>();
    rm.incarnation = src.ReadPod<uint64_t>();
    rm.include_disk = true;
    const AckMsg ack = w.RemoveBlock(rm);
    r.ok = ack.ok;
    r.error = ack.error;
    return r;
  });
  // Fault drill: dies without unwinding, like a SIGKILL'd executor.
  reg.Register("crash", [](Worker&, const TaskLaunchMsg&) -> TaskResultMsg {
    std::abort();
  });
  return true;
}

const bool kBuiltinsRegistered = RegisterBuiltinClosures();

}  // namespace

TaskClosureRegistry& TaskClosureRegistry::Instance() {
  static TaskClosureRegistry* instance = new TaskClosureRegistry();
  return *instance;
}

void TaskClosureRegistry::Register(const std::string& name, Closure fn) {
  std::lock_guard<std::mutex> lock(mu_);
  closures_[name] = std::move(fn);
}

const TaskClosureRegistry::Closure* TaskClosureRegistry::Lookup(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = closures_.find(name);
  return it == closures_.end() ? nullptr : &it->second;
}

std::vector<std::string> TaskClosureRegistry::Names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  for (const auto& [name, fn] : closures_) {
    names.push_back(name);
  }
  return names;
}

Worker::Worker(const WorkerConfig& config) : config_(config) {
  (void)kBuiltinsRegistered;
  BlockManagerConfig bm_config;
  bm_config.memory_capacity_bytes = config_.memory_capacity_bytes;
  if (config_.disk_dir.empty()) {
    owned_disk_dir_ = std::filesystem::temp_directory_path() /
                      ("blaze_worker_" + std::to_string(::getpid()) + "_" +
                       std::to_string(config_.slot));
    bm_config.disk_dir = owned_disk_dir_;
  } else {
    bm_config.disk_dir = config_.disk_dir;
  }
  bm_config.disk_throughput_bytes_per_sec = config_.disk_throughput_bytes_per_sec;
  bm_ = std::make_unique<BlockManager>(config_.slot, bm_config, &metrics_);
}

Worker::~Worker() { Stop(); }

bool Worker::Start(std::string* error) {
  server_ = std::make_unique<RpcServer>(
      config_.port, [this](const MessageHeader& header, ByteSource& body) {
        return Handle(header, body);
      });
  return server_->Start(error);
}

void Worker::Stop() {
  if (server_) {
    server_->Stop();
    server_.reset();
  }
}

std::vector<uint8_t> Worker::Handle(const MessageHeader& header, ByteSource& body) {
  switch (header.type) {
    case MsgType::kBlockPut: {
      auto msg = BlockPutMsg::Decode(body);
      if (!msg) return {};
      return Reply(MsgType::kAck, header, PutBlock(std::move(*msg)));
    }
    case MsgType::kBlockGet: {
      auto msg = BlockGetMsg::Decode(body);
      if (!msg) return {};
      return Reply(MsgType::kBlockGetResp, header, GetBlock(*msg));
    }
    case MsgType::kBlockRemove: {
      auto msg = BlockRemoveMsg::Decode(body);
      if (!msg) return {};
      return Reply(MsgType::kAck, header, RemoveBlock(*msg));
    }
    case MsgType::kBucketPut: {
      auto msg = BucketPutMsg::Decode(body);
      if (!msg) return {};
      return Reply(MsgType::kAck, header, PutBucket(std::move(*msg)));
    }
    case MsgType::kBucketFetch: {
      auto msg = BucketFetchMsg::Decode(body);
      if (!msg) return {};
      return Reply(MsgType::kBucketFetchResp, header, FetchBucket(*msg));
    }
    case MsgType::kBucketRemove: {
      auto msg = BucketRemoveMsg::Decode(body);
      if (!msg) return {};
      return Reply(MsgType::kAck, header, RemoveBucket(*msg));
    }
    case MsgType::kTaskLaunch: {
      auto msg = TaskLaunchMsg::Decode(body);
      if (!msg) return {};
      return Reply(MsgType::kTaskResult, header, RunTask(*msg));
    }
    case MsgType::kHeartbeat: {
      auto msg = HeartbeatMsg::Decode(body);
      if (!msg) return {};
      HeartbeatAckMsg ack;
      ack.seq = msg->seq;
      ack.stats = Stats();
      return Reply(MsgType::kHeartbeatAck, header, ack);
    }
    case MsgType::kShutdown: {
      shutdown_.store(true);
      return Reply(MsgType::kAck, header, AckMsg{});
    }
    default:
      return ErrorAck(header, std::string("unexpected message: ") +
                                  MsgTypeName(header.type));
  }
}

TaskResultMsg Worker::RunTask(const TaskLaunchMsg& msg) {
  const auto* closure = TaskClosureRegistry::Instance().Lookup(msg.closure);
  TaskResultMsg result;
  if (closure == nullptr) {
    result.error = "unknown task closure: " + msg.closure;
    return result;
  }
  inflight_tasks_.fetch_add(1);
  result = (*closure)(*this, msg);
  inflight_tasks_.fetch_sub(1);
  tasks_executed_.fetch_add(1);
  return result;
}

AckMsg Worker::PutBlock(BlockPutMsg msg) {
  std::lock_guard<std::mutex> lock(admission_mu_);
  const uint64_t bytes = msg.payload.size();
  auto block = std::make_shared<EncodedPayloadBlock>(std::move(msg.payload), 0);
  // Replace semantics: drop any previous incarnation from both tiers first so
  // stale disk bytes cannot shadow the new payload.
  bm_->CancelSpill(msg.id);
  bm_->memory().Remove(msg.id);
  bm_->RemoveFromDisk(msg.id);
  incarnations_[msg.id] = msg.incarnation;
  if (!bm_->memory().TryPut(msg.id, block, bytes)) {
    MakeRoom(bytes);
    if (!bm_->memory().TryPut(msg.id, block, bytes)) {
      // Memory tier cannot hold it even after demotion: land it on worker
      // disk directly. It stays addressable (GetBlock falls through to disk).
      bm_->SpillToDisk(msg.id, *block);
    }
  }
  return AckMsg{};
}

void Worker::MakeRoom(uint64_t needed) {
  while (bm_->memory().free_bytes() < needed) {
    const auto entries = bm_->memory().Entries();
    const MemoryEntry* victim = nullptr;
    for (const auto& e : entries) {
      if (e.pins > 0) {
        continue;
      }
      if (victim == nullptr || e.last_access_seq < victim->last_access_seq) {
        victim = &e;
      }
    }
    if (victim == nullptr) {
      return;  // nothing demotable; caller falls back to direct disk write
    }
    if (!bm_->SpillAsync(victim->id, victim->data)) {
      bm_->SpillToDisk(victim->id, *victim->data);
    }
    bm_->memory().Remove(victim->id);
  }
}

BlockGetRespMsg Worker::GetBlock(const BlockGetMsg& msg) {
  BlockGetRespMsg resp;
  auto serve = [&resp](const BlockPtr& block, bool from_memory) {
    const auto* payload = dynamic_cast<const EncodedPayloadBlock*>(block.get());
    BLAZE_CHECK(payload != nullptr) << "worker memory tier holds a non-payload block";
    resp.found = true;
    resp.from_memory = from_memory;
    resp.payload = payload->bytes();
  };
  if (auto hit = bm_->memory().Get(msg.id)) {
    serve(*hit, /*from_memory=*/true);
    return resp;
  }
  // Demoted but the disk write has not committed: the spill queue still has
  // the in-memory payload (same read-through the coordinator tiers use).
  if (auto in_flight = bm_->InFlightSpill(msg.id)) {
    serve(*in_flight, /*from_memory=*/true);
    return resp;
  }
  double disk_ms = 0.0;
  if (auto bytes = bm_->ReadFromDisk(msg.id, &disk_ms)) {
    resp.found = true;
    resp.from_memory = false;
    resp.payload = std::move(*bytes);
  }
  return resp;
}

AckMsg Worker::RemoveBlock(const BlockRemoveMsg& msg) {
  std::lock_guard<std::mutex> lock(admission_mu_);
  const auto it = incarnations_.find(msg.id);
  if (it == incarnations_.end()) {
    return AckMsg{};  // already gone — removes are idempotent
  }
  if (msg.incarnation != 0 && it->second != msg.incarnation) {
    // A stale release for an earlier incarnation must not touch the payload
    // that replaced it.
    return AckMsg{};
  }
  if (msg.include_memory) {
    bm_->CancelSpill(msg.id);
    bm_->memory().Remove(msg.id);
  }
  if (msg.include_disk) {
    bm_->RemoveFromDisk(msg.id);
  }
  if (msg.include_memory && msg.include_disk) {
    incarnations_.erase(it);
  }
  return AckMsg{};
}

bool Worker::DemoteBlock(const BlockId& id) {
  std::lock_guard<std::mutex> lock(admission_mu_);
  const auto resident = bm_->memory().Peek(id);
  if (!resident.has_value()) {
    // MakeRoom may have demoted it under memory pressure before the
    // coordinator's eviction asked to: already where the caller wants it.
    return bm_->InFlightSpill(id).has_value() || bm_->disk().Contains(id);
  }
  if (!bm_->SpillAsync(id, *resident)) {
    bm_->SpillToDisk(id, **resident);
  }
  bm_->memory().Remove(id);
  return true;
}

AckMsg Worker::PutBucket(BucketPutMsg msg) {
  const BucketKey key{msg.shuffle_id, msg.map_part, msg.reduce_part};
  const uint64_t bytes = msg.payload.size();
  std::lock_guard<std::mutex> lock(bucket_mu_);
  auto& entry = buckets_[key];
  // Shuffle bytes are execution-class in the unified ledger, exactly as the
  // coordinator's ShuffleService charges its arbiters.
  if (!entry.payload.empty() || entry.incarnation != 0) {
    bm_->arbiter().ReleaseExecution(entry.payload.size());
    bucket_bytes_.fetch_sub(entry.payload.size());
  }
  bm_->arbiter().ReserveExecution(bytes);
  bucket_bytes_.fetch_add(bytes);
  entry.payload = std::move(msg.payload);
  entry.incarnation = msg.incarnation;
  return AckMsg{};
}

BucketFetchRespMsg Worker::FetchBucket(const BucketFetchMsg& msg) {
  const BucketKey key{msg.shuffle_id, msg.map_part, msg.reduce_part};
  BucketFetchRespMsg resp;
  std::lock_guard<std::mutex> lock(bucket_mu_);
  const auto it = buckets_.find(key);
  if (it != buckets_.end()) {
    resp.found = true;
    resp.payload = it->second.payload;
  }
  return resp;
}

AckMsg Worker::RemoveBucket(const BucketRemoveMsg& msg) {
  std::lock_guard<std::mutex> lock(bucket_mu_);
  auto drop = [this](std::map<BucketKey, BucketEntry>::iterator it) {
    bm_->arbiter().ReleaseExecution(it->second.payload.size());
    bucket_bytes_.fetch_sub(it->second.payload.size());
    buckets_.erase(it);
  };
  if (msg.all) {
    for (auto it = buckets_.begin(); it != buckets_.end();) {
      if (it->first.shuffle_id == msg.shuffle_id) {
        auto victim = it++;
        drop(victim);
      } else {
        ++it;
      }
    }
    return AckMsg{};
  }
  const BucketKey key{msg.shuffle_id, msg.map_part, msg.reduce_part};
  const auto it = buckets_.find(key);
  if (it != buckets_.end() &&
      (msg.incarnation == 0 || it->second.incarnation == msg.incarnation)) {
    drop(it);
  }
  return AckMsg{};
}

WorkerStats Worker::Stats() {
  WorkerStats stats;
  stats.pid = static_cast<int32_t>(::getpid());
  stats.live_bytes = bm_->memory().used_bytes();
  stats.disk_bytes = bm_->disk().used_bytes();
  stats.block_count = bm_->memory().Entries().size() + bm_->disk().num_blocks();
  stats.pinned_blocks = bm_->memory().PinnedBlocks();
  {
    std::lock_guard<std::mutex> lock(bucket_mu_);
    stats.bucket_count = buckets_.size();
  }
  stats.bucket_bytes = bucket_bytes_.load();
  stats.inflight_tasks = inflight_tasks_.load();
  stats.tasks_executed = tasks_executed_.load();
  return stats;
}

int WorkerMain(int argc, char** argv) {
  WorkerConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&arg](const char* prefix) -> std::optional<std::string> {
      const size_t n = std::strlen(prefix);
      if (arg.compare(0, n, prefix) == 0) {
        return arg.substr(n);
      }
      return std::nullopt;
    };
    if (auto v = value("--port=")) {
      config.port = static_cast<uint16_t>(std::stoul(*v));
    } else if (auto v = value("--slot=")) {
      config.slot = std::stoul(*v);
    } else if (auto v = value("--mem=")) {
      config.memory_capacity_bytes = std::stoull(*v);
    } else if (auto v = value("--disk-dir=")) {
      config.disk_dir = *v;
    } else if (auto v = value("--disk-bps=")) {
      config.disk_throughput_bytes_per_sec = std::stoull(*v);
    } else {
      std::fprintf(stderr, "blaze_worker: unknown flag %s\n", arg.c_str());
      return 2;
    }
  }

  Worker worker(config);
  std::string error;
  if (!worker.Start(&error)) {
    std::fprintf(stderr, "blaze_worker: start failed: %s\n", error.c_str());
    return 1;
  }
  // Handshake line the coordinator's spawn path parses for the bound port.
  std::printf("BLAZE_WORKER_PORT %u\n", worker.port());
  std::fflush(stdout);

  // Lifeline: block until stdin (a pipe whose write end the coordinator
  // holds) reaches EOF — coordinator death tears the worker down even if no
  // shutdown message ever arrives — or a kShutdown request lands.
  for (;;) {
    if (worker.shutdown_requested()) {
      break;
    }
    pollfd pfd{};
    pfd.fd = STDIN_FILENO;
    pfd.events = POLLIN;
    const int n = ::poll(&pfd, 1, /*timeout_ms=*/200);
    if (n < 0 && errno != EINTR) {
      break;
    }
    if (n > 0 && (pfd.revents & (POLLIN | POLLHUP | POLLERR))) {
      char buf[256];
      const ssize_t got = ::read(STDIN_FILENO, buf, sizeof(buf));
      if (got <= 0) {
        break;  // EOF: the coordinator is gone
      }
    }
  }
  worker.Stop();
  return 0;
}

}  // namespace blaze::net
