#include "src/storage/spill_queue.h"

#include <utility>

#include "src/common/logging.h"
#include "src/common/stopwatch.h"
#include "src/metrics/run_metrics.h"
#include "src/storage/block_manager.h"

namespace blaze {

SpillQueue::SpillQueue(BlockManager* bm, size_t max_depth, RunMetrics* metrics)
    : bm_(bm), metrics_(metrics), max_depth_(max_depth == 0 ? 1 : max_depth) {
  worker_ = std::thread([this] { WorkerLoop(); });
}

SpillQueue::~SpillQueue() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  if (worker_.joinable()) {
    worker_.join();
  }
}

bool SpillQueue::EnqueueSpill(const BlockId& id, BlockPtr data) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) {
      return false;
    }
    auto it = spills_.find(id);
    if (it != spills_.end()) {
      if (it->second.state == SpillState::kWriting) {
        // Two writers of one file would interleave; let the caller serialize
        // by falling back to the sync path after the in-flight write lands.
        return false;
      }
      // Still queued: only the latest payload matters.
      pending_spill_bytes_ -= it->second.data->SizeBytes();
      pending_spill_bytes_ += data->SizeBytes();
      it->second.data = std::move(data);
      it->second.cancelled = false;
      return true;
    }
    if (queue_.size() >= max_depth_) {
      if (metrics_ != nullptr) {
        metrics_->RecordSpillQueueReject();
      }
      return false;
    }
    pending_spill_bytes_ += data->SizeBytes();
    spills_.emplace(id, InFlight{std::move(data), SpillState::kQueued, false});
    queue_.push_back(WorkItem{/*is_fetch=*/false, id});
    if (metrics_ != nullptr) {
      metrics_->RecordSpillQueueDepth(queue_.size());
    }
  }
  work_cv_.notify_one();
  return true;
}

bool SpillQueue::EnqueueFetch(const BlockId& id, FetchCallback on_loaded) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) {
      return false;
    }
    auto it = fetches_.find(id);
    if (it != fetches_.end()) {
      // A read of this id is already scheduled: coalesce onto it.
      it->second.push_back(std::move(on_loaded));
      return true;
    }
    if (queue_.size() >= max_depth_) {
      if (metrics_ != nullptr) {
        metrics_->RecordSpillQueueReject();
      }
      return false;
    }
    fetches_[id].push_back(std::move(on_loaded));
    queue_.push_back(WorkItem{/*is_fetch=*/true, id});
    if (metrics_ != nullptr) {
      metrics_->RecordSpillQueueDepth(queue_.size());
    }
  }
  work_cv_.notify_one();
  return true;
}

std::optional<BlockPtr> SpillQueue::FindInFlight(const BlockId& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = spills_.find(id);
  if (it == spills_.end() || it->second.cancelled) {
    return std::nullopt;
  }
  return it->second.data;
}

bool SpillQueue::Cancel(const BlockId& id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = spills_.find(id);
  if (it == spills_.end()) {
    return false;
  }
  if (it->second.state == SpillState::kQueued) {
    // Erase the claim; the stale queue entry is skipped by the worker.
    pending_spill_bytes_ -= it->second.data->SizeBytes();
    spills_.erase(it);
  } else {
    // Mid-write: the worker deletes the committed file right after the write.
    it->second.cancelled = true;
  }
  if (metrics_ != nullptr) {
    metrics_->RecordSpillCancelled();
  }
  return true;
}

void SpillQueue::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  drain_cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

size_t SpillQueue::depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size() + active_;
}

std::vector<BlockId> SpillQueue::PendingSpills() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<BlockId> ids;
  ids.reserve(spills_.size());
  for (const auto& [id, spill] : spills_) {
    if (!spill.cancelled) {
      ids.push_back(id);
    }
  }
  return ids;
}

uint64_t SpillQueue::pending_spill_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_spill_bytes_;
}

void SpillQueue::WorkerLoop() {
  for (;;) {
    WorkItem item;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        // stop_ set and nothing pending: every enqueued item has been
        // processed (shutdown drains, it never drops work).
        return;
      }
      item = std::move(queue_.front());
      queue_.pop_front();
      active_ = 1;
    }
    if (item.is_fetch) {
      ProcessFetch(item.id);
    } else {
      ProcessSpill(item.id);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      active_ = 0;
      if (queue_.empty()) {
        drain_cv_.notify_all();
      }
    }
  }
}

void SpillQueue::ProcessSpill(const BlockId& id) {
  BlockPtr data;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = spills_.find(id);
    if (it == spills_.end()) {
      return;  // cancelled while queued
    }
    it->second.state = SpillState::kWriting;
    data = it->second.data;  // keep the payload alive outside the lock
  }
  Stopwatch watch;
  bm_->SpillToDisk(id, *data);
  const double elapsed_ms = watch.ElapsedMillis();
  bool cancelled = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = spills_.find(id);
    if (it != spills_.end()) {
      cancelled = it->second.cancelled;
      pending_spill_bytes_ -= it->second.data->SizeBytes();
      spills_.erase(it);  // commit: readers now go to disk
    }
  }
  if (cancelled) {
    // Unpersist raced the write: a cancelled spill must not leave the block
    // resurrectable on disk.
    bm_->RemoveFromDisk(id);
  }
  if (metrics_ != nullptr) {
    metrics_->RecordAsyncSpill(elapsed_ms);
  }
}

void SpillQueue::ProcessFetch(const BlockId& id) {
  std::vector<FetchCallback> callbacks;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = fetches_.find(id);
    if (it == fetches_.end()) {
      return;
    }
    callbacks = std::move(it->second);
    fetches_.erase(it);
  }
  double disk_ms = 0.0;
  auto bytes = bm_->ReadFromDisk(id, &disk_ms);
  if (metrics_ != nullptr) {
    metrics_->RecordAsyncFetch(disk_ms);
  }
  for (size_t i = 0; i < callbacks.size(); ++i) {
    if (i + 1 == callbacks.size()) {
      callbacks[i](std::move(bytes), disk_ms);
    } else {
      callbacks[i](bytes, disk_ms);
    }
  }
}

}  // namespace blaze
