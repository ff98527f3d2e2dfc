#include "src/metrics/run_metrics.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/metrics/registry.h"

namespace blaze {

RunMetrics::RunMetrics(size_t num_executors) {
  snap_.evicted_bytes_per_executor.assign(num_executors, 0);
  MetricsRegistry& reg = MetricsRegistry::Global();
  telemetry_.tasks_completed = reg.Counter("task.completed");
  telemetry_.task_failures = reg.Counter("task.failures");
  telemetry_.cache_hits_memory = reg.Counter("cache.hits_memory");
  telemetry_.cache_hits_disk = reg.Counter("cache.hits_disk");
  telemetry_.cache_misses = reg.Counter("cache.misses");
  telemetry_.cache_evictions_disk = reg.Counter("cache.evictions_disk");
  telemetry_.cache_evictions_discard = reg.Counter("cache.evictions_discard");
  telemetry_.cache_unpersists = reg.Counter("cache.unpersists");
  telemetry_.async_spills = reg.Counter("spill.async_spills");
  telemetry_.async_fetches = reg.Counter("spill.async_fetches");
  telemetry_.spill_queue_rejects = reg.Counter("spill.queue_rejects");
  telemetry_.spills_cancelled = reg.Counter("spill.cancelled");
  telemetry_.ilp_solves = reg.Counter("ilp.solves");
  telemetry_.vectorized_batches = reg.Counter("vec.batches");
  telemetry_.rows_vectorized = reg.Counter("vec.rows");
  telemetry_.materializations_avoided = reg.Counter("vec.materializations_avoided");
  telemetry_.task_latency_ms = reg.Histogram("task.latency_ms");
  telemetry_.disk_io_ms = reg.Histogram("disk.io_ms");
  telemetry_.ilp_solve_ms = reg.Histogram("ilp.solve_ms");
}

void RunMetrics::AddTask(const TaskMetrics& m, double task_wall_ms, int job_id) {
  telemetry_.tasks_completed->Add();
  if (m.vectorized_batches > 0) {
    telemetry_.vectorized_batches->Add(m.vectorized_batches);
    telemetry_.rows_vectorized->Add(m.rows_vectorized);
  }
  if (m.materializations_avoided > 0) {
    telemetry_.materializations_avoided->Add(m.materializations_avoided);
  }
  if (task_wall_ms > 0.0) {
    telemetry_.task_latency_ms->Record(task_wall_ms);
  }
  std::lock_guard<std::mutex> lock(mu_);
  snap_.total_task.MergeFrom(m);
  ++snap_.num_tasks;
  if (job_id >= 0) {
    JobTaskMetrics& job = snap_.per_job[job_id];
    ++job.num_tasks;
    job.task_wall_ms += task_wall_ms;
    job.compute_ms += m.compute_ms;
    job.recompute_ms += m.recompute_ms;
    job.cache_disk_ms += m.cache_disk_ms;
    job.cache_disk_bytes_read += m.cache_disk_bytes_read;
    job.cache_disk_bytes_written += m.cache_disk_bytes_written;
  }
  if (task_wall_ms > 0.0) {
    task_run_hist_.Record(task_wall_ms);
  }
  if (m.ilp_wait_ms > 0.0) {
    ilp_wait_hist_.Record(m.ilp_wait_ms);
  }
}

void RunMetrics::RecordDiskIo(double ms) {
  telemetry_.disk_io_ms->Record(ms);
  std::lock_guard<std::mutex> lock(mu_);
  disk_io_hist_.Record(ms);
}

void RunMetrics::RecordEviction(size_t executor, uint64_t bytes, bool to_disk) {
  (to_disk ? telemetry_.cache_evictions_disk : telemetry_.cache_evictions_discard)->Add();
  std::lock_guard<std::mutex> lock(mu_);
  BLAZE_CHECK_LT(executor, snap_.evicted_bytes_per_executor.size());
  snap_.evicted_bytes_per_executor[executor] += bytes;
  if (to_disk) {
    ++snap_.evictions_to_disk;
  } else {
    ++snap_.evictions_discard;
  }
}

void RunMetrics::RecordUnpersist() {
  telemetry_.cache_unpersists->Add();
  std::lock_guard<std::mutex> lock(mu_);
  ++snap_.unpersists;
}

void RunMetrics::RecordCacheHit(bool from_memory) {
  (from_memory ? telemetry_.cache_hits_memory : telemetry_.cache_hits_disk)->Add();
  std::lock_guard<std::mutex> lock(mu_);
  if (from_memory) {
    ++snap_.cache_hits_memory;
  } else {
    ++snap_.cache_hits_disk;
  }
}

void RunMetrics::RecordCacheMiss() {
  telemetry_.cache_misses->Add();
  std::lock_guard<std::mutex> lock(mu_);
  ++snap_.cache_misses;
}

void RunMetrics::RecordDiskStoreDelta(int64_t delta_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  disk_bytes_current_ += delta_bytes;
  if (delta_bytes > 0) {
    snap_.disk_bytes_written_total += static_cast<uint64_t>(delta_bytes);
  }
  snap_.disk_bytes_peak =
      std::max<uint64_t>(snap_.disk_bytes_peak,
                         disk_bytes_current_ > 0 ? static_cast<uint64_t>(disk_bytes_current_) : 0);
}

void RunMetrics::RecordRecompute(int job_id, double ms) {
  std::lock_guard<std::mutex> lock(mu_);
  snap_.recompute_ms_per_job[job_id] += ms;
}

void RunMetrics::RecordProfiling(double ms) {
  std::lock_guard<std::mutex> lock(mu_);
  snap_.profiling_ms += ms;
}

void RunMetrics::RecordSolve(double ms) {
  telemetry_.ilp_solves->Add();
  telemetry_.ilp_solve_ms->Record(ms);
  std::lock_guard<std::mutex> lock(mu_);
  snap_.solver_ms += ms;
  ++snap_.solver_invocations;
}

void RunMetrics::RecordBroadcast(uint64_t bytes, double ms) {
  std::lock_guard<std::mutex> lock(mu_);
  snap_.broadcast_bytes += bytes;
  snap_.broadcast_ms += ms;
}

void RunMetrics::RecordTaskFailure() {
  telemetry_.task_failures->Add();
  std::lock_guard<std::mutex> lock(mu_);
  ++snap_.task_failures;
}

void RunMetrics::RecordAsyncSpill(double ms) {
  telemetry_.async_spills->Add();
  std::lock_guard<std::mutex> lock(mu_);
  ++snap_.async_spills;
  snap_.async_spill_ms += ms;
}

void RunMetrics::RecordAsyncFetch(double ms) {
  telemetry_.async_fetches->Add();
  std::lock_guard<std::mutex> lock(mu_);
  ++snap_.async_fetches;
  snap_.async_fetch_ms += ms;
}

void RunMetrics::RecordSpillQueueDepth(uint64_t depth) {
  std::lock_guard<std::mutex> lock(mu_);
  snap_.spill_queue_peak_depth = std::max(snap_.spill_queue_peak_depth, depth);
}

void RunMetrics::RecordSpillQueueReject() {
  telemetry_.spill_queue_rejects->Add();
  std::lock_guard<std::mutex> lock(mu_);
  ++snap_.spill_queue_rejects;
}

void RunMetrics::RecordSpillCancelled() { telemetry_.spills_cancelled->Add(); }

void RunMetrics::RecordColumnarBuild(uint64_t columnar_bytes, uint64_t row_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  ++snap_.columnar_blocks;
  snap_.columnar_bytes += columnar_bytes;
  snap_.columnar_row_bytes += row_bytes;
}

void RunMetrics::RecordColumnarDecode(double ms) {
  std::lock_guard<std::mutex> lock(mu_);
  ++snap_.columnar_decodes;
  snap_.columnar_decode_ms += ms;
}

RunMetricsSnapshot RunMetrics::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  RunMetricsSnapshot out = snap_;
  out.task_run_hist = task_run_hist_.Snapshot();
  out.disk_io_hist = disk_io_hist_.Snapshot();
  out.ilp_wait_hist = ilp_wait_hist_.Snapshot();
  return out;
}

void RunMetrics::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t n = snap_.evicted_bytes_per_executor.size();
  snap_ = RunMetricsSnapshot{};
  snap_.evicted_bytes_per_executor.assign(n, 0);
  disk_bytes_current_ = 0;
  task_run_hist_.Reset();
  disk_io_hist_.Reset();
  ilp_wait_hist_.Reset();
}

}  // namespace blaze
