// Run-wide metric collection. One RunMetrics instance is shared by every
// executor/block-manager/scheduler component of an EngineContext; all the
// paper's figures are computed from the counters gathered here.
#ifndef SRC_METRICS_RUN_METRICS_H_
#define SRC_METRICS_RUN_METRICS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/metrics/histogram.h"

namespace blaze {

class TelemetryCounter;
class StreamingHistogram;

// Per-task timing breakdown, accumulated by the TaskContext while a task runs.
struct TaskMetrics {
  double compute_ms = 0.0;       // operator execution incl. shuffle read/write
  double cache_disk_ms = 0.0;    // disk read+write+(de)ser for cached blocks
  double recompute_ms = 0.0;     // subset of compute spent regenerating evicted blocks
  double ilp_wait_ms = 0.0;      // time a task spent blocked on a decision layer
  uint64_t cache_disk_bytes_read = 0;
  uint64_t cache_disk_bytes_written = 0;
  uint64_t blocks_computed = 0;  // block materializations (fused chains: 1)
  uint64_t fused_ops = 0;        // operators whose block was elided by fusion
  uint64_t vectorized_batches = 0;        // ColumnBatch pushes on the vectorized path
  uint64_t rows_vectorized = 0;           // rows those batches carried
  uint64_t materializations_avoided = 0;  // columnar reads served without row decode

  void MergeFrom(const TaskMetrics& other) {
    compute_ms += other.compute_ms;
    cache_disk_ms += other.cache_disk_ms;
    recompute_ms += other.recompute_ms;
    ilp_wait_ms += other.ilp_wait_ms;
    cache_disk_bytes_read += other.cache_disk_bytes_read;
    cache_disk_bytes_written += other.cache_disk_bytes_written;
    blocks_computed += other.blocks_computed;
    fused_ops += other.fused_ops;
    vectorized_batches += other.vectorized_batches;
    rows_vectorized += other.rows_vectorized;
    materializations_avoided += other.materializations_avoided;
  }
};

// Per-job slice of the task counters: with concurrent jobs interleaving on
// one engine, the per-job attribution is what keeps runs debuggable.
struct JobTaskMetrics {
  uint64_t num_tasks = 0;
  double task_wall_ms = 0.0;     // summed wall time of the job's tasks
  double compute_ms = 0.0;
  double recompute_ms = 0.0;
  double cache_disk_ms = 0.0;
  uint64_t cache_disk_bytes_read = 0;
  uint64_t cache_disk_bytes_written = 0;
};

// Aggregated view of a finished run; see Snapshot().
struct RunMetricsSnapshot {
  TaskMetrics total_task;           // accumulated over all tasks of all jobs
  uint64_t num_tasks = 0;
  uint64_t evictions_to_disk = 0;   // m -> d transitions
  uint64_t evictions_discard = 0;   // m -> u transitions
  uint64_t unpersists = 0;          // timely removals of no-longer-needed data
  uint64_t cache_hits_memory = 0;
  uint64_t cache_hits_disk = 0;
  uint64_t cache_misses = 0;        // recovered by recomputation
  std::vector<uint64_t> evicted_bytes_per_executor;
  uint64_t disk_bytes_written_total = 0;
  uint64_t disk_bytes_peak = 0;     // peak bytes simultaneously resident on disk
  std::map<int, double> recompute_ms_per_job;
  std::map<int, JobTaskMetrics> per_job;  // job id -> that job's task counters
  double profiling_ms = 0.0;        // Blaze dependency-extraction phase
  double solver_ms = 0.0;           // total ILP solve time
  uint64_t solver_invocations = 0;
  uint64_t broadcast_bytes = 0;     // bytes shipped by Broadcast variables
  double broadcast_ms = 0.0;
  uint64_t task_failures = 0;       // injected task-attempt failures (retried)
  uint64_t async_spills = 0;        // evictions written off the task path
  double async_spill_ms = 0.0;      // disk ms absorbed by the spill worker
  uint64_t async_fetches = 0;       // disk loads overlapped on the spill worker
  double async_fetch_ms = 0.0;
  uint64_t spill_queue_rejects = 0;  // full-queue fallbacks to synchronous spill
  uint64_t spill_queue_peak_depth = 0;
  uint64_t columnar_blocks = 0;      // row->columnar conversions at admission
  uint64_t columnar_bytes = 0;       // those blocks' cached (columnar) footprint
  uint64_t columnar_row_bytes = 0;   // the same blocks' object-row footprint
  uint64_t columnar_decodes = 0;     // columnar->rows recompositions on the read path
  double columnar_decode_ms = 0.0;
  HistogramSnapshot task_run_hist;  // wall time per task
  HistogramSnapshot disk_io_hist;   // per spill/load operation
  HistogramSnapshot ilp_wait_hist;  // per task that blocked on a decision layer
};

class RunMetrics {
 public:
  explicit RunMetrics(size_t num_executors);

  // task_wall_ms, when positive, feeds the task-run latency histogram.
  // job_id >= 0 additionally attributes the task to that job's per_job slice.
  void AddTask(const TaskMetrics& m, double task_wall_ms = 0.0, int job_id = -1);
  void RecordDiskIo(double ms);  // one spill or load operation
  void RecordEviction(size_t executor, uint64_t bytes, bool to_disk);
  void RecordUnpersist();
  void RecordCacheHit(bool from_memory);
  void RecordCacheMiss();
  void RecordDiskStoreDelta(int64_t delta_bytes);  // tracks peak disk residency
  void RecordRecompute(int job_id, double ms);
  void RecordProfiling(double ms);
  void RecordSolve(double ms);
  void RecordBroadcast(uint64_t bytes, double ms);
  void RecordTaskFailure();
  void RecordAsyncSpill(double ms);             // one off-path eviction write
  void RecordAsyncFetch(double ms);             // one off-path disk load
  void RecordSpillQueueDepth(uint64_t depth);   // updates the peak
  void RecordSpillQueueReject();
  void RecordSpillCancelled();  // registry only (spill.cancelled)
  // One object-row -> columnar conversion at cache admission, with both
  // representations' byte sizes (per-representation size accounting).
  void RecordColumnarBuild(uint64_t columnar_bytes, uint64_t row_bytes);
  void RecordColumnarDecode(double ms);  // one columnar->rows recomposition

  RunMetricsSnapshot Snapshot() const;
  void Reset();

 private:
  mutable std::mutex mu_;
  RunMetricsSnapshot snap_;
  int64_t disk_bytes_current_ = 0;
  LatencyHistogram task_run_hist_;
  LatencyHistogram disk_io_hist_;
  LatencyHistogram ilp_wait_hist_;

  // Live-telemetry mirrors (MetricsRegistry::Global(), cached at construction).
  // Each Record* method is the single chokepoint that bumps both the per-run
  // snapshot above and the process-wide registry, so `blazectl top` and the
  // end-of-run report can never disagree on what was counted.
  struct Telemetry {
    TelemetryCounter* tasks_completed;
    TelemetryCounter* task_failures;
    TelemetryCounter* cache_hits_memory;
    TelemetryCounter* cache_hits_disk;
    TelemetryCounter* cache_misses;
    TelemetryCounter* cache_evictions_disk;
    TelemetryCounter* cache_evictions_discard;
    TelemetryCounter* cache_unpersists;
    TelemetryCounter* async_spills;
    TelemetryCounter* async_fetches;
    TelemetryCounter* spill_queue_rejects;
    TelemetryCounter* spills_cancelled;
    TelemetryCounter* ilp_solves;
    TelemetryCounter* vectorized_batches;
    TelemetryCounter* rows_vectorized;
    TelemetryCounter* materializations_avoided;
    StreamingHistogram* task_latency_ms;
    StreamingHistogram* disk_io_ms;
    StreamingHistogram* ilp_solve_ms;
  };
  Telemetry telemetry_;
};

}  // namespace blaze

#endif  // SRC_METRICS_RUN_METRICS_H_
