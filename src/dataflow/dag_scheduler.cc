#include "src/dataflow/dag_scheduler.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "src/common/logging.h"
#include "src/common/trace.h"
#include "src/dataflow/engine_context.h"
#include "src/dataflow/task_context.h"
#include "src/metrics/registry.h"

namespace blaze {

namespace internal {

// All mutable state of one in-flight job. Shared (via shared_ptr) between the
// submitting driver thread, every task closure, and the shuffle service's
// completion waiters; the atomics below are the only cross-thread counters.
struct JobState {
  int job_id = 0;
  std::shared_ptr<RddBase> target;
  std::function<std::any(const BlockPtr&)> process;
  // Result-stage blocks are handed to `process` in their cached
  // representation (no forced row decode); see DagScheduler::RunJob.
  bool raw_blocks = false;
  std::vector<DagScheduler::StagePlan> plans;

  // Per-stage countdowns. pending_parents gates launch (a stage launches when
  // it hits zero); pending_tasks gates completion (the task that decrements
  // it to zero fires the stage-completion event on its own worker thread).
  std::vector<std::atomic<int>> pending_parents;
  std::vector<std::atomic<int>> pending_tasks;

  // Start timestamps, always on (they feed the sched.job_latency_ms /
  // sched.stage_latency_ms telemetry histograms as well as the flight
  // recorder): written by the launching thread before task dispatch, read by
  // the completing thread (ordered through the pool's queue).
  std::vector<uint64_t> stage_start_us;
  uint64_t job_start_us = 0;

  std::vector<std::any> results;  // one slot per target partition
  std::vector<int> pinned_shuffles;

  // Multi-tenant attribution (kNoTenant outside multi-tenant mode); when the
  // admission layer granted an in-flight slot, FinishJob releases it.
  uint32_t tenant = kNoTenant;
  bool tenant_slot_held = false;

  std::mutex done_mu;
  std::condition_variable done_cv;
  bool done = false;
};

}  // namespace internal

namespace {

// Deterministic fault-injection decision for one task attempt: hashes
// (job, stage, partition, attempt) into [0, 1) and compares with the rate.
bool ShouldInjectFailure(double rate, int job, int stage, uint32_t partition, int attempt) {
  if (rate <= 0.0) {
    return false;
  }
  uint64_t h = 0x9E3779B97F4A7C15ULL;
  for (uint64_t v : {static_cast<uint64_t>(job), static_cast<uint64_t>(stage),
                     static_cast<uint64_t>(partition), static_cast<uint64_t>(attempt)}) {
    h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
    h *= 0xBF58476D1CE4E5B9ULL;
    h ^= h >> 31;
  }
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  return u < rate;
}

// Datasets materialized by a stage: the narrow closure from its terminal
// (walking parents but never crossing a shuffle dependency).
std::vector<const RddBase*> NarrowClosure(const RddBase* terminal) {
  std::vector<const RddBase*> out;
  std::unordered_set<const RddBase*> seen;
  std::vector<const RddBase*> work{terminal};
  while (!work.empty()) {
    const RddBase* rdd = work.back();
    work.pop_back();
    if (!seen.insert(rdd).second) {
      continue;
    }
    out.push_back(rdd);
    for (const Dependency& dep : rdd->dependencies()) {
      if (!dep.is_shuffle) {
        work.push_back(dep.parent.get());
      }
    }
  }
  return out;
}

}  // namespace

std::vector<std::any> JobHandle::Wait() {
  BLAZE_CHECK(state_ != nullptr) << "Wait() on an empty JobHandle";
  std::unique_lock<std::mutex> lock(state_->done_mu);
  state_->done_cv.wait(lock, [&] { return state_->done; });
  return std::move(state_->results);
}

int JobHandle::job_id() const { return state_ == nullptr ? -1 : state_->job_id; }

DagScheduler::DagScheduler(EngineContext* engine) : engine_(engine) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  telemetry_.jobs_submitted = reg.Counter("sched.jobs_submitted");
  telemetry_.jobs_completed = reg.Counter("sched.jobs_completed");
  telemetry_.stages_completed = reg.Counter("sched.stages_completed");
  telemetry_.jobs_active = reg.Gauge("sched.jobs_active");
  telemetry_.job_latency_ms = reg.Histogram("sched.job_latency_ms");
  telemetry_.stage_latency_ms = reg.Histogram("sched.stage_latency_ms");
}

DagScheduler::~DagScheduler() {
  std::unique_lock<std::mutex> lock(drain_mu_);
  drain_cv_.wait(lock, [&] { return jobs_in_flight_ == 0; });
}

std::vector<DagScheduler::StagePlan> DagScheduler::PlanStages(
    const std::shared_ptr<RddBase>& target) const {
  // Collect shuffle dependencies reachable from the target, then order the map
  // stages so that a stage is planned after every shuffle stage it reads from.
  std::vector<StagePlan> plans;
  std::unordered_set<int> planned;        // shuffle ids already planned
  std::unordered_set<const RddBase*> visited;  // diamond guard: visit each node once

  // DFS producing postorder over shuffle dependencies.
  std::function<void(const RddBase*)> visit = [&](const RddBase* rdd) {
    if (!visited.insert(rdd).second) {
      return;
    }
    for (const Dependency& dep : rdd->dependencies()) {
      if (dep.is_shuffle) {
        if (planned.insert(dep.shuffle_id).second) {
          visit(dep.parent.get());  // the map stage's own upstream shuffles first
          StagePlan plan;
          plan.shuffle_dep = &dep;
          plan.terminal = dep.parent;
          plans.push_back(plan);
        }
      } else {
        visit(dep.parent.get());
      }
    }
  };
  visit(target.get());

  StagePlan result_stage;
  result_stage.terminal = target;
  plans.push_back(result_stage);
  for (size_t i = 0; i < plans.size(); ++i) {
    plans[i].stage_index = static_cast<int>(i);
  }

  // Parent/child edges: a stage depends on the map stage of every shuffle its
  // narrow closure reads. The postorder above guarantees edges point from a
  // lower stage index to a higher one.
  std::unordered_map<int, int> producer_of_shuffle;  // shuffle id -> stage
  for (const StagePlan& plan : plans) {
    if (plan.shuffle_dep != nullptr) {
      producer_of_shuffle[plan.shuffle_dep->shuffle_id] = plan.stage_index;
    }
  }
  for (StagePlan& plan : plans) {
    std::set<int> parents;
    for (const RddBase* rdd : NarrowClosure(plan.terminal.get())) {
      for (const Dependency& dep : rdd->dependencies()) {
        if (!dep.is_shuffle) {
          continue;
        }
        auto it = producer_of_shuffle.find(dep.shuffle_id);
        if (it != producer_of_shuffle.end() && it->second != plan.stage_index) {
          parents.insert(it->second);
        }
      }
    }
    plan.num_parents = static_cast<int>(parents.size());
    for (int parent : parents) {
      plans[parent].children.push_back(plan.stage_index);
    }
  }
  return plans;
}

JobInfo DagScheduler::AnalyzeJob(const std::shared_ptr<RddBase>& target, int job_id) const {
  JobInfo info;
  info.job_id = job_id;
  info.target = target.get();

  const std::vector<StagePlan> plans = PlanStages(target);
  info.num_stages = static_cast<int>(plans.size());

  // Stage index where each dataset is materialized (min across stages).
  std::unordered_map<const RddBase*, int> producer_stage;
  for (const StagePlan& plan : plans) {
    for (const RddBase* rdd : NarrowClosure(plan.terminal.get())) {
      auto it = producer_stage.find(rdd);
      if (it == producer_stage.end()) {
        producer_stage.emplace(rdd, plan.stage_index);
      }
    }
  }

  // Full closure (crossing shuffles) with dependent counts and consumer stages.
  std::unordered_map<const RddBase*, JobRddInfo> infos;
  std::unordered_set<const RddBase*> seen;
  std::vector<const RddBase*> work{target.get()};
  infos[target.get()].rdd = target.get();
  while (!work.empty()) {
    const RddBase* rdd = work.back();
    work.pop_back();
    if (!seen.insert(rdd).second) {
      continue;
    }
    auto ps = producer_stage.find(rdd);
    const int consumer_stage = ps != producer_stage.end() ? ps->second : info.num_stages - 1;
    for (const Dependency& dep : rdd->dependencies()) {
      JobRddInfo& parent_info = infos[dep.parent.get()];
      parent_info.rdd = dep.parent.get();
      ++parent_info.num_dependents_in_job;
      // A narrow parent is consumed in the stage that materializes the child;
      // a shuffle parent is consumed by its own map stage (where its buckets
      // are written).
      int consume_at = consumer_stage;
      if (dep.is_shuffle) {
        auto pps = producer_stage.find(dep.parent.get());
        if (pps != producer_stage.end()) {
          consume_at = pps->second;
        }
      }
      if (parent_info.first_consumer_stage < 0 ||
          consume_at < parent_info.first_consumer_stage) {
        parent_info.first_consumer_stage = consume_at;
      }
      work.push_back(dep.parent.get());
    }
  }
  info.rdds.reserve(infos.size());
  for (auto& [rdd, rinfo] : infos) {
    info.rdds.push_back(rinfo);
  }
  return info;
}

StageInfo DagScheduler::MakeStageInfo(const internal::JobState& job, int stage_index) const {
  const StagePlan& plan = job.plans[stage_index];
  StageInfo stage_info;
  stage_info.job_id = job.job_id;
  stage_info.stage_index = plan.stage_index;
  stage_info.terminal = plan.terminal.get();
  for (const RddBase* rdd : NarrowClosure(plan.terminal.get())) {
    stage_info.rdds_computed.push_back(rdd->id());
  }
  return stage_info;
}

std::vector<std::any> DagScheduler::RunJob(
    const std::shared_ptr<RddBase>& target,
    const std::function<std::any(const BlockPtr&)>& process, bool raw_blocks) {
  return SubmitJob(target, process, raw_blocks).Wait();
}

JobHandle DagScheduler::SubmitJob(const std::shared_ptr<RddBase>& target,
                                  const std::function<std::any(const BlockPtr&)>& process,
                                  bool raw_blocks, uint32_t tenant, bool tenant_slot_held) {
  EngineContext& engine = *engine_;
  const int job_id = next_job_id_.fetch_add(1);

  auto job = std::make_shared<internal::JobState>();
  job->job_id = job_id;
  job->target = target;
  job->process = process;
  job->raw_blocks = raw_blocks;
  job->tenant = tenant;
  job->tenant_slot_held = tenant_slot_held;
  job->job_start_us = ProcessMicros();
  telemetry_.jobs_submitted->Add();
  telemetry_.jobs_active->Add(1);

  const JobInfo job_info = AnalyzeJob(target, job_id);
  if (tenant != kNoTenant && engine.tenants() != nullptr) {
    // Record which datasets this tenant's job references: the cross-tenant
    // refcounts that drive shared-dataset ownership, eviction ordering, and
    // unpersist deferral.
    engine.tenants()->NoteJobDatasets(tenant, job_info);
  }

  // Fan-out nodes (more than one dependent in this job) are fusion barriers:
  // every consumer must read the same materialized block instead of re-running
  // the shared upstream chain per consumer. Installed per job id; cleared when
  // the job finishes.
  auto fanout = std::make_shared<EngineContext::FusionBarrierSet>();
  for (const JobRddInfo& rinfo : job_info.rdds) {
    if (rinfo.num_dependents_in_job > 1) {
      fanout->insert(rinfo.rdd->id());
    }
  }
  engine.SetJobFanoutBarriers(job_id, std::move(fanout));

  engine.coordinator().OnJobStart(job_info);

  job->plans = PlanStages(target);
  const size_t num_stages = job->plans.size();
  job->results.resize(target->num_partitions());
  job->pending_parents = std::vector<std::atomic<int>>(num_stages);
  job->pending_tasks = std::vector<std::atomic<int>>(num_stages);
  job->stage_start_us.assign(num_stages, 0);
  for (size_t s = 0; s < num_stages; ++s) {
    job->pending_parents[s].store(job->plans[s].num_parents, std::memory_order_relaxed);
  }

  // Retention: every shuffle this job touches is marked used and pinned for
  // the job's whole duration, so a concurrent job's DropStale cannot reap it
  // between our stages.
  for (const StagePlan& plan : job->plans) {
    if (plan.shuffle_dep != nullptr) {
      engine.shuffle().MarkUsed(plan.shuffle_dep->shuffle_id, job_id);
      engine.shuffle().Pin(plan.shuffle_dep->shuffle_id);
      job->pinned_shuffles.push_back(plan.shuffle_dep->shuffle_id);
    }
  }

  {
    std::lock_guard<std::mutex> lock(drain_mu_);
    ++jobs_in_flight_;
  }

  // Launch every dependency-free stage; the rest launch from completion
  // events as their pending-parent counts drain.
  for (size_t s = 0; s < num_stages; ++s) {
    if (job->plans[s].num_parents == 0) {
      LaunchStage(job, static_cast<int>(s));
    }
  }
  return JobHandle(std::move(job));
}

void DagScheduler::LaunchStage(const std::shared_ptr<internal::JobState>& job,
                               int stage_index) {
  EngineContext& engine = *engine_;
  const StagePlan& plan = job->plans[stage_index];
  if (plan.shuffle_dep != nullptr) {
    // Stage skipping through the write-claim state machine: complete shuffles
    // skip, absent ones are owned and computed, and a shuffle some concurrent
    // job is mid-writing parks this stage until the writer's FinishWrite.
    const auto claim = engine.shuffle().ClaimWrite(
        plan.shuffle_dep->shuffle_id, plan.terminal->num_partitions(),
        plan.shuffle_dep->num_reduce,
        [this, job, stage_index] { CompleteStage(job, stage_index, /*ran=*/false); });
    if (claim == ShuffleService::WriteClaim::kAlreadyComplete) {
      CompleteStage(job, stage_index, /*ran=*/false);
      return;
    }
    if (claim == ShuffleService::WriteClaim::kPending) {
      return;
    }
  }
  job->stage_start_us[stage_index] = ProcessMicros();
  engine.coordinator().OnStageStart(MakeStageInfo(*job, stage_index));
  RunStageTasks(job, stage_index);
}

void DagScheduler::RunStageTasks(const std::shared_ptr<internal::JobState>& job,
                                 int stage_index) {
  EngineContext& engine = *engine_;
  const StagePlan& plan = job->plans[stage_index];
  const size_t num_partitions = plan.terminal->num_partitions();
  if (num_partitions == 0) {
    if (plan.shuffle_dep != nullptr) {
      engine.shuffle().FinishWrite(plan.shuffle_dep->shuffle_id);
    }
    CompleteStage(job, stage_index, /*ran=*/true);
    return;
  }
  job->pending_tasks[stage_index].store(static_cast<int>(num_partitions),
                                        std::memory_order_relaxed);
  const int job_id = job->job_id;

  // One batch per executor pool: each pool is locked once for its whole
  // per-partition fan-out instead of once per task.
  std::vector<std::vector<std::function<void()>>> batches(engine.num_executors());
  for (uint32_t p = 0; p < num_partitions; ++p) {
    const size_t executor = engine.ExecutorFor(p);
    const uint64_t enqueue_us = trace::Enabled() ? ProcessMicros() : 0;
    batches[executor].push_back([this, job, stage_index, job_id, p, executor, enqueue_us] {
      EngineContext& engine = *engine_;
      const StagePlan& plan = job->plans[stage_index];
      const RddBase& terminal = *plan.terminal;
      if (enqueue_us != 0 && trace::Enabled()) {
        // Time the task sat in the worker deque before a thread picked it up.
        trace::Complete("task.queue_wait", "sched", enqueue_us, trace::TArg("job", job_id),
                        trace::TArg("stage", plan.stage_index), trace::TArg("part", p));
      }
      TRACE_SCOPE("task.run", "sched", trace::TArg("job", job_id),
                  trace::TArg("stage", plan.stage_index), trace::TArg("part", p),
                  trace::TArg("executor", static_cast<uint64_t>(executor)));
      // Task attempts: injected launch failures are retried, as Spark's
      // TaskSetManager re-offers failed tasks (fault-injection testing hook).
      int attempt = 0;
      while (ShouldInjectFailure(engine.config().task_failure_rate, job_id,
                                 plan.stage_index, p, attempt)) {
        engine.metrics().RecordTaskFailure();
        ++attempt;
        BLAZE_CHECK_LT(attempt, engine.config().max_task_attempts)
            << "task " << p << " of stage " << plan.stage_index << " exhausted retries";
      }
      TaskContext tc(&engine, job_id, plan.stage_index, p, executor, job->tenant);
      Stopwatch task_watch;
      // Consumers that read blocks representation-agnostically — bucketizers
      // built on ForEachRow, raw-block actions — take the terminal in its
      // cached form, so a columnar hit skips the row recomposition.
      const bool keep_columnar = plan.shuffle_dep != nullptr
                                     ? plan.shuffle_dep->accepts_columnar
                                     : job->raw_blocks;
      // Scoped so the task's block reference is gone before the completion
      // countdown below: once the driver's Wait() returns, no task thread may
      // still pin a block (an immediate Unpersist must release its arena).
      {
        const BlockPtr block = keep_columnar ? tc.GetColumnarForTask(terminal, p)
                                             : tc.GetBlock(terminal, p);
        if (plan.shuffle_dep != nullptr) {
          std::vector<BlockPtr> buckets =
              plan.shuffle_dep->bucketizer(block, plan.shuffle_dep->num_reduce);
          BLAZE_CHECK_EQ(buckets.size(), plan.shuffle_dep->num_reduce);
          for (uint32_t r = 0; r < buckets.size(); ++r) {
            engine.shuffle().PutBucket(plan.shuffle_dep->shuffle_id, p, r,
                                       std::move(buckets[r]));
          }
        } else {
          // Each task owns its distinct results[p] slot; the job's done_mu
          // publishes the writes to the waiting driver.
          job->results[p] = job->process(block);
        }
      }
      const double wall_ms = task_watch.ElapsedMillis();
      tc.metrics().compute_ms = wall_ms - tc.metrics().cache_disk_ms -
                                tc.metrics().ilp_wait_ms;
      engine.metrics().AddTask(tc.metrics(), wall_ms, job_id);
      if (job->pending_tasks[stage_index].fetch_sub(1, std::memory_order_acq_rel) == 1) {
        // Last task of the stage: publish the shuffle (waking any parked
        // stages of concurrent jobs) and fire the completion event inline.
        if (plan.shuffle_dep != nullptr) {
          engine.shuffle().FinishWrite(plan.shuffle_dep->shuffle_id);
        }
        CompleteStage(job, stage_index, /*ran=*/true);
      }
    });
  }
  for (size_t e = 0; e < engine.num_executors(); ++e) {
    if (!batches[e].empty()) {
      engine.worker_pool(e).SubmitBatch(std::move(batches[e]));
    }
  }
}

void DagScheduler::CompleteStage(const std::shared_ptr<internal::JobState>& job,
                                 int stage_index, bool ran) {
  EngineContext& engine = *engine_;
  const StagePlan& plan = job->plans[stage_index];
  if (ran) {
    engine.coordinator().OnStageComplete(MakeStageInfo(*job, stage_index));
    telemetry_.stages_completed->Add();
    telemetry_.stage_latency_ms->Record(
        static_cast<double>(ProcessMicros() - job->stage_start_us[stage_index]) / 1e3);
    if (trace::Enabled()) {
      trace::Complete(
          "stage.run", "sched", job->stage_start_us[stage_index],
          trace::TArg("job", job->job_id), trace::TArg("stage", plan.stage_index),
          trace::TArg("partitions", static_cast<uint64_t>(plan.terminal->num_partitions())));
    }
  }
  if (plan.shuffle_dep == nullptr) {
    // The result stage is the sink of the stage graph: its completion is the
    // job's completion.
    FinishJob(job);
    return;
  }
  for (int child : plan.children) {
    if (job->pending_parents[child].fetch_sub(1, std::memory_order_acq_rel) == 1) {
      LaunchStage(job, child);
    }
  }
}

void DagScheduler::FinishJob(const std::shared_ptr<internal::JobState>& job) {
  EngineContext& engine = *engine_;
  engine.coordinator().OnJobEnd(job->job_id);
  engine.ClearJobFanoutBarriers(job->job_id);
  for (int shuffle_id : job->pinned_shuffles) {
    engine.shuffle().Unpin(shuffle_id);
  }
  if (engine.config().shuffle_retention_jobs > 0) {
    engine.shuffle().DropStale(job->job_id, engine.config().shuffle_retention_jobs);
  }
  if (job->tenant != kNoTenant && engine.tenants() != nullptr) {
    // Releases the admission slot (when held) and wakes the longest-parked
    // queued submit of this tenant.
    engine.tenants()->OnJobFinished(job->tenant, job->tenant_slot_held);
  }
  telemetry_.jobs_completed->Add();
  telemetry_.jobs_active->Add(-1);
  telemetry_.job_latency_ms->Record(
      static_cast<double>(ProcessMicros() - job->job_start_us) / 1e3);
  if (trace::Enabled()) {
    trace::Complete("job.run", "sched", job->job_start_us, trace::TArg("job", job->job_id),
                    trace::TArg("target", job->target->id()));
  }
  {
    std::lock_guard<std::mutex> lock(job->done_mu);
    job->done = true;
    job->done_cv.notify_all();
  }
  // Drain accounting last: after the notify below the destructor may run, so
  // nothing may touch scheduler members afterwards.
  {
    std::lock_guard<std::mutex> lock(drain_mu_);
    --jobs_in_flight_;
    drain_cv_.notify_all();
  }
}

std::string DagScheduler::ExportDot(const std::shared_ptr<RddBase>& target) const {
  const std::vector<StagePlan> plans = PlanStages(target);

  // Assign every dataset to the first stage that materializes it (fan-out
  // nodes are read narrowly by several stages but drawn once).
  std::unordered_map<const RddBase*, int> owner_stage;
  for (const StagePlan& plan : plans) {
    for (const RddBase* rdd : NarrowClosure(plan.terminal.get())) {
      owner_stage.emplace(rdd, plan.stage_index);
    }
  }

  std::ostringstream out;
  out << "digraph job {\n"
      << "  rankdir=BT;\n"
      << "  node [shape=box, style=rounded, fontsize=10];\n";
  for (const StagePlan& plan : plans) {
    out << "  subgraph cluster_stage_" << plan.stage_index << " {\n";
    if (plan.shuffle_dep != nullptr) {
      out << "    label=\"stage " << plan.stage_index << " (map, shuffle "
          << plan.shuffle_dep->shuffle_id << ")\";\n";
    } else {
      out << "    label=\"stage " << plan.stage_index << " (result)\";\n";
    }
    out << "    color=gray;\n";
    for (const auto& [rdd, stage] : owner_stage) {
      if (stage != plan.stage_index) {
        continue;
      }
      out << "    r" << rdd->id() << " [label=\"" << rdd->name() << "\\n#" << rdd->id()
          << " x" << rdd->num_partitions() << "\"];\n";
    }
    out << "  }\n";
  }
  // Dependency edges over the full closure: solid for narrow, dashed for
  // shuffle (the stage boundaries).
  std::unordered_set<const RddBase*> seen;
  std::vector<const RddBase*> work{target.get()};
  while (!work.empty()) {
    const RddBase* rdd = work.back();
    work.pop_back();
    if (!seen.insert(rdd).second) {
      continue;
    }
    for (const Dependency& dep : rdd->dependencies()) {
      out << "  r" << dep.parent->id() << " -> r" << rdd->id();
      if (dep.is_shuffle) {
        out << " [style=dashed, color=red, label=\"shuffle " << dep.shuffle_id << "\"]";
      }
      out << ";\n";
      work.push_back(dep.parent.get());
    }
  }
  out << "}\n";
  return out.str();
}

}  // namespace blaze
