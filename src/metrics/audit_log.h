// Cache-decision audit log: every eviction, admission, unpersist, and ILP
// solve lands here as a structured record — who was evicted, under which
// policy, out of how many candidates, and why — ring-buffered per executor so
// recording stays contention-free across executors. Exportable as JSONL (one
// record per line) for offline analysis; Snapshot() merges the rings in
// decision order for tests and summaries.
//
// Lives in src/metrics (below storage/cache in the library graph), so block
// identity is carried as raw (rdd_id, partition) rather than a BlockId.
#ifndef SRC_METRICS_AUDIT_LOG_H_
#define SRC_METRICS_AUDIT_LOG_H_

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/common/spinlock.h"

namespace blaze {

enum class AuditKind : uint8_t { kAdmit = 0, kEvict, kUnpersist, kIlpSolve };

// "admit" / "evict" / "unpersist" / "ilp_solve".
const char* AuditKindName(AuditKind kind);

struct AuditRecord {
  uint64_t seq = 0;     // global decision order
  uint64_t ts_us = 0;   // ProcessMicros at decision time
  AuditKind kind = AuditKind::kAdmit;
  uint32_t executor = 0;

  // Block decisions (admit/evict/unpersist).
  uint32_t rdd_id = 0;
  uint32_t partition = 0;
  uint64_t size_bytes = 0;
  bool to_disk = false;        // evict: spilled (vs discarded); admit: disk tier
  const char* policy = "";     // "LRU", "MCKP", ... (static string)
  const char* reason = "";     // "capacity_pressure", "refcount_zero", ...
  double score = 0.0;          // policy's victim score / admission cost
  uint32_t candidates = 0;     // size of the victim candidate set examined

  // ILP solves (kIlpSolve; block fields unused).
  int32_t job_id = -1;
  uint32_t universe = 0;       // candidate blocks presented to the solver
  uint32_t chose_memory = 0;
  uint32_t chose_disk = 0;
  uint32_t chose_drop = 0;
  double solve_ms = 0.0;

  // Multi-tenant attribution: the tenant whose bytes the decision touched —
  // the victim's owner on evict, the charged owner on admit, the releasing
  // tenant on unpersist, the knapsack's tenant on ilp_solve. kNoAuditTenant
  // outside multi-tenant mode (and the field is then omitted from JSONL).
  uint32_t tenant = 0xFFFFFFFFu;
};

// Mirrors storage's kNoTenant (this library sits below storage in the graph).
inline constexpr uint32_t kNoAuditTenant = 0xFFFFFFFFu;

class CacheAuditLog {
 public:
  // Records retained per executor before the ring overwrites the oldest.
  static constexpr size_t kDefaultCapacityPerExecutor = 4096;

  explicit CacheAuditLog(size_t num_executors,
                         size_t capacity_per_executor = kDefaultCapacityPerExecutor);

  void Admit(uint32_t executor, uint32_t rdd_id, uint32_t partition, uint64_t size_bytes,
             bool to_disk, const char* policy, const char* reason,
             uint32_t tenant = kNoAuditTenant);
  void Evict(uint32_t executor, uint32_t rdd_id, uint32_t partition, uint64_t size_bytes,
             bool to_disk, const char* policy, const char* reason, double score,
             uint32_t candidates, uint32_t tenant = kNoAuditTenant);
  void Unpersist(uint32_t executor, uint32_t rdd_id, uint32_t partition,
                 uint64_t size_bytes, const char* policy, const char* reason,
                 uint32_t tenant = kNoAuditTenant);
  void IlpSolve(uint32_t executor, int32_t job_id, uint32_t universe, uint32_t chose_memory,
                uint32_t chose_disk, uint32_t chose_drop, double solve_ms,
                const char* policy, const char* reason, uint32_t tenant = kNoAuditTenant);

  // All retained records across executors, in decision (seq) order.
  std::vector<AuditRecord> Snapshot() const;

  // One JSON object per line, in decision order.
  void WriteJsonl(std::ostream& os) const;

  // Records overwritten before export (rings full).
  uint64_t dropped() const;

  void Reset();

 private:
  struct Ring {
    mutable SpinLock mu;
    std::vector<AuditRecord> slots;
    uint64_t head = 0;
    uint64_t dropped = 0;
  };

  void Push(uint32_t executor, AuditRecord&& record);

  std::vector<Ring> rings_;
  size_t capacity_;
  std::atomic<uint64_t> seq_{0};
  // Live audit.{admit,evict,unpersist,ilp_solve} counters, indexed by
  // AuditKind; Push is the one chokepoint so the registry's decision counts
  // always equal what the rings recorded (modulo ring overwrites, which drop
  // detail but were still counted).
  class TelemetryCounter* kind_counters_[4] = {};
};

}  // namespace blaze

#endif  // SRC_METRICS_AUDIT_LOG_H_
