// Lifetime-scoped bump-pointer allocator for block payloads.
//
// A BlockArena is owned by exactly one block (ColumnarBlock today): the
// block's variable-length payload — flattened column slabs, string bytes,
// offset tables — is carved out of a few large chunks instead of one heap
// allocation per row, and the whole arena is returned in one Release() when
// the owning block dies (unpersist, eviction past the last pinned reader,
// the spill queue dropping its write-claim). This is the Deca-style
// lifetime-based management from PAPERS.md: allocation lifetime is bound to
// the block's persist/unpersist window, so teardown is O(chunks), not O(rows).
//
// Accounting contract with the MemoryArbiter ledger (PR 5): bytes_reserved()
// is frozen once the owning block finishes building, the block folds it into
// SizeBytes(), and MemoryStore charges/releases exactly that recorded number
// on Put/Remove — so the ledger balances to zero when every arena-backed
// block is gone. TotalLiveBytes() is the process-wide sum of reserved chunk
// bytes, exported as the `arena.live_bytes` registry gauge.
//
// Only trivially-destructible element types may live in an arena: Release()
// frees memory without running destructors.
#ifndef SRC_COMMON_BLOCK_ARENA_H_
#define SRC_COMMON_BLOCK_ARENA_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "src/common/logging.h"

namespace blaze {

class BlockArena {
 public:
  BlockArena() = default;
  // Pre-reserves one chunk of exactly `initial_reserve` bytes; a builder that
  // knows its payload size up front (BlazeColumns::ArenaBytes) gets a single
  // chunk and zero slack.
  explicit BlockArena(size_t initial_reserve) {
    if (initial_reserve > 0) {
      AddChunk(initial_reserve);
    }
  }
  ~BlockArena() { Release(); }

  BlockArena(const BlockArena&) = delete;
  BlockArena& operator=(const BlockArena&) = delete;

  // Chunk-aligned bump allocation. Alignment must be a power of two and is
  // capped by the chunk alignment of operator new[] (16 in practice).
  void* Allocate(size_t bytes, size_t align = 8) {
    BLAZE_CHECK_GT(align, 0u);
    BLAZE_CHECK_EQ(align & (align - 1), 0u) << "alignment must be a power of two";
    if (bytes == 0) {
      return nullptr;
    }
    if (chunks_.empty() || !Fits(chunks_.back(), bytes, align)) {
      // Geometric growth so a builder without an up-front size estimate still
      // does O(log n) chunk allocations.
      const size_t grow = chunks_.empty() ? kMinChunkBytes : chunks_.back().size * 2;
      AddChunk(grow > bytes ? grow : bytes + align);
    }
    Chunk& chunk = chunks_.back();
    const size_t start = AlignUp(chunk.used, align);
    chunk.used = start + bytes;
    used_ += bytes;
    return chunk.data.get() + start;
  }

  template <typename T>
  T* AllocateArray(size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena payloads are freed without running destructors");
    static_assert(std::is_trivially_copyable_v<T>);
    return static_cast<T*>(Allocate(n * sizeof(T), alignof(T)));
  }

  // Bulk free: drops every chunk at once. No destructors run (the whole
  // point); the process-wide live counter is debited here.
  void Release() {
    if (reserved_ > 0) {
      total_live_bytes_.fetch_sub(reserved_, std::memory_order_relaxed);
    }
    chunks_.clear();
    reserved_ = 0;
    used_ = 0;
  }

  // Bytes held from the allocator (what the owning block reports to the
  // memory ledger). >= bytes_used by at most alignment + growth slack.
  size_t bytes_reserved() const { return reserved_; }
  size_t bytes_used() const { return used_; }

  // Rounds a column's byte footprint up to the arena allocation granularity;
  // size estimators (BlazeColumns::ArenaBytes) use it so a single-chunk
  // reservation is exact.
  static constexpr size_t Aligned(size_t bytes) { return AlignUp(bytes, 8); }

  // Process-wide reserved bytes across all live arenas (metrics/tests).
  static uint64_t TotalLiveBytes() {
    return total_live_bytes_.load(std::memory_order_relaxed);
  }

 private:
  struct Chunk {
    std::unique_ptr<uint8_t[]> data;
    size_t size = 0;
    size_t used = 0;
  };

  static constexpr size_t kMinChunkBytes = 4096;

  static constexpr size_t AlignUp(size_t v, size_t align) {
    return (v + align - 1) & ~(align - 1);
  }

  static bool Fits(const Chunk& chunk, size_t bytes, size_t align) {
    const size_t start = AlignUp(chunk.used, align);
    return start + bytes <= chunk.size;
  }

  void AddChunk(size_t bytes) {
    Chunk chunk;
    chunk.data = std::make_unique<uint8_t[]>(bytes);
    chunk.size = bytes;
    chunks_.push_back(std::move(chunk));
    reserved_ += bytes;
    total_live_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }

  std::vector<Chunk> chunks_;
  size_t reserved_ = 0;
  size_t used_ = 0;

  static inline std::atomic<uint64_t> total_live_bytes_{0};
};

// Non-owning typed span over one column carved out of a BlockArena. The
// arena (and thus the owning block) must outlive every ArenaColumn into it.
template <typename T>
class ArenaColumn {
 public:
  ArenaColumn() = default;

  static ArenaColumn Make(BlockArena& arena, size_t n) {
    ArenaColumn col;
    col.data_ = arena.AllocateArray<T>(n);
    col.size_ = n;
    return col;
  }

  T* data() { return data_; }
  const T* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  T& operator[](size_t i) { return data_[i]; }
  const T& operator[](size_t i) const { return data_[i]; }

  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

 private:
  T* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace blaze

#endif  // SRC_COMMON_BLOCK_ARENA_H_
