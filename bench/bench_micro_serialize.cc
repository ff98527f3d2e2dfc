// Micro-benchmarks for the serialization substrate: per-type encode/decode
// throughput, columnar-vs-row block codecs, and arena-vs-heap block
// build/teardown. FactorVec (SVD++) is intentionally several times slower per
// byte than LabeledPoint through the row codec, reproducing the paper's §7.2
// observation that SVD++ partitions serialize 2.5-6.4x slower; the columnar
// layout collapses that gap to a handful of bulk column copies. BM_Crc32
// reports the checksum every disk block and net frame pays, in bytes/s.
//
// CI floors (enforced after the google-benchmark run, exit 1 on miss):
//   BLAZE_MICRO_SERIALIZE_MIN_COLUMNAR_SPEEDUP  columnar vs row encode of the
//                                               string-bearing type (LogEvent)
//   BLAZE_MICRO_SERIALIZE_MIN_ARENA_SPEEDUP     arena vs heap block teardown
//                                               of the nested-vector type
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/crc32.h"
#include "src/common/rng.h"
#include "src/common/stopwatch.h"
#include "src/dataflow/typed_block.h"
#include "src/serialize/codec.h"
#include "src/workloads/element_types.h"

namespace blaze {
namespace {

std::vector<std::pair<uint32_t, double>> MakePairs(size_t n) {
  Rng rng(3);
  std::vector<std::pair<uint32_t, double>> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.emplace_back(static_cast<uint32_t>(rng.NextU64()), rng.NextDouble());
  }
  return out;
}

std::vector<LabeledPoint> MakePoints(size_t n, uint32_t dim) {
  Rng rng(4);
  std::vector<LabeledPoint> out(n);
  for (auto& p : out) {
    p.label = rng.NextDouble();
    p.features.resize(dim);
    for (double& f : p.features) {
      f = rng.NextDouble();
    }
  }
  return out;
}

std::vector<FactorVec> MakeFactors(size_t n, uint32_t rank) {
  Rng rng(5);
  std::vector<FactorVec> out(n);
  for (auto& f : out) {
    f.values.resize(rank);
    for (double& v : f.values) {
      v = rng.NextDouble();
    }
    f.bias = rng.NextDouble();
    f.weight = rng.NextDouble();
  }
  return out;
}

std::vector<LogEvent> MakeLogEvents(size_t n, size_t avg_len) {
  Rng rng(6);
  std::vector<LogEvent> out(n);
  for (auto& e : out) {
    e.timestamp = rng.NextU64();
    e.severity = static_cast<uint32_t>(rng.NextU64(8));
    const size_t len = 1 + rng.NextU64(2 * avg_len);
    e.message.resize(len);
    for (char& c : e.message) {
      c = static_cast<char>('a' + rng.NextU64(26));
    }
  }
  return out;
}

template <typename T>
void RoundTripBench(benchmark::State& state, const std::vector<T>& data) {
  uint64_t bytes = 0;
  for (auto _ : state) {
    ByteSink sink;
    Encode(data, sink);
    bytes = sink.size();
    ByteSource src(sink.data());
    auto back = Decode<std::vector<T>>(src);
    benchmark::DoNotOptimize(back.size());
  }
  state.SetBytesProcessed(static_cast<int64_t>(bytes) * state.iterations() * 2);
}

// Columnar counterpart: encode from a pre-built ColumnarBlock (the cached
// representation) and decode back into a columnar block — the spill/load
// round trip the storage layer actually performs for these blocks.
template <typename T>
void ColumnarRoundTripBench(benchmark::State& state, const std::vector<T>& data) {
  const ColumnarBlock<T> block(data);
  uint64_t bytes = 0;
  for (auto _ : state) {
    ByteSink sink;
    block.EncodeTo(sink);
    bytes = sink.size();
    ByteSource src(sink.data());
    auto back = ColumnarBlock<T>::DecodeFrom(src);
    benchmark::DoNotOptimize(back->NumRows());
  }
  state.SetBytesProcessed(static_cast<int64_t>(bytes) * state.iterations() * 2);
}

void BM_EncodePairs(benchmark::State& state) { RoundTripBench(state, MakePairs(10000)); }
BENCHMARK(BM_EncodePairs);

void BM_ColumnarEncodePairs(benchmark::State& state) {
  ColumnarRoundTripBench(state, MakePairs(10000));
}
BENCHMARK(BM_ColumnarEncodePairs);

void BM_EncodeLabeledPoints(benchmark::State& state) {
  RoundTripBench(state, MakePoints(1000, 32));
}
BENCHMARK(BM_EncodeLabeledPoints);

void BM_ColumnarEncodeLabeledPoints(benchmark::State& state) {
  ColumnarRoundTripBench(state, MakePoints(1000, 32));
}
BENCHMARK(BM_ColumnarEncodeLabeledPoints);

void BM_EncodeFactorVecs(benchmark::State& state) {
  RoundTripBench(state, MakeFactors(4000, 8));
}
BENCHMARK(BM_EncodeFactorVecs);

void BM_ColumnarEncodeFactorVecs(benchmark::State& state) {
  ColumnarRoundTripBench(state, MakeFactors(4000, 8));
}
BENCHMARK(BM_ColumnarEncodeFactorVecs);

void BM_EncodeLogEvents(benchmark::State& state) {
  RoundTripBench(state, MakeLogEvents(10000, 48));
}
BENCHMARK(BM_EncodeLogEvents);

void BM_ColumnarEncodeLogEvents(benchmark::State& state) {
  ColumnarRoundTripBench(state, MakeLogEvents(10000, 48));
}
BENCHMARK(BM_ColumnarEncodeLogEvents);

// Block lifecycle: build the cached representation from computed rows, then
// tear it down — the admission + unpersist/eviction path. Heap blocks pay one
// allocation (and destructor) per nested row payload; arena blocks bulk-copy
// into a single reservation released in one arena drop.
void BM_HeapBlockBuildTeardownFactorVecs(benchmark::State& state) {
  const auto rows = MakeFactors(4000, 8);
  for (auto _ : state) {
    auto block = std::make_shared<const TypedBlock<FactorVec>>(std::vector<FactorVec>(rows));
    benchmark::DoNotOptimize(block->SizeBytes());
    block.reset();
  }
}
BENCHMARK(BM_HeapBlockBuildTeardownFactorVecs);

void BM_ArenaBlockBuildTeardownFactorVecs(benchmark::State& state) {
  const auto rows = MakeFactors(4000, 8);
  for (auto _ : state) {
    auto block = std::make_shared<const ColumnarBlock<FactorVec>>(rows);
    benchmark::DoNotOptimize(block->SizeBytes());
    block.reset();
  }
}
BENCHMARK(BM_ArenaBlockBuildTeardownFactorVecs);

void BM_ByteSizeEstimation(benchmark::State& state) {
  const auto points = MakePoints(1000, 32);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ApproxByteSize(points));
  }
}
BENCHMARK(BM_ByteSizeEstimation);

// The CRC-32 trailer of every disk block write/read and net frame.
void BM_Crc32(benchmark::State& state) {
  Rng rng(7);
  std::vector<uint8_t> buf(static_cast<size_t>(state.range(0)));
  for (auto& b : buf) {
    b = static_cast<uint8_t>(rng.NextU64());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(buf.data(), buf.size()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(buf.size()) * state.iterations());
}
BENCHMARK(BM_Crc32)->Arg(4 << 10)->Arg(48 << 10)->Arg(256 << 10);

// --- CI floors ----------------------------------------------------------------------

double BestOfMillis(int reps, const std::function<void()>& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    Stopwatch watch;
    fn();
    best = std::min(best, watch.ElapsedMillis());
  }
  return best;
}

// Columnar encode must beat the row codec on the string-bearing type by the
// configured factor (the representation exists to make serialization cheap).
int CheckColumnarEncodeFloor(double min_speedup) {
  const auto rows = MakeLogEvents(20000, 48);
  const ColumnarBlock<LogEvent> block(rows);
  const double row_ms = BestOfMillis(7, [&rows] {
    ByteSink sink;
    Encode(rows, sink);
    benchmark::DoNotOptimize(sink.size());
  });
  const double col_ms = BestOfMillis(7, [&block] {
    ByteSink sink;
    block.EncodeTo(sink);
    benchmark::DoNotOptimize(sink.size());
  });
  const double speedup = row_ms / col_ms;
  std::printf("columnar encode floor (LogEvent): row %.3f ms, columnar %.3f ms, "
              "speedup %.2fx (floor %.2fx)\n",
              row_ms, col_ms, speedup, min_speedup);
  if (speedup < min_speedup) {
    std::fprintf(stderr, "FAILED: columnar encode speedup %.2fx below floor %.2fx\n",
                 speedup, min_speedup);
    return 1;
  }
  return 0;
}

// Arena teardown must beat heap teardown on the nested-vector type: releasing
// a few chunks vs running one vector destructor per row.
int CheckArenaTeardownFloor(double min_speedup) {
  const auto rows = MakeFactors(20000, 8);
  // Time only the teardown: rebuild untimed each rep.
  double heap_teardown = 1e300, arena_teardown = 1e300;
  for (int r = 0; r < 7; ++r) {
    auto heap_block = std::make_unique<TypedBlock<FactorVec>>(std::vector<FactorVec>(rows));
    Stopwatch hw;
    heap_block.reset();
    heap_teardown = std::min(heap_teardown, hw.ElapsedMillis());
    auto arena_block = std::make_unique<ColumnarBlock<FactorVec>>(rows);
    Stopwatch aw;
    arena_block.reset();
    arena_teardown = std::min(arena_teardown, aw.ElapsedMillis());
  }
  const double speedup = heap_teardown / arena_teardown;
  std::printf("arena teardown floor (FactorVec): heap %.3f ms, arena %.3f ms, "
              "speedup %.2fx (floor %.2fx)\n",
              heap_teardown, arena_teardown, speedup, min_speedup);
  if (speedup < min_speedup) {
    std::fprintf(stderr, "FAILED: arena teardown speedup %.2fx below floor %.2fx\n",
                 speedup, min_speedup);
    return 1;
  }
  return 0;
}

int RunFloors() {
  int rc = 0;
  if (const char* env = std::getenv("BLAZE_MICRO_SERIALIZE_MIN_COLUMNAR_SPEEDUP")) {
    rc |= CheckColumnarEncodeFloor(std::atof(env));
  }
  if (const char* env = std::getenv("BLAZE_MICRO_SERIALIZE_MIN_ARENA_SPEEDUP")) {
    rc |= CheckArenaTeardownFloor(std::atof(env));
  }
  return rc;
}

}  // namespace
}  // namespace blaze

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return blaze::RunFloors();
}
