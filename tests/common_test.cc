#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstring>
#include <functional>
#include <set>
#include <vector>

#include "src/common/countdown_latch.h"
#include "src/common/crc32.h"
#include "src/common/rng.h"
#include "src/common/stopwatch.h"
#include "src/common/thread_pool.h"
#include "src/common/units.h"

namespace blaze {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, BoundedStaysInBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextU64(17), 17u);
  }
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, GaussianMomentsApproximatelyStandard) {
  Rng rng(11);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, PowerLawFavorsLowRanks) {
  Rng rng(13);
  const uint64_t n = 1000;
  int low = 0;
  const int samples = 10000;
  for (int i = 0; i < samples; ++i) {
    const uint64_t r = rng.NextPowerLaw(n, 1.6);
    ASSERT_LT(r, n);
    if (r < n / 10) {
      ++low;
    }
  }
  // A heavy-tailed distribution concentrates most mass in the first decile.
  EXPECT_GT(low, samples / 2);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(17);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto original = v;
  rng.Shuffle(v);
  std::multiset<int> a(v.begin(), v.end());
  std::multiset<int> b(original.begin(), original.end());
  EXPECT_EQ(a, b);
}

TEST(UnitsTest, FormatBytesPicksScale) {
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(KiB(2)), "2.00 KiB");
  EXPECT_EQ(FormatBytes(MiB(3)), "3.00 MiB");
  EXPECT_EQ(FormatBytes(GiB(1)), "1.00 GiB");
}

TEST(UnitsTest, FormatMillisPicksScale) {
  EXPECT_EQ(FormatMillis(1.5), "1.50 ms");
  EXPECT_EQ(FormatMillis(2500.0), "2.500 s");
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.Submit([&count] { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 1);
  pool.Submit([&count] { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 2);
}

TEST(ThreadPoolTest, TasksRunConcurrently) {
  ThreadPool pool(4);
  std::atomic<int> in_flight{0};
  std::atomic<int> max_in_flight{0};
  for (int i = 0; i < 16; ++i) {
    pool.Submit([&] {
      const int now = in_flight.fetch_add(1) + 1;
      int expected = max_in_flight.load();
      while (now > expected && !max_in_flight.compare_exchange_weak(expected, now)) {
      }
      Stopwatch w;
      while (w.ElapsedMillis() < 5) {
      }
      in_flight.fetch_sub(1);
    });
  }
  pool.Wait();
  EXPECT_GE(max_in_flight.load(), 2);
}

TEST(ThreadPoolTest, SubmitBatchRunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::function<void()>> batch;
  for (int i = 0; i < 100; ++i) {
    batch.push_back([&count] { count.fetch_add(1); });
  }
  pool.SubmitBatch(std::move(batch));
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
  pool.SubmitBatch({});  // empty batch is a no-op
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, BatchSpreadsAcrossWorkersConcurrently) {
  ThreadPool pool(4);
  std::atomic<int> in_flight{0};
  std::atomic<int> max_in_flight{0};
  std::vector<std::function<void()>> batch;
  for (int i = 0; i < 16; ++i) {
    batch.push_back([&] {
      const int now = in_flight.fetch_add(1) + 1;
      int expected = max_in_flight.load();
      while (now > expected && !max_in_flight.compare_exchange_weak(expected, now)) {
      }
      Stopwatch w;
      while (w.ElapsedMillis() < 5) {
      }
      in_flight.fetch_sub(1);
    });
  }
  pool.SubmitBatch(std::move(batch));
  pool.Wait();
  EXPECT_GE(max_in_flight.load(), 2);
}

TEST(CountdownLatchTest, WaitReturnsWhenCountHitsZero) {
  CountdownLatch latch(3);
  ThreadPool pool(3);
  std::atomic<int> done{0};
  for (int i = 0; i < 3; ++i) {
    pool.Submit([&] {
      done.fetch_add(1);
      latch.CountDown();
    });
  }
  latch.Wait();
  EXPECT_EQ(done.load(), 3);
  pool.Wait();
}

TEST(CountdownLatchTest, ZeroCountWaitsNothing) {
  CountdownLatch latch(0);
  latch.Wait();  // must not block
  EXPECT_EQ(latch.count(), 0u);
}

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch watch;
  Stopwatch busy;
  while (busy.ElapsedMillis() < 10) {
  }
  EXPECT_GE(watch.ElapsedMillis(), 9.0);
}

TEST(ScopedTimerTest, AccumulatesIntoSink) {
  double sink = 0.0;
  {
    ScopedTimer timer(&sink);
    Stopwatch busy;
    while (busy.ElapsedMillis() < 5) {
    }
  }
  EXPECT_GE(sink, 4.0);
}

// The byte-at-a-time CRC-32 loop, kept as an oracle for the sliced kernel.
uint32_t Crc32Bytewise(const uint8_t* data, size_t len) {
  static constexpr std::array<uint32_t, 256> kTable = internal::MakeCrc32Table();
  uint32_t c = 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    c = kTable[(c ^ data[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, KnownAnswers) {
  const char* check = "123456789";
  EXPECT_EQ(Crc32(reinterpret_cast<const uint8_t*>(check), std::strlen(check)), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
  const std::array<uint8_t, 32> zeros{};
  EXPECT_EQ(Crc32(zeros.data(), zeros.size()), 0x190A55ADu);
}

TEST(Crc32Test, MatchesBytewiseOracleAtEveryLengthAndOffset) {
  // Every length 0..1100 from every start offset 0..7: each tail length and
  // each alignment of the 8-byte steps against the buffer.
  Rng rng(0xC3C32);
  std::vector<uint8_t> buf(1100 + 8);
  for (auto& b : buf) {
    b = static_cast<uint8_t>(rng.NextU64());
  }
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 1100; ++len) {
      const uint8_t* p = buf.data() + offset;
      ASSERT_EQ(Crc32(p, len), Crc32Bytewise(p, len)) << "offset " << offset << " len " << len;
    }
  }
}

}  // namespace
}  // namespace blaze
