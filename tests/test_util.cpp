#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <set>
#include <thread>

#include "util/bitmap.hpp"
#include "util/rng.hpp"
#include "util/table_printer.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace graphm::util {
namespace {

TEST(Bitmap, SetGetClear) {
  AtomicBitmap bitmap(130);
  EXPECT_EQ(bitmap.size(), 130u);
  EXPECT_FALSE(bitmap.get(0));
  EXPECT_TRUE(bitmap.set(0));
  EXPECT_FALSE(bitmap.set(0)) << "second set reports already-set";
  EXPECT_TRUE(bitmap.get(0));
  EXPECT_TRUE(bitmap.set(129));
  EXPECT_EQ(bitmap.count(), 2u);
  EXPECT_TRUE(bitmap.clear(0));
  EXPECT_FALSE(bitmap.clear(0));
  EXPECT_EQ(bitmap.count(), 1u);
}

TEST(Bitmap, SetAllRespectsSize) {
  AtomicBitmap bitmap(70);
  bitmap.set_all();
  EXPECT_EQ(bitmap.count(), 70u);
  bitmap.clear_all();
  EXPECT_EQ(bitmap.count(), 0u);
  EXPECT_FALSE(bitmap.any());
}

TEST(Bitmap, CountRangeAndAnyInRange) {
  AtomicBitmap bitmap(256);
  for (std::size_t i = 0; i < 256; i += 8) bitmap.set(i);
  EXPECT_EQ(bitmap.count_range(0, 256), 32u);
  EXPECT_EQ(bitmap.count_range(0, 8), 1u);
  EXPECT_EQ(bitmap.count_range(1, 8), 0u);
  EXPECT_TRUE(bitmap.any_in_range(64, 128));
  EXPECT_FALSE(bitmap.any_in_range(65, 72));
}

TEST(Bitmap, ForEachSetVisitsInOrder) {
  AtomicBitmap bitmap(200);
  const std::set<std::size_t> expected = {3, 64, 65, 130, 199};
  for (std::size_t i : expected) bitmap.set(i);
  std::vector<std::size_t> seen;
  bitmap.for_each_set([&](std::size_t i) { seen.push_back(i); });
  EXPECT_EQ(std::vector<std::size_t>(expected.begin(), expected.end()), seen);
}

TEST(Bitmap, ConcurrentSetCountsEveryFirstSet) {
  AtomicBitmap bitmap(10000);
  std::atomic<std::size_t> first_sets{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (std::size_t i = 0; i < 10000; ++i) {
        if (bitmap.set(i)) first_sets.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(first_sets.load(), 10000u) << "each bit's first set observed exactly once";
  EXPECT_EQ(bitmap.count(), 10000u);
}

TEST(Bitmap, NextSetInRange) {
  AtomicBitmap bitmap(300);
  bitmap.set(5);
  bitmap.set(64);
  bitmap.set(250);
  EXPECT_EQ(bitmap.next_set_in_range(0, 300), 5u);
  EXPECT_EQ(bitmap.next_set_in_range(5, 300), 5u) << "begin itself counts";
  EXPECT_EQ(bitmap.next_set_in_range(6, 300), 64u);
  EXPECT_EQ(bitmap.next_set_in_range(65, 250), 250u) << "none in range returns end";
  EXPECT_EQ(bitmap.next_set_in_range(65, 300), 250u);
  EXPECT_EQ(bitmap.next_set_in_range(251, 300), 300u);
  EXPECT_EQ(bitmap.next_set_in_range(100, 100), 100u) << "empty range";
  EXPECT_EQ(bitmap.next_set_in_range(250, 1000), 250u) << "end clamps to size";
}

TEST(Bitmap, NextSetInRangeAgreesWithLinearScan) {
  AtomicBitmap bitmap(517);
  for (std::size_t i = 0; i < 517; i += 13) bitmap.set(i);
  for (std::size_t begin = 0; begin < 517; begin += 7) {
    std::size_t expected = 517;
    for (std::size_t i = begin; i < 517; ++i) {
      if (bitmap.get(i)) {
        expected = i;
        break;
      }
    }
    EXPECT_EQ(bitmap.next_set_in_range(begin, 517), expected) << "begin=" << begin;
  }
}

TEST(Bitmap, WordExposesRawBits) {
  AtomicBitmap bitmap(130);
  bitmap.set(0);
  bitmap.set(63);
  bitmap.set(64);
  bitmap.set(129);
  ASSERT_EQ(bitmap.num_words(), 3u);
  EXPECT_EQ(bitmap.word(0), (1ULL << 63) | 1ULL);
  EXPECT_EQ(bitmap.word(1), 1ULL);
  EXPECT_EQ(bitmap.word(2), 1ULL << (129 - 128));
}

TEST(Bitmap, WordCacheMatchesGet) {
  AtomicBitmap bitmap(1000);
  for (std::size_t i = 0; i < 1000; i += 3) bitmap.set(i);
  WordCache cache(bitmap);
  // Mixed strides so the cache both hits and reloads.
  for (std::size_t i = 0; i < 1000; ++i) EXPECT_EQ(cache.test(i), bitmap.get(i));
  for (std::size_t i = 999; i-- > 0;) EXPECT_EQ(cache.test(i), bitmap.get(i));
}

TEST(Bitmap, CopySemantics) {
  AtomicBitmap a(100);
  a.set(42);
  AtomicBitmap b(a);
  EXPECT_TRUE(b.get(42));
  b.set(43);
  EXPECT_FALSE(a.get(43)) << "copies are independent";
  a = b;
  EXPECT_TRUE(a.get(43));
}

TEST(Rng, Deterministic) {
  SplitMix64 a(1234);
  SplitMix64 b(1234);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DoublesInRange) {
  SplitMix64 rng(99);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ExponentialMeanApproximatesRate) {
  SplitMix64 rng(5);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += exponential_sample(rng, 4.0);
  EXPECT_NEAR(sum / n, 0.25, 0.02);
}

TEST(TablePrinter, AlignsColumns) {
  TablePrinter table("demo");
  table.set_header({"a", "longer"});
  table.add_row({"xxxx", "1"});
  const std::string out = table.to_string();
  EXPECT_NE(out.find("demo"), std::string::npos);
  EXPECT_NE(out.find("xxxx"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
}

TEST(TablePrinter, FmtPrecision) {
  EXPECT_EQ(TablePrinter::fmt(1.23456, 2), "1.23");
  EXPECT_EQ(TablePrinter::fmt(2.0, 0), "2");
}

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) pool.submit([&] { count.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  pool.parallel_for(64, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ConcurrentParallelForCallsAreIndependent) {
  // Several jobs share one engine pool: each parallel_for call must complete
  // exactly its own indices and return without waiting for the others' work.
  ThreadPool pool(3);
  constexpr int kCallers = 6;
  constexpr std::size_t kN = 200;
  std::vector<std::atomic<int>> hits(kCallers * kN);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      pool.parallel_for(kN, [&, c](std::size_t i) {
        hits[static_cast<std::size_t>(c) * kN + i].fetch_add(1);
      });
    });
  }
  for (auto& t : callers) t.join();
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForReturnsOnceCallerDrainsIndices) {
  // Every pool worker is held by another task (another job's blocks in the
  // shared engine pool), so parallel_for's helpers sit in the queue. The
  // caller runs every index itself and must return without waiting for the
  // queued helpers; when they run later they find nothing left and must not
  // touch fn.
  ThreadPool pool(2);
  std::promise<void> release;
  const std::shared_future<void> released = release.get_future().share();
  std::atomic<int> blocked{0};
  for (std::size_t w = 0; w < pool.size(); ++w) {
    pool.submit([&blocked, released] {
      blocked.fetch_add(1);
      released.wait();
    });
  }
  while (blocked.load() != static_cast<int>(pool.size())) std::this_thread::yield();

  constexpr std::size_t kN = 16;
  std::vector<std::atomic<int>> hits(kN);
  auto call = std::async(std::launch::async, [&] {
    pool.parallel_for(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  });
  // Bounded wait: a regression fails here instead of hanging the suite.
  const bool returned = call.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  release.set_value();
  call.get();
  pool.wait_idle();
  EXPECT_TRUE(returned) << "parallel_for waited for helpers queued behind blocked workers";
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Timer, MeasuresElapsed) {
  Timer timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_GE(timer.elapsed_ms(), 4.0);
}

TEST(Timer, ScopedAccumulator) {
  std::uint64_t sink = 0;
  {
    ScopedAccumulator acc(sink);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GE(sink, 1'000'000u);
}

}  // namespace
}  // namespace graphm::util
