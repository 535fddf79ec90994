#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "sim/cache_sim.hpp"
#include "sim/memory_tracker.hpp"
#include "sim/page_cache.hpp"
#include "sim/platform.hpp"
#include "util/rng.hpp"

namespace graphm::sim {
namespace {

TEST(CacheSim, ColdMissThenHit) {
  CacheSim cache(64 * 1024, 16, 64);
  cache.access(0x1000, 0);
  cache.access(0x1000, 0);
  const CacheStats stats = cache.total_stats();
  EXPECT_EQ(stats.accesses, 2u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.bytes_swapped_in, 64u);
}

TEST(CacheSim, RangeWalksCacheLines) {
  CacheSim cache(64 * 1024, 16, 64);
  cache.access_range(0, 640, 0);  // 10 lines
  EXPECT_EQ(cache.total_stats().misses, 10u);
  cache.access_range(0, 640, 1);  // same lines, other job: all hits
  EXPECT_EQ(cache.total_stats().misses, 10u);
  EXPECT_EQ(cache.job_stats(1).misses, 0u);
}

TEST(CacheSim, DistinctBuffersMissSeparately) {
  // The -C vs -M mechanism: two jobs over private copies double the misses.
  CacheSim cache(1024 * 1024, 16, 64);
  cache.access_range(0x100000, 64 * 100, 0);
  cache.access_range(0x900000, 64 * 100, 1);
  EXPECT_EQ(cache.total_stats().misses, 200u);
}

TEST(CacheSim, LruEvictionWithinSet) {
  // 2-way, 2 sets, 64B lines: capacity 4 lines. Lines 0,2,4 map to set 0.
  CacheSim cache(4 * 64, 2, 64);
  cache.access(0 * 64, 0);    // miss, set0 way0
  cache.access(2 * 64, 0);    // miss, set0 way1
  cache.access(0 * 64, 0);    // hit (refreshes line 0)
  cache.access(4 * 64, 0);    // miss, evicts line 2 (LRU)
  cache.access(0 * 64, 0);    // hit
  cache.access(2 * 64, 0);    // miss again (was evicted)
  EXPECT_EQ(cache.total_stats().misses, 4u);
  EXPECT_EQ(cache.total_stats().accesses, 6u);
}

TEST(CacheSim, CapacityExceededCausesRepeatMisses) {
  CacheSim cache(64 * 64, 4, 64);  // 64 lines capacity
  // Stream 256 lines twice: both passes miss everything (streaming >> LLC).
  cache.access_range(0, 64 * 256, 0);
  const auto first = cache.total_stats().misses;
  cache.access_range(0, 64 * 256, 0);
  const auto second = cache.total_stats().misses - first;
  EXPECT_EQ(first, 256u);
  EXPECT_EQ(second, 256u);
}

TEST(CacheSim, ResetClearsContents) {
  CacheSim cache(64 * 1024, 16, 64);
  cache.access(0, 0);
  cache.reset();
  EXPECT_EQ(cache.total_stats().accesses, 0u);
  cache.access(0, 0);
  EXPECT_EQ(cache.total_stats().misses, 1u) << "contents invalidated by reset";
}

// The per-line LRU walk CacheSim used before it fast-forwarded ranges: every
// line is looked up, an invalid way is preferred, otherwise the oldest is
// evicted. The differential test below holds CacheSim to it.
class PerLineLru {
 public:
  PerLineLru(std::size_t capacity_bytes, std::size_t ways, std::size_t line_bytes)
      : ways_(ways), line_bytes_(line_bytes) {
    const std::size_t sets = std::max<std::size_t>(1, capacity_bytes / (ways * line_bytes));
    num_sets_ = std::bit_floor(sets);
    sets_.assign(num_sets_ * ways_, Way{});
  }

  void access(std::uint64_t addr, std::uint32_t job) { access_line(addr / line_bytes_, job, 1); }

  void access_range(std::uint64_t base, std::size_t len, std::uint32_t job, std::uint32_t weight) {
    if (len == 0 || weight == 0) return;
    for (std::uint64_t line = base / line_bytes_; line <= (base + len - 1) / line_bytes_; ++line) {
      access_line(line, job, weight);
    }
  }

  void reset_stats() {
    total_ = CacheStats{};
    per_job_.clear();
  }

  [[nodiscard]] const CacheStats& total_stats() const { return total_; }
  [[nodiscard]] CacheStats job_stats(std::uint32_t job) const {
    return job < per_job_.size() ? per_job_[job] : CacheStats{};
  }

 private:
  struct Way {
    std::uint64_t tag = ~0ULL;
    std::uint64_t last_use = 0;
    bool valid = false;
  };

  void access_line(std::uint64_t line_addr, std::uint32_t job, std::uint32_t weight) {
    Way* base = &sets_[static_cast<std::size_t>(line_addr & (num_sets_ - 1)) * ways_];
    if (job >= per_job_.size()) per_job_.resize(job + 1);
    CacheStats& js = per_job_[job];
    std::size_t victim = 0;
    bool hit = false;
    std::uint64_t oldest = ~0ULL;
    for (std::size_t w = 0; w < ways_; ++w) {
      if (base[w].valid && base[w].tag == line_addr) {
        hit = true;
        victim = w;
        break;
      }
      if (!base[w].valid) {
        victim = w;
        oldest = 0;
      } else if (base[w].last_use < oldest) {
        oldest = base[w].last_use;
        victim = w;
      }
    }
    total_.accesses += weight;
    js.accesses += weight;
    if (!hit) {
      total_.misses += 1;
      total_.bytes_swapped_in += line_bytes_;
      js.misses += 1;
      js.bytes_swapped_in += line_bytes_;
      base[victim].tag = line_addr;
      base[victim].valid = true;
    }
    base[victim].last_use = ++tick_;
  }

  std::size_t ways_;
  std::size_t line_bytes_;
  std::size_t num_sets_ = 1;
  std::uint64_t tick_ = 0;
  std::vector<Way> sets_;
  CacheStats total_;
  std::vector<CacheStats> per_job_;
};

bool same_stats(const CacheStats& a, const CacheStats& b) {
  return a.accesses == b.accesses && a.misses == b.misses &&
         a.bytes_swapped_in == b.bytes_swapped_in;
}

TEST(CacheSim, FastForwardMatchesPerLineReference) {
  struct Geometry {
    std::size_t capacity, ways, line;
  };
  // 16-, 8-, 4- and 1-way; 5 x 4 x 64 rounds down to 4 sets. 12-way (not a
  // power of two) has 8 sets, and 32-way (more than 16) has 4.
  const Geometry geometries[] = {{16 * 1024, 16, 64}, {8 * 1024, 8, 64}, {5 * 4 * 64, 4, 64},
                                 {64 * 64, 1, 64},    {8 * 12 * 64, 12, 64}, {4 * 32 * 64, 32, 64}};
  constexpr std::uint32_t kJobs = 5;
  // The first pass reads after every call, so each call is applied on its
  // own. The second issues the same calls and reads only at the end (a
  // reset_stats still waits for the calls before it), so the applier replays
  // them in batches: a dropped, repeated or reordered call shows there.
  for (const bool read_every_call : {true, false}) {
    for (const Geometry& geo : geometries) {
      SCOPED_TRACE(::testing::Message() << geo.ways << "-way, " << geo.capacity << " B, "
                                        << (read_every_call ? "read every call" : "read once"));
      CacheSim fast(geo.capacity, geo.ways, geo.line);
      PerLineLru oracle(geo.capacity, geo.ways, geo.line);
      util::SplitMix64 rng(0xCAC4E + geo.ways);
      // Overlapping buffers (the second starts inside the first) plus a
      // disjoint one, so later ranges re-touch lines earlier ones left behind.
      const std::uint64_t buffers[] = {0x10000, 0x10000 + 3 * geo.capacity / 2 + 24, 0x900000};
      const auto expect_same = [&](int call) {
        ASSERT_TRUE(same_stats(fast.total_stats(), oracle.total_stats())) << "call " << call;
        for (std::uint32_t j = 0; j < kJobs; ++j) {
          ASSERT_TRUE(same_stats(fast.job_stats(j), oracle.job_stats(j)))
              << "call " << call << ", job " << j;
        }
      };
      constexpr int kCalls = 2000;
      for (int call = 0; call < kCalls; ++call) {
        const std::uint32_t job = static_cast<std::uint32_t>(rng.next_below(kJobs));
        const std::uint64_t base = buffers[rng.next_below(3)] + rng.next_below(4 * geo.capacity);
        const std::uint64_t pick = rng.next_below(20);
        if (pick == 0) {
          fast.reset_stats();
          oracle.reset_stats();
        } else if (pick < 5) {
          fast.access(base, job);
          oracle.access(base, job);
        } else {
          // Shorter than, about, and far longer than the cache (num_sets x ways).
          const std::size_t len = pick < 12 ? rng.next_below(geo.capacity) + 1
                                  : pick < 17 ? rng.next_below(3 * geo.capacity) + 1
                                              : rng.next_below(8 * geo.capacity) + 1;
          const std::uint32_t weight = static_cast<std::uint32_t>(rng.next_below(4));
          fast.access_range(base, len, job, weight);
          oracle.access_range(base, len, job, weight);
        }
        if (read_every_call) expect_same(call);
      }
      expect_same(kCalls);
    }
  }
}

// Runs `body` on its own thread and aborts the test binary if it has not
// returned within `limit`: a hung thread can be neither joined nor skipped.
void run_with_watchdog(std::chrono::seconds limit, const char* what,
                       const std::function<void()>& body) {
  std::promise<void> done;
  std::future<void> returned = done.get_future();
  std::thread runner([&] {
    body();
    done.set_value();
  });
  if (returned.wait_for(limit) != std::future_status::ready) {
    std::fprintf(stderr, "watchdog: %s did not return within %lld s\n", what,
                 static_cast<long long>(limit.count()));
    std::abort();
  }
  runner.join();
}

TEST(CacheSim, ConcurrentCallsApplyWholeOnceAndDrainOnDestruction) {
  // 64 sets x 16 ways. Applying a range of up to 512 lines costs
  // microseconds, enqueueing it tens of nanoseconds, so 4 producers of
  // 4 x kMaxPending calls each fill the backlog and block at its cap until
  // the applier catches up.
  constexpr std::size_t kLine = 64;
  constexpr std::uint32_t kProducers = 4;
  auto sim = std::make_unique<CacheSim>(64 * 16 * kLine, 16, kLine);
  const auto issue = [&](util::SplitMix64& rng, std::uint32_t job) {
    // Every producer walks the same 256 KiB window, so ranges overlap.
    const std::uint64_t base = 0x40000 + rng.next_below(256 * 1024);
    const std::size_t len = 1 + rng.next_below(512 * kLine);
    const auto weight = static_cast<std::uint32_t>(1 + rng.next_below(3));
    sim->access_range(base, len, job, weight);
    return ((base + len - 1) / kLine - base / kLine + 1) * weight;
  };

  std::uint64_t expected[kProducers] = {};
  bool monotone = true;
  std::uint64_t reads = 0;
  run_with_watchdog(std::chrono::seconds(300), "producers and reader", [&] {
    std::atomic<bool> producing{true};
    std::thread reader([&] {
      std::uint64_t last = 0;
      while (producing.load()) {
        const std::uint64_t now = sim->total_stats().accesses;
        if (now < last) monotone = false;
        last = now;
        ++reads;
      }
    });
    std::vector<std::thread> producers;
    for (std::uint32_t job = 0; job < kProducers; ++job) {
      producers.emplace_back([&, job] {
        util::SplitMix64 rng(0x5EED + job);
        for (std::size_t i = 0; i < 4 * CacheSim::kMaxPending; ++i) {
          expected[job] += issue(rng, job);
        }
      });
    }
    for (std::thread& t : producers) t.join();
    producing = false;
    reader.join();
  });
  EXPECT_TRUE(monotone) << "total accesses went backwards between reads";
  EXPECT_GT(reads, 0u);

  const CacheStats total = sim->total_stats();
  CacheStats summed;
  std::uint64_t expected_total = 0;
  for (std::uint32_t job = 0; job < kProducers; ++job) {
    const CacheStats js = sim->job_stats(job);
    EXPECT_EQ(js.accesses, expected[job]) << "job " << job;
    summed.accesses += js.accesses;
    summed.misses += js.misses;
    summed.bytes_swapped_in += js.bytes_swapped_in;
    expected_total += expected[job];
  }
  EXPECT_EQ(total.accesses, expected_total);
  EXPECT_TRUE(same_stats(summed, total));

  // Destroying the simulator with calls still pending applies them and returns.
  run_with_watchdog(std::chrono::seconds(120), "destructor", [&] {
    util::SplitMix64 rng(0xD7);
    for (std::size_t i = 0; i < CacheSim::kMaxPending; ++i) issue(rng, 0);
    sim.reset();
  });
}

TEST(CacheSim, FastForwardLeavesLastWaysPerSetResident) {
  // 4-way, 16 sets, 64 B lines: 64 lines of capacity.
  CacheSim cache(16 * 4 * 64, 4, 64);
  constexpr std::uint64_t kLines = 1000;
  cache.access_range(0, kLines * 64, 0);
  EXPECT_EQ(cache.total_stats().misses, kLines);
  // The last 4 lines of every set are the range's last 64 lines: all hit.
  cache.access_range((kLines - 64) * 64, 64 * 64, 1);
  EXPECT_EQ(cache.job_stats(1).accesses, 64u);
  EXPECT_EQ(cache.job_stats(1).misses, 0u);
  // The range's first line was evicted long ago.
  cache.access(0, 2);
  EXPECT_EQ(cache.job_stats(2).misses, 1u);
}

TEST(PageCache, MissThenHit) {
  PageCacheSim cache(1 << 20, 4096, 100e6, 0.0);
  const auto stall1 = cache.read(1, 0, 8192, 0);
  EXPECT_GT(stall1, 0u);
  const auto stall2 = cache.read(1, 0, 8192, 0);
  EXPECT_EQ(stall2, 0u);
  const IoStats stats = cache.total_stats();
  EXPECT_EQ(stats.read_bytes, 16384u);
  EXPECT_EQ(stats.disk_read_bytes, 8192u);
}

TEST(PageCache, LruEvictsOldest) {
  PageCacheSim cache(2 * 4096, 4096, 100e6, 0.0);  // 2 pages
  cache.read(1, 0, 4096, 0);      // page 0
  cache.read(1, 4096, 4096, 0);   // page 1
  cache.read(1, 8192, 4096, 0);   // page 2 evicts page 0
  EXPECT_EQ(cache.read(1, 4096, 4096, 0), 0u) << "page 1 still resident";
  EXPECT_GT(cache.read(1, 0, 4096, 0), 0u) << "page 0 was evicted";
}

TEST(PageCache, DistinctFilesDoNotCollide) {
  PageCacheSim cache(1 << 20, 4096, 100e6, 0.0);
  cache.read(1, 0, 4096, 0);
  EXPECT_GT(cache.read(2, 0, 4096, 0), 0u) << "same offset, different file misses";
}

TEST(PageCache, PerJobAttribution) {
  PageCacheSim cache(1 << 20, 4096, 100e6, 0.0);
  cache.read(1, 0, 4096, 3);
  cache.read(1, 4096, 4096, 5);
  EXPECT_EQ(cache.job_stats(3).disk_read_bytes, 4096u);
  EXPECT_EQ(cache.job_stats(5).disk_read_bytes, 4096u);
  EXPECT_EQ(cache.job_stats(4).disk_read_bytes, 0u);
}

TEST(PageCache, InvalidateFile) {
  PageCacheSim cache(1 << 20, 4096, 100e6, 0.0);
  cache.read(7, 0, 4096, 0);
  cache.invalidate_file(7);
  EXPECT_GT(cache.read(7, 0, 4096, 0), 0u);
}

TEST(PageCache, StallScalesWithBytes) {
  PageCacheSim cache(64 << 20, 4096, 100.0 * 1024 * 1024, 0.0);
  const auto small = cache.read(1, 0, 1 << 20, 0);
  const auto big = cache.read(2, 0, 8 << 20, 0);
  EXPECT_NEAR(static_cast<double>(big) / static_cast<double>(small), 8.0, 0.5);
}

TEST(MemoryTracker, PeakTracksHighWater) {
  MemoryTracker tracker;
  tracker.allocate(MemoryCategory::kGraphStructure, 100);
  tracker.allocate(MemoryCategory::kJobSpecific, 50);
  EXPECT_EQ(tracker.current_total(), 150u);
  tracker.release(MemoryCategory::kGraphStructure, 100);
  EXPECT_EQ(tracker.current_total(), 50u);
  EXPECT_EQ(tracker.peak_total(), 150u);
  EXPECT_EQ(tracker.peak(MemoryCategory::kGraphStructure), 100u);
}

TEST(MemoryTracker, TrackedAllocationRaii) {
  MemoryTracker tracker;
  {
    TrackedAllocation alloc(&tracker, MemoryCategory::kChunkTables, 64);
    EXPECT_EQ(tracker.current(MemoryCategory::kChunkTables), 64u);
  }
  EXPECT_EQ(tracker.current(MemoryCategory::kChunkTables), 0u);
}

TEST(MemoryTracker, TrackedAllocationMove) {
  MemoryTracker tracker;
  TrackedAllocation a(&tracker, MemoryCategory::kOther, 10);
  TrackedAllocation b = std::move(a);
  EXPECT_EQ(tracker.current(MemoryCategory::kOther), 10u);
  b = TrackedAllocation(&tracker, MemoryCategory::kOther, 4);
  EXPECT_EQ(tracker.current(MemoryCategory::kOther), 4u) << "old allocation released on assign";
}

TEST(Platform, LpiUsesPerJobCounters) {
  Platform platform;
  platform.llc().access_range(0, 64 * 10, 0);  // 10 misses for job 0
  platform.add_instructions(0, 1000);
  EXPECT_DOUBLE_EQ(platform.average_lpi({0}), 0.01);
  EXPECT_DOUBLE_EQ(platform.average_lpi({1}), 0.0);
}

TEST(Platform, ResetStatsClearsEverything) {
  Platform platform;
  platform.llc().access(0, 0);
  platform.page_cache().read(1, 0, 4096, 0);
  platform.add_instructions(0, 5);
  platform.memory().allocate(MemoryCategory::kOther, 1);
  platform.reset_stats();
  EXPECT_EQ(platform.llc().total_stats().accesses, 0u);
  EXPECT_EQ(platform.page_cache().total_stats().read_bytes, 0u);
  EXPECT_EQ(platform.total_instructions(), 0u);
  EXPECT_EQ(platform.memory().current_total(), 0u);
}

}  // namespace
}  // namespace graphm::sim
