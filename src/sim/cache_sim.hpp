// Set-associative LRU last-level-cache simulator.
//
// The paper's motivation and evaluation lean on hardware LLC counters
// (total misses, miss rate, LPI, bytes swapped into the LLC). We reproduce
// those figures by feeding the engines' *actual buffer addresses* through
// this simulator: under the -C scheme every job streams its own private copy
// of a partition (distinct addresses -> capacity misses scale with the job
// count), while under -M all jobs walk one shared buffer (same lines hit).
#pragma once

#include <cstdint>
#include <vector>

#include "util/annotations.hpp"

namespace graphm::sim {

struct CacheStats {
  std::uint64_t accesses = 0;
  std::uint64_t misses = 0;
  std::uint64_t bytes_swapped_in = 0;  // misses * line size

  [[nodiscard]] double miss_rate() const {
    return accesses == 0 ? 0.0 : static_cast<double>(misses) / static_cast<double>(accesses);
  }
};

class CacheSim {
 public:
  CacheSim(std::size_t capacity_bytes, std::size_t ways, std::size_t line_bytes);

  /// One access at byte address `addr`, attributed to `job_id`.
  void access(std::uint64_t addr, std::uint32_t job_id);

  /// Sequential accesses covering [base, base+len), one per cache line,
  /// attributed to `job_id`. `weight` repeats each line access (used to model
  /// re-walks cheaply). Exactly equivalent to walking the lines one by one,
  /// but each set looks up at most `ways` lines of the range and fast-forwards
  /// the rest (all misses under LRU), so a call costs O(sets x ways), not
  /// O(lines). Calls are serialised whole.
  void access_range(std::uint64_t base, std::size_t len, std::uint32_t job_id,
                    std::uint32_t weight = 1);

  [[nodiscard]] CacheStats total_stats() const;
  [[nodiscard]] CacheStats job_stats(std::uint32_t job_id) const;

  [[nodiscard]] std::size_t line_bytes() const { return line_bytes_; }
  [[nodiscard]] std::size_t capacity_bytes() const { return num_sets_ * ways_ * line_bytes_; }

  void reset_stats();
  /// Invalidates all cached lines and clears stats.
  void reset();

 private:
  struct Way {
    std::uint64_t tag = ~0ULL;
    std::uint64_t last_use = 0;
    bool valid = false;
  };

  /// One LRU lookup of `line_addr` in the `ways`-way set at `set`, stamping
  /// it `tick`; on a miss the line replaces an invalid or the oldest way.
  /// Returns whether it hit.
  static bool touch(Way* set, std::size_t ways, std::uint64_t line_addr, std::uint64_t tick);
  CacheStats& stats_for_locked(std::uint32_t job_id) REQUIRES(mutex_);

  std::size_t ways_;
  std::size_t line_bytes_;
  std::size_t num_sets_;
  std::uint64_t tick_ GUARDED_BY(mutex_) = 0;
  std::vector<Way> sets_ GUARDED_BY(mutex_);  // num_sets_ * ways_, row-major
  CacheStats total_ GUARDED_BY(mutex_);
  std::vector<CacheStats> per_job_ GUARDED_BY(mutex_);
  mutable Mutex mutex_;
};

}  // namespace graphm::sim
