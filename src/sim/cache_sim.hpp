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
  /// Throws std::invalid_argument for zero ways or a line under 2 bytes: a
  /// set marks an unused way with the line address ~0, which no line address
  /// (a byte address divided by the line size) reaches once lines are at
  /// least 2 bytes.
  CacheSim(std::size_t capacity_bytes, std::size_t ways, std::size_t line_bytes);
  /// Applies every pending charge, then joins the applier.
  ~CacheSim();
  CacheSim(const CacheSim&) = delete;
  CacheSim& operator=(const CacheSim&) = delete;

  /// One access at byte address `addr`, attributed to `job_id`.
  void access(std::uint64_t addr, std::uint32_t job_id);

  /// Sequential accesses covering [base, base+len), one per cache line,
  /// attributed to `job_id`. `weight` repeats each line access (used to model
  /// re-walks cheaply). Exactly equivalent to walking the lines one by one,
  /// but each set looks up at most `ways` lines of the range and fast-forwards
  /// the rest (all misses under LRU), so applying a call costs O(sets x ways),
  /// not O(lines).
  ///
  /// access() and access_range() only enqueue the call and return; the
  /// applier thread applies calls whole, one at a time, in the order they were
  /// enqueued. A caller blocks only while kMaxPending calls are waiting.
  void access_range(std::uint64_t base, std::size_t len, std::uint32_t job_id,
                    std::uint32_t weight = 1);

  /// Reads and resets first wait until every call enqueued before them has
  /// been applied, so a single caller sees exactly the stats of a synchronous
  /// simulator.
  [[nodiscard]] CacheStats total_stats() const;
  [[nodiscard]] CacheStats job_stats(std::uint32_t job_id) const;

  [[nodiscard]] std::size_t line_bytes() const { return line_bytes_; }
  [[nodiscard]] std::size_t capacity_bytes() const { return num_sets_ * ways_ * line_bytes_; }

  void reset_stats();
  /// Invalidates all cached lines and clears stats.
  void reset();

  /// Calls that may wait to be applied before a caller blocks. It bounds the
  /// backlog's memory (256 x 24 B) and how far the model lags the callers: a
  /// read waits for the whole backlog, so a deeper one holds a finishing
  /// job's stats read, and its worker, that much longer.
  static constexpr std::size_t kMaxPending = 256;

 private:
  struct Charge {
    std::uint64_t base;
    std::uint64_t len;
    std::uint32_t job_id;
    std::uint32_t weight;
  };

  /// Marks an unused way; always at the tail of a set.
  static constexpr std::uint64_t kEmpty = ~0ULL;

  /// One LRU lookup of `line_addr` in the `ways`-way set at `set`, which
  /// holds its lines most recent first. A hit at position p moves the line
  /// to the front past the p lines before it; a miss shifts the whole set
  /// down one place, dropping the least recent line (or an unused way), and
  /// puts the line at the front. Returns whether it hit.
  static bool touch(std::uint64_t* set, std::size_t ways, std::uint64_t line_addr);
  /// The LRU model itself: one call's effect on the sets and the stats.
  void apply_locked(const Charge& charge) REQUIRES(mutex_);
  CacheStats& stats_for_locked(std::uint32_t job_id) REQUIRES(mutex_);
  /// Returns once every call enqueued before this one has been applied, and
  /// rethrows the first exception the applier caught, if any.
  void await_applied() const EXCLUDES(queue_mutex_);
  void run_applier() EXCLUDES(queue_mutex_, mutex_);

  std::size_t ways_;
  std::size_t line_bytes_;
  std::size_t num_sets_;
  // num_sets_ x ways_ line addresses, row-major; each set most recent first,
  // unused ways (kEmpty) at its tail.
  std::vector<std::uint64_t> sets_ GUARDED_BY(mutex_);
  CacheStats total_ GUARDED_BY(mutex_);
  std::vector<CacheStats> per_job_ GUARDED_BY(mutex_);
  mutable Mutex mutex_;

  std::vector<Charge> pending_ GUARDED_BY(queue_mutex_);
  std::uint64_t enqueued_ GUARDED_BY(queue_mutex_) = 0;  // calls ever enqueued
  std::uint64_t applied_ GUARDED_BY(queue_mutex_) = 0;   // calls ever applied
  bool stopping_ GUARDED_BY(queue_mutex_) = false;
  std::exception_ptr failure_ GUARDED_BY(queue_mutex_);
  mutable Mutex queue_mutex_;
  std::condition_variable work_cv_;              // applier: calls pending or stopping
  mutable std::condition_variable progress_cv_;  // readers and full-backlog producers
  std::thread applier_;                          // last: uses every member above
};

}  // namespace graphm::sim
