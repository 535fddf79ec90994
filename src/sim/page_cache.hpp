// Simulated OS page cache with LRU replacement.
//
// Engines route every "disk" read through this model. A read of a page that
// is resident costs nothing; a miss is charged disk-transfer time and counted
// as I/O. This reproduces the paper's Figure 12: when the grid of a graph
// exceeds the memory budget, each *extra copy* streamed by a -C job evicts the
// others and turns into real disk traffic, while the single shared copy of -M
// is read once per traversal round.
#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "util/annotations.hpp"

namespace graphm::sim {

struct IoStats {
  std::uint64_t read_bytes = 0;       // bytes requested by the engine
  std::uint64_t disk_read_bytes = 0;  // bytes actually fetched from "disk"
  std::uint64_t disk_requests = 0;    // distinct miss runs
  std::uint64_t virtual_io_ns = 0;    // modeled stall time for the misses
};

class PageCacheSim {
 public:
  PageCacheSim(std::size_t capacity_bytes, std::size_t page_bytes,
               double disk_bandwidth_bytes_per_s, double disk_latency_s);

  /// Simulates reading [offset, offset+len) of file `file_id` on behalf of
  /// `job_id`. Returns the modeled stall in nanoseconds for this read.
  std::uint64_t read(std::uint32_t file_id, std::uint64_t offset, std::size_t len,
                     std::uint32_t job_id);

  /// Drops every cached page of `file_id` (e.g. when a dataset is rebuilt).
  void invalidate_file(std::uint32_t file_id);

  [[nodiscard]] IoStats total_stats() const;
  [[nodiscard]] IoStats job_stats(std::uint32_t job_id) const;
  [[nodiscard]] std::size_t resident_bytes() const;
  [[nodiscard]] std::size_t capacity_bytes() const { return capacity_pages_ * page_bytes_; }

  void reset_stats();

 private:
  using PageKey = std::uint64_t;  // (file_id << 40) | page_index
  static PageKey key(std::uint32_t file_id, std::uint64_t page) {
    return (static_cast<std::uint64_t>(file_id) << 40) | page;
  }

  std::size_t page_bytes_;
  std::size_t capacity_pages_;
  double bandwidth_;
  double latency_;

  std::list<PageKey> lru_ GUARDED_BY(mutex_);  // front = most recent
  std::unordered_map<PageKey, std::list<PageKey>::iterator> map_ GUARDED_BY(mutex_);
  IoStats total_ GUARDED_BY(mutex_);
  std::vector<IoStats> per_job_ GUARDED_BY(mutex_);
  mutable Mutex mutex_;
};

}  // namespace graphm::sim
