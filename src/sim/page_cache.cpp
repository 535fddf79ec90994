#include "sim/page_cache.hpp"

#include <algorithm>

#include "sim/cost_model.hpp"

namespace graphm::sim {

PageCacheSim::PageCacheSim(std::size_t capacity_bytes, std::size_t page_bytes,
                           double disk_bandwidth_bytes_per_s, double disk_latency_s)
    : page_bytes_(page_bytes == 0 ? 4096 : page_bytes),
      capacity_pages_(std::max<std::size_t>(1, capacity_bytes / page_bytes_)),
      bandwidth_(disk_bandwidth_bytes_per_s),
      latency_(disk_latency_s) {}

std::uint64_t PageCacheSim::read(std::uint32_t file_id, std::uint64_t offset, std::size_t len,
                                 std::uint32_t job_id) {
  if (len == 0) return 0;
  MutexLock lock(mutex_);
  if (job_id >= per_job_.size()) per_job_.resize(job_id + 1);
  IoStats& js = per_job_[job_id];

  const std::uint64_t first = offset / page_bytes_;
  const std::uint64_t last = (offset + len - 1) / page_bytes_;

  std::size_t miss_pages = 0;
  std::size_t miss_runs = 0;
  bool in_run = false;
  for (std::uint64_t page = first; page <= last; ++page) {
    const PageKey k = key(file_id, page);
    auto it = map_.find(k);
    if (it != map_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      in_run = false;
      continue;
    }
    ++miss_pages;
    if (!in_run) {
      ++miss_runs;
      in_run = true;
    }
    lru_.push_front(k);
    map_.emplace(k, lru_.begin());
    if (map_.size() > capacity_pages_) {
      const PageKey victim = lru_.back();
      map_.erase(victim);
      lru_.pop_back();
    }
  }

  const std::uint64_t miss_bytes = static_cast<std::uint64_t>(miss_pages) * page_bytes_;
  std::uint64_t stall = 0;
  if (miss_pages > 0) {
    stall = static_cast<std::uint64_t>(
        (latency_ * static_cast<double>(miss_runs) +
         static_cast<double>(miss_bytes) / bandwidth_) * 1e9);
  }

  total_.read_bytes += len;
  total_.disk_read_bytes += miss_bytes;
  total_.disk_requests += miss_runs;
  total_.virtual_io_ns += stall;
  js.read_bytes += len;
  js.disk_read_bytes += miss_bytes;
  js.disk_requests += miss_runs;
  js.virtual_io_ns += stall;
  return stall;
}

void PageCacheSim::invalidate_file(std::uint32_t file_id) {
  MutexLock lock(mutex_);
  for (auto it = lru_.begin(); it != lru_.end();) {
    if ((*it >> 40) == file_id) {
      map_.erase(*it);
      it = lru_.erase(it);
    } else {
      ++it;
    }
  }
}

IoStats PageCacheSim::total_stats() const {
  MutexLock lock(mutex_);
  return total_;
}

IoStats PageCacheSim::job_stats(std::uint32_t job_id) const {
  MutexLock lock(mutex_);
  if (job_id >= per_job_.size()) return IoStats{};
  return per_job_[job_id];
}

std::size_t PageCacheSim::resident_bytes() const {
  MutexLock lock(mutex_);
  return map_.size() * page_bytes_;
}

void PageCacheSim::reset_stats() {
  MutexLock lock(mutex_);
  total_ = IoStats{};
  per_job_.clear();
}

}  // namespace graphm::sim
