#include "sim/cache_sim.hpp"

#include <algorithm>
#include <bit>
#include <exception>
#include <initializer_list>
#include <stdexcept>

namespace graphm::sim {

namespace {
std::size_t round_down_pow2(std::size_t v) {
  if (v == 0) return 1;
  return std::size_t{1} << (63 - std::countl_zero(static_cast<std::uint64_t>(v)));
}
}  // namespace

CacheSim::CacheSim(std::size_t capacity_bytes, std::size_t ways, std::size_t line_bytes)
    : ways_(ways), line_bytes_(line_bytes) {
  if (ways == 0 || line_bytes == 0) throw std::invalid_argument("CacheSim: zero ways/line");
  // A 1-byte line at address ~0 would read as an unused way.
  if (line_bytes < 2) throw std::invalid_argument("CacheSim: line under 2 bytes");
  num_sets_ = round_down_pow2(std::max<std::size_t>(1, capacity_bytes / (ways * line_bytes)));
  sets_.assign(num_sets_ * ways_, kEmpty);
  // Started only once the geometry is validated: a constructor that throws
  // must not leave a joinable thread behind.
  applier_ = std::thread([this] { run_applier(); });
}

CacheSim::~CacheSim() {
  {
    MutexLock lock(queue_mutex_);
    stopping_ = true;
  }
  work_cv_.notify_one();
  applier_.join();
}

void CacheSim::access(std::uint64_t addr, std::uint32_t job_id) {
  access_range(addr, 1, job_id);
}

void CacheSim::access_range(std::uint64_t base, std::size_t len, std::uint32_t job_id,
                            std::uint32_t weight) {
  if (len == 0 || weight == 0) return;
  bool wake = false;
  {
    MutexLock lock(queue_mutex_);
    while (pending_.size() >= kMaxPending) lock.wait(progress_cv_);
    wake = pending_.empty();
    pending_.push_back(Charge{base, len, job_id, weight});
    ++enqueued_;
  }
  // The applier only sleeps on an empty batch, so only the first call into
  // one needs to wake it.
  if (wake) work_cv_.notify_one();
}

void CacheSim::run_applier() {
  std::vector<Charge> batch;
  MutexLock queue(queue_mutex_);
  for (;;) {
    while (pending_.empty() && !stopping_) queue.wait(work_cv_);
    if (pending_.empty()) return;  // stopping, and every call is applied
    batch.swap(pending_);
    queue.unlock();
    progress_cv_.notify_all();  // the backlog is empty again
    std::exception_ptr failure;
    try {
      MutexLock state(mutex_);
      for (const Charge& charge : batch) apply_locked(charge);
    } catch (...) {
      failure = std::current_exception();  // e.g. bad_alloc growing per_job_
    }
    queue.lock();
    if (failure && !failure_) failure_ = failure;
    applied_ += batch.size();
    batch.clear();
    progress_cv_.notify_all();
  }
}

void CacheSim::await_applied() const {
  MutexLock lock(queue_mutex_);
  const std::uint64_t target = enqueued_;
  while (applied_ < target) lock.wait(progress_cv_);
  if (failure_) std::rethrow_exception(failure_);
}

// The per-line walk of a range touches set s's lines in ascending order, and
// sets never interact, so each set is replayed on its own. Under LRU, once a
// set has seen `ways_` distinct lines of the range it holds exactly those
// (the stack property), so every later line of the range misses and pushes
// out the set's least recent line: the set ends up holding its last `ways_`
// lines of the range, newest first. Only the first `ways_` lines per set need
// a lookup; the rest are counted as misses and the set is written directly.
void CacheSim::apply_locked(const Charge& charge) {
  const std::uint64_t first = charge.base / line_bytes_;
  const std::uint64_t lines = (charge.base + charge.len - 1) / line_bytes_ - first + 1;
  const std::uint64_t stride = num_sets_;
  const std::uint64_t touched_sets = std::min<std::uint64_t>(lines, stride);
  std::uint64_t misses = 0;

  for (std::uint64_t i = 0; i < touched_sets; ++i) {
    const std::uint64_t line0 = first + i;
    const std::uint64_t count = (lines - 1 - i) / stride + 1;  // this set's lines
    const std::uint64_t looked_up = std::min<std::uint64_t>(count, ways_);
    std::uint64_t* set = &sets_[static_cast<std::size_t>(line0 & (stride - 1)) * ways_];
    for (std::uint64_t j = 0; j < looked_up; ++j) {
      if (!touch(set, ways_, line0 + j * stride)) ++misses;
    }
    if (count <= ways_) continue;
    misses += count - ways_;
    for (std::size_t w = 0; w < ways_; ++w) set[w] = line0 + (count - 1 - w) * stride;
  }

  const std::uint64_t accesses = lines * charge.weight;
  const std::uint64_t bytes = misses * line_bytes_;
  CacheStats& js = stats_for_locked(charge.job_id);
  for (CacheStats* stats : {&total_, &js}) {
    stats->accesses += accesses;
    stats->misses += misses;
    stats->bytes_swapped_in += bytes;
  }
}

bool CacheSim::touch(std::uint64_t* set, std::size_t ways, std::uint64_t line_addr) {
  // Stop at the line or at the last way, which a miss drops.
  std::size_t p = 0;
  while (p + 1 < ways && set[p] != line_addr) ++p;
  const bool hit = set[p] == line_addr;
  for (; p > 0; --p) set[p] = set[p - 1];
  set[0] = line_addr;
  return hit;
}

CacheStats& CacheSim::stats_for_locked(std::uint32_t job_id) {
  if (job_id >= per_job_.size()) per_job_.resize(job_id + 1);
  return per_job_[job_id];
}

CacheStats CacheSim::total_stats() const {
  await_applied();
  MutexLock lock(mutex_);
  return total_;
}

CacheStats CacheSim::job_stats(std::uint32_t job_id) const {
  await_applied();
  MutexLock lock(mutex_);
  if (job_id >= per_job_.size()) return CacheStats{};
  return per_job_[job_id];
}

void CacheSim::reset_stats() {
  await_applied();
  MutexLock lock(mutex_);
  total_ = CacheStats{};
  per_job_.clear();
}

void CacheSim::reset() {
  await_applied();
  MutexLock lock(mutex_);
  total_ = CacheStats{};
  per_job_.clear();
  std::fill(sets_.begin(), sets_.end(), kEmpty);
}

}  // namespace graphm::sim
