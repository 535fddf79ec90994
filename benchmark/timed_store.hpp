// TimedStore — the benchmark's outside-in view of the storage layer.
//
// A PartitionedStore decorator: every read is forwarded to the wrapped store
// and, once start() was called, the call's interval (on the JobService clock,
// the clock every JobRecord timestamp lives on) and its byte count are
// recorded, keyed by the job id the engine passed in. The traced run of
// graphm_bench wraps its GridStore in one before constructing the JobService;
// the untraced run never constructs it.
//
// Reads before start() — GraphM::init's chunk labelling during JobService
// construction, the warm-up — are forwarded without recording.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "service/job_service.hpp"
#include "storage/store.hpp"
#include "util/annotations.hpp"

namespace graphm_bench {

struct ReadEvent {
  std::uint32_t job_id = 0;
  std::uint64_t begin_ns = 0;  // JobService clock
  std::uint64_t end_ns = 0;
  std::uint64_t bytes = 0;
};

class TimedStore final : public graphm::storage::PartitionedStore {
 public:
  explicit TimedStore(const graphm::storage::PartitionedStore& inner) : inner_(inner) {}

  /// Starts recording on `service`'s clock. `service` must outlive every
  /// later read.
  void start(const graphm::service::JobService& service) {
    clock_.store(&service, std::memory_order_release);
  }

  [[nodiscard]] const graphm::storage::StoreMeta& meta() const override { return inner_.meta(); }
  [[nodiscard]] std::uint32_t file_id() const override { return inner_.file_id(); }
  [[nodiscard]] std::vector<std::uint32_t> load_out_degrees() const override {
    return inner_.load_out_degrees();
  }

  std::uint64_t read_partition(std::uint32_t i, std::vector<graphm::graph::Edge>& out,
                               graphm::sim::Platform& platform,
                               std::uint32_t job_id) const override {
    const graphm::service::JobService* clock = clock_.load(std::memory_order_acquire);
    if (clock == nullptr) return inner_.read_partition(i, out, platform, job_id);
    const std::uint64_t begin = clock->now_ns();
    const std::uint64_t stall = inner_.read_partition(i, out, platform, job_id);
    record(*clock, job_id, begin, out.size() * sizeof(graphm::graph::Edge));
    return stall;
  }

  std::uint64_t read_edges(std::uint32_t i, graphm::graph::EdgeCount first_edge,
                           graphm::graph::EdgeCount count, graphm::graph::Edge* out,
                           graphm::sim::Platform& platform,
                           std::uint32_t job_id) const override {
    const graphm::service::JobService* clock = clock_.load(std::memory_order_acquire);
    if (clock == nullptr) return inner_.read_edges(i, first_edge, count, out, platform, job_id);
    const std::uint64_t begin = clock->now_ns();
    const std::uint64_t stall = inner_.read_edges(i, first_edge, count, out, platform, job_id);
    record(*clock, job_id, begin, count * sizeof(graphm::graph::Edge));
    return stall;
  }

  [[nodiscard]] std::vector<ReadEvent> events() const {
    graphm::MutexLock lock(mutex_);
    return events_;
  }

  /// Time this decorator spent after the wrapped reads returned (reading
  /// the clock, recording the event): the traced run's in-program cost.
  [[nodiscard]] std::uint64_t bookkeeping_ns() const {
    return bookkeeping_ns_.load(std::memory_order_relaxed);
  }

 private:
  void record(const graphm::service::JobService& clock, std::uint32_t job_id,
              std::uint64_t begin, std::uint64_t bytes) const {
    const std::uint64_t end = clock.now_ns();
    {
      graphm::MutexLock lock(mutex_);
      events_.push_back({job_id, begin, end, bytes});
    }
    bookkeeping_ns_.fetch_add(clock.now_ns() - end, std::memory_order_relaxed);
  }

  const graphm::storage::PartitionedStore& inner_;
  std::atomic<const graphm::service::JobService*> clock_{nullptr};
  mutable std::atomic<std::uint64_t> bookkeeping_ns_{0};
  mutable graphm::Mutex mutex_;
  mutable std::vector<ReadEvent> events_ GUARDED_BY(mutex_);
};

}  // namespace graphm_bench
