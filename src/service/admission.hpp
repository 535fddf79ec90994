// Admission control shared by the live job service and the simulated
// cluster: the bounded submission queue and the policies that decide when a
// queued job is dispatched into the sharing group (docs/service.md,
// "Admission policies"):
//  * kImmediate    — dispatch as soon as a worker is free;
//  * kBatchUntilK  — hold arrivals until k wait (or the oldest has waited
//                    batch_max_wait_ns), then release them together;
//  * kDeadline     — earliest deadline first, deadline-less jobs last;
//  * kAdaptive     — kDeadline plus the adaptive_sheds rule, which the
//                    services apply while their SLO signal is Critical.
// Backpressure: submissions beyond max_depth are rejected.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <vector>

#include "util/annotations.hpp"

#include "algos/factory.hpp"
#include "grid/stream_engine.hpp"
#include "runtime/metrics.hpp"

namespace graphm::service {

enum class AdmissionPolicy : int {
  kImmediate = 0,
  kBatchUntilK = 1,
  kDeadline = 2,
  kAdaptive = 3,
};

/// Policies that dispatch in EDF order (share edf_deadline_key).
[[nodiscard]] constexpr bool policy_uses_edf(AdmissionPolicy policy) {
  return policy == AdmissionPolicy::kDeadline || policy == AdmissionPolicy::kAdaptive;
}

const char* admission_policy_name(AdmissionPolicy policy);

/// Terminal outcome of a submitted job — the shared vocabulary the local
/// service and the simulated cluster both account in. Every submission lands
/// in exactly ONE of these (the conservation law the fault tests pin):
/// submitted == completed + rejected + deadline_shed + deadline_aborted +
/// failover_shed + unroutable + slo_shed.
enum class Outcome : int {
  kCompleted = 0,        // ran to its final barrier
  kRejected = 1,         // backpressure at admission (queue full)
  kDeadlineShed = 2,     // deadline already unmeetable at dispatch time
  kDeadlineAborted = 3,  // started, aborted at a superstep past its deadline
  kFailoverShed = 4,     // every replica down or the retry budget ran out
  kUnroutable = 5,       // no backend serves the requested dataset
  kSloShed = 6,          // adaptive admission shed it while burn was Critical
};

const char* outcome_name(Outcome outcome);

// ---------------------------------------------------------------------------
// Deadline convention (repo-wide, local service and simulated cluster alike):
// deadline_ns is an absolute clock value and 0 is the reserved "no deadline"
// sentinel — EDF sorts it last and it can never be missed or aborted. The
// helpers below are the single definition of that convention.
// ---------------------------------------------------------------------------

/// The "no deadline" sentinel.
inline constexpr std::uint64_t kNoDeadline = 0;

/// EDF sort key: tightest real deadline first, the sentinel last (mapped to
/// +inf, so it loses every comparison; FIFO among equals is the queue's
/// responsibility).
[[nodiscard]] constexpr std::uint64_t edf_deadline_key(std::uint64_t deadline_ns) {
  return deadline_ns == kNoDeadline ? std::numeric_limits<std::uint64_t>::max()
                                    : deadline_ns;
}

/// Builds an absolute deadline from a clock reading and a relative SLO.
/// Normalized: a computed deadline of exactly 0 ns (only reachable at clock
/// origin with a zero SLO) becomes 1 ns — still unmeetable-tight, but a real
/// deadline rather than the sentinel.
[[nodiscard]] constexpr std::uint64_t deadline_from(std::uint64_t now_ns,
                                                    std::uint64_t slo_ns) {
  const std::uint64_t deadline = now_ns + slo_ns;
  return deadline == kNoDeadline ? 1 : deadline;
}

enum class JobState : int { kQueued = 0, kRunning = 1, kDone = 2, kCancelled = 3, kRejected = 4 };

/// The start line of one kBatchUntilK batch (AdmissionQueue::arrive).
struct BatchStartLine;

/// Shared record of one submitted job: the submission parameters, lifecycle
/// timestamps on the service clock, and the outcome. Owned jointly by the
/// service and the client's JobHandle.
struct JobRecord {
  std::uint32_t job_id = 0;
  std::size_t dataset = 0;
  algos::JobSpec spec;
  /// Absolute service-clock deadline; kNoDeadline (0) = none. Derive real
  /// deadlines with deadline_from(now, slo) — see the convention above.
  std::uint64_t deadline_ns = kNoDeadline;

  runtime::JobOutcome outcome;  // timestamps, engine stats, optional result
  std::uint64_t modeled_latency_ns = 0;
  bool missed_deadline = false;
  /// AdmissionQueue's, set when it holds the job for a batch.
  std::shared_ptr<BatchStartLine> start_line;

  std::atomic<JobState> state{JobState::kQueued};
  Mutex mutex;
  std::condition_variable cv;  // signalled on terminal state

  [[nodiscard]] bool terminal() const {
    const JobState s = state.load(std::memory_order_acquire);
    return s == JobState::kDone || s == JobState::kCancelled || s == JobState::kRejected;
  }
};

using JobRecordPtr = std::shared_ptr<JobRecord>;

/// Admission settings shared by the live queue and the simulated backends.
struct AdmissionConfig {
  AdmissionPolicy policy = AdmissionPolicy::kImmediate;
  std::size_t max_depth = 1024;
  std::size_t batch_k = 4;
  std::uint64_t batch_max_wait_ns = 50'000'000;  // 50 ms
};

/// What AdmissionCore::push did with a fresh arrival.
enum class Admitted : int {
  kRejected = 0,  // the queue is at max_depth: the backpressure reject
  kReady = 1,     // dispatchable now
  kHeld = 2,      // held for its batch (held() == 1: it opened the batch)
  kReleased = 3,  // it completed a batch of k: the whole batch is ready
};

/// kAdaptive's shed rule while an SLO objective is Critical: deadline-less
/// arrivals always shed, deadlined ones once the queue depth reaches the
/// quota. A quota of 0 means one dispatch round, i.e. `slots`.
[[nodiscard]] bool adaptive_sheds(std::uint64_t deadline_ns, std::size_t depth,
                                  std::size_t quota, std::size_t slots);

/// The admission policy itself: the depth bound, the batch-until-k hold and
/// the EDF/FIFO take, with no lock and no clock. AdmissionQueue wraps it for
/// the live service; ClusterService drives one per backend on the simulated
/// clock, with its own release timer at release_at().
template <typename Job>
class AdmissionCore {
 public:
  explicit AdmissionCore(AdmissionConfig config = {}) : config_(config) {}

  /// Admits a fresh arrival at `now_ns` under the policy.
  Admitted push(Job job, std::uint64_t deadline_ns, std::uint64_t now_ns) {
    if (depth() >= config_.max_depth) return Admitted::kRejected;
    if (config_.policy != AdmissionPolicy::kBatchUntilK || config_.batch_k <= 1) {
      ready_.push_back({std::move(job), deadline_ns});
      return Admitted::kReady;
    }
    if (held_.empty()) hold_start_ns_ = now_ns;
    held_.push_back({std::move(job), deadline_ns});
    if (held_.size() < config_.batch_k) return Admitted::kHeld;
    release();
    return Admitted::kReleased;
  }

  /// Makes a redispatched job dispatchable with no depth check or batching:
  /// it has already waited, and a drained queue must land somewhere.
  void push_ready(Job job, std::uint64_t deadline_ns) {
    ready_.push_back({std::move(job), deadline_ns});
  }

  [[nodiscard]] bool holding() const { return !held_.empty(); }
  [[nodiscard]] std::size_t held() const { return held_.size(); }
  /// While holding(): when the partial batch stops waiting for k.
  [[nodiscard]] std::uint64_t release_at() const {
    return hold_start_ns_ + config_.batch_max_wait_ns;
  }
  /// Makes every held job dispatchable, in arrival order.
  void release() {
    for (Entry& entry : held_) ready_.push_back(std::move(entry));
    held_.clear();
  }

  [[nodiscard]] bool has_ready() const { return !ready_.empty(); }
  /// Removes the next dispatchable job (has_ready() must hold): the oldest,
  /// or under EDF the tightest deadline, the sentinel last, FIFO among equals.
  Job take() {
    auto best = ready_.begin();
    if (policy_uses_edf(config_.policy)) {
      for (auto it = std::next(ready_.begin()); it != ready_.end(); ++it) {
        if (edf_deadline_key(it->deadline_ns) < edf_deadline_key(best->deadline_ns)) best = it;
      }
    }
    Job job = std::move(best->job);
    ready_.erase(best);
    return job;
  }

  /// Empties the queue, ready jobs first, then held ones, each in order.
  std::vector<Job> drain_all() {
    release();
    std::vector<Job> jobs;
    jobs.reserve(ready_.size());
    for (Entry& entry : ready_) jobs.push_back(std::move(entry.job));
    ready_.clear();
    return jobs;
  }

  [[nodiscard]] std::size_t depth() const { return ready_.size() + held_.size(); }

 private:
  struct Entry {
    Job job;
    std::uint64_t deadline_ns;
  };

  AdmissionConfig config_;
  std::deque<Entry> ready_;
  std::deque<Entry> held_;  // kBatchUntilK only
  std::uint64_t hold_start_ns_ = 0;
};

/// The live service's submission queue: an AdmissionCore behind a mutex,
/// with a condition variable for blocking pops on the service clock.
class AdmissionQueue {
 public:
  using Config = AdmissionConfig;

  explicit AdmissionQueue(Config config);

  /// Enqueues under the policy. Returns false (and leaves the record
  /// untouched) when the queue is at max_depth — the backpressure reject.
  bool push(JobRecordPtr job, std::uint64_t now_ns);

  /// Blocks until a job is dispatchable, the batch timer says to stop
  /// holding, or the queue is closed. Returns nullptr only when closed and
  /// empty. `now_ns` reads the service clock (used for batch timeouts).
  JobRecordPtr pop(const std::function<std::uint64_t()>& now_ns);

  /// Marks a popped job set up to run; every popped job arrives once. With
  /// `wait`, a batch member blocks until the members that idle workers took
  /// at release have arrived (never one queued behind a running job: under
  /// kShared a waiting member stalls its dataset's rounds).
  void arrive(const JobRecord& job, bool wait);

  /// Blocks until `consumers` threads wait in pop(): a batch pushed after
  /// that is released to idle workers.
  void await_idle(std::size_t consumers);

  /// Releases any held batch immediately (drain/shutdown path: a partial
  /// batch must not dam the queue forever).
  void flush();

  /// Wakes poppers; pop drains the remaining jobs, then returns nullptr.
  void close();

  [[nodiscard]] std::size_t depth() const;
  [[nodiscard]] bool closed() const;

 private:
  /// Releases the held batch (timeout or flush).
  void release_locked() REQUIRES(mutex_);
  /// Sets the just-released batch's quorum: its members that idle poppers
  /// reach past the jobs queued before it (the take is FIFO under
  /// kBatchUntilK).
  void close_batch_locked() REQUIRES(mutex_);

  mutable Mutex mutex_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;   // a thread entered pop()
  std::condition_variable start_cv_;  // a batch member arrived
  AdmissionCore<JobRecordPtr> core_ GUARDED_BY(mutex_);
  std::shared_ptr<BatchStartLine> open_batch_ GUARDED_BY(mutex_);
  std::size_t idle_ GUARDED_BY(mutex_) = 0;  // threads inside pop()
  bool closed_ GUARDED_BY(mutex_) = false;
};

}  // namespace graphm::service
