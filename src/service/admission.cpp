#include "service/admission.hpp"

#include <algorithm>
#include <chrono>

namespace graphm::service {

const char* admission_policy_name(AdmissionPolicy policy) {
  switch (policy) {
    case AdmissionPolicy::kImmediate: return "immediate";
    case AdmissionPolicy::kBatchUntilK: return "batch-until-k";
    case AdmissionPolicy::kDeadline: return "deadline-edf";
    case AdmissionPolicy::kAdaptive: return "adaptive-slo";
  }
  return "?";
}

const char* outcome_name(Outcome outcome) {
  switch (outcome) {
    case Outcome::kCompleted: return "completed";
    case Outcome::kRejected: return "rejected";
    case Outcome::kDeadlineShed: return "deadline-shed";
    case Outcome::kDeadlineAborted: return "deadline-aborted";
    case Outcome::kFailoverShed: return "failover-shed";
    case Outcome::kUnroutable: return "unroutable";
    case Outcome::kSloShed: return "slo-shed";
  }
  return "?";
}

bool adaptive_sheds(std::uint64_t deadline_ns, std::size_t depth, std::size_t quota,
                    std::size_t slots) {
  const std::size_t limit = quota != 0 ? quota : std::max<std::size_t>(1, slots);
  return deadline_ns == kNoDeadline || depth >= limit;
}

/// Guarded by the owning queue's mutex. The quorum is set when the batch is
/// released, before any member can be popped.
struct BatchStartLine {
  std::size_t members = 0;
  std::size_t quorum = 0;
  std::size_t arrived = 0;
};

AdmissionQueue::AdmissionQueue(Config config) : core_(config) {}

bool AdmissionQueue::push(JobRecordPtr job, std::uint64_t now_ns) {
  MutexLock lock(mutex_);
  if (closed_) return false;
  JobRecord& record = *job;
  const Admitted admitted = core_.push(std::move(job), record.deadline_ns, now_ns);
  if (admitted == Admitted::kRejected) return false;
  if (admitted == Admitted::kHeld || admitted == Admitted::kReleased) {
    if (open_batch_ == nullptr) open_batch_ = std::make_shared<BatchStartLine>();
    ++open_batch_->members;
    record.start_line = open_batch_;
  }
  if (admitted == Admitted::kReleased) close_batch_locked();
  cv_.notify_all();
  return true;
}

void AdmissionQueue::release_locked() {
  core_.release();
  close_batch_locked();
  cv_.notify_all();
}

void AdmissionQueue::close_batch_locked() {
  if (open_batch_ == nullptr) return;
  BatchStartLine& line = *open_batch_;
  const std::size_t ready_ahead = core_.depth() - line.members;
  line.quorum = std::min(line.members, idle_ > ready_ahead ? idle_ - ready_ahead : 0);
  open_batch_.reset();
}

void AdmissionQueue::arrive(const JobRecord& job, bool wait) {
  if (job.start_line == nullptr) return;
  BatchStartLine& line = *job.start_line;
  MutexLock lock(mutex_);
  ++line.arrived;
  start_cv_.notify_all();
  if (!wait) return;
  while (line.arrived < line.quorum) lock.wait(start_cv_);
}

void AdmissionQueue::await_idle(std::size_t consumers) {
  MutexLock lock(mutex_);
  while (idle_ < consumers) lock.wait(idle_cv_);
}

JobRecordPtr AdmissionQueue::pop(const std::function<std::uint64_t()>& now_ns) {
  MutexLock lock(mutex_);
  ++idle_;
  idle_cv_.notify_all();
  for (;;) {
    if (core_.has_ready()) {
      --idle_;
      return core_.take();
    }
    if (core_.holding()) {
      // A partial batch: dispatch anyway once the oldest member has waited
      // out the batch window (bounded added latency), otherwise sleep until
      // that moment or a state change.
      const std::uint64_t now = now_ns();
      const std::uint64_t release_at = core_.release_at();
      if (closed_ || now >= release_at) {
        release_locked();
        continue;
      }
      lock.wait_for(cv_, std::chrono::nanoseconds(release_at - now));
      continue;
    }
    if (closed_) {
      --idle_;
      return nullptr;
    }
    lock.wait(cv_);
  }
}

void AdmissionQueue::flush() {
  MutexLock lock(mutex_);
  release_locked();
}

void AdmissionQueue::close() {
  MutexLock lock(mutex_);
  closed_ = true;
  cv_.notify_all();
}

std::size_t AdmissionQueue::depth() const {
  MutexLock lock(mutex_);
  return core_.depth();
}

bool AdmissionQueue::closed() const {
  MutexLock lock(mutex_);
  return closed_;
}

}  // namespace graphm::service
