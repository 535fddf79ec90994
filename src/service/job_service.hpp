// JobService — the always-on analytics front end over GraphM/StreamEngine,
// and the repo's one execution path: the paper's batch question ("run these
// 16 jobs under scheme X") is runtime::run_jobs, a thin adapter over it. The
// service answers the production question the ROADMAP's north star asks:
// jobs arrive open-loop (Poisson, diurnal traces), are admitted by a
// pluggable policy into the dataset's in-flight sharing group (Algorithm 2
// taken open-loop: the first job loads, late arrivals attach mid-stream
// without a fresh structure load), and are judged by per-job latency
// percentiles against deadlines — not by batch makespan.
//
//   grid::GridStore store = ...;
//   service::ServiceConfig config;
//   service::JobService svc(store, config);
//   auto handle = svc.submit(spec, /*deadline_ns=*/svc.now_ns() + slo);
//   handle.await();
//   svc.drain();
//   service::ServiceStats stats = svc.stats();   // p50/p95/p99, groups, ...
//
// Execution modes: kShared routes every job through the dataset's GraphM
// loaders (one shared buffer; mid-round attach per ServiceConfig::graphm, on
// by default); kIsolated gives each job a private DefaultLoader on the same
// engine — the isolated-concurrent baseline (-C), and with workers == 1 the
// per-job-sequential baseline (-S). The benches run the identical arrival
// stream through all three.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "graphm/graphm.hpp"
#include "grid/stream_engine.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "service/admission.hpp"
#include "service/group_manager.hpp"
#include "service/service_stats.hpp"
#include "sim/platform.hpp"
#include "util/annotations.hpp"
#include "util/timer.hpp"

namespace graphm::service {

enum class ExecMode : int { kShared = 0, kIsolated = 1 };

const char* exec_mode_name(ExecMode mode);

struct ServiceConfig {
  ExecMode mode = ExecMode::kShared;
  AdmissionPolicy policy = AdmissionPolicy::kImmediate;
  /// Worker slots = maximum concurrently executing jobs (the Figure-2 trace
  /// peaks above 30; the paper's server runs 16).
  std::size_t workers = 8;
  std::size_t max_queue_depth = 1024;  // backpressure bound
  std::size_t batch_k = 4;             // kBatchUntilK threshold
  std::uint64_t batch_max_wait_ns = 50'000'000;
  /// Abort running jobs once their deadline passes (polled at partition
  /// boundaries) and shed queued jobs already past it at dispatch. Off:
  /// deadlines only feed EDF ordering and the deadline-miss counter.
  bool cancel_past_deadline = false;
  bool record_results = false;  // keep final vertex values in the record
  /// SLO objectives tracked by the service's obs::SloMonitor, scoped per
  /// dataset; kAdaptive sheds by them (docs/observability.md, "SLOs and
  /// error budgets").
  std::vector<obs::SloSpec> objectives;
  /// kAdaptive only: queue depth above which even deadlined arrivals shed
  /// while Critical. 0 = the worker count (one dispatch round of backlog).
  std::size_t adaptive_queue_quota = 0;
  /// Mid-round attach on: a job dispatched mid-stream joins the round in
  /// flight. runtime::run_jobs turns it off to keep the paper's strict rounds.
  core::GraphMOptions graphm{.allow_mid_round_attach = true};
  grid::StreamConfig stream;
  sim::PlatformConfig platform;
  double dram_latency_s = 150e-9;  // metrics.hpp time composition
  std::uint32_t modeled_cores = 16;
};

/// Client-side view of one submission. Copyable; await() blocks until the
/// job reaches a terminal state and returns the record (timestamps, stats,
/// result when recorded).
class JobHandle {
 public:
  JobHandle() = default;

  [[nodiscard]] bool valid() const { return record_ != nullptr; }
  [[nodiscard]] JobState state() const {
    return record_ == nullptr ? JobState::kRejected
                              : record_->state.load(std::memory_order_acquire);
  }
  /// Blocks until terminal. Invalid handles return a static rejected record.
  const JobRecord& await() const;

 private:
  friend class JobService;
  explicit JobHandle(JobRecordPtr record) : record_(std::move(record)) {}
  JobRecordPtr record_;
};

class JobService {
 public:
  struct DatasetSpec {
    std::string name;
    const storage::PartitionedStore* store = nullptr;
  };

  /// Single-dataset convenience.
  JobService(const storage::PartitionedStore& store, ServiceConfig config,
             std::string dataset_name = "default");
  /// One sharing group (GraphM instance + engine) per dataset; jobs name
  /// their dataset at submit().
  JobService(std::vector<DatasetSpec> datasets, ServiceConfig config);
  ~JobService();

  JobService(const JobService&) = delete;
  JobService& operator=(const JobService&) = delete;

  /// Submits a job. `deadline_ns` is an absolute service-clock deadline
  /// (now_ns() + budget), 0 for none. Returns a rejected handle when the
  /// bounded queue is full (backpressure), `dataset` names no registered
  /// dataset, or the service is shut down.
  JobHandle submit(const algos::JobSpec& spec, std::uint64_t deadline_ns = 0,
                   std::size_t dataset = 0);

  /// Blocks until every accepted job has reached a terminal state (releases
  /// any held admission batch first).
  void drain();
  /// drain() + stop the workers. Idempotent; the destructor calls it.
  void shutdown();

  [[nodiscard]] ServiceStats stats() const;
  [[nodiscard]] core::SharingController::Stats sharing_stats(std::size_t dataset = 0) const;
  /// Publishes every service-level instrument into `registry` under
  /// `graphm.*`: collector counters + latency histograms, queue depth and
  /// shed counts, per-dataset sharing totals (summed), and the simulated
  /// platform's LLC / page-cache counters. Histogram publishing merges —
  /// use a fresh registry per snapshot (metrics_json does).
  void publish_metrics(obs::Registry& registry) const;
  /// One-call JSON snapshot of publish_metrics into a fresh registry.
  [[nodiscard]] std::string metrics_json() const;
  /// Monotonic service clock (ns since construction) — the clock every
  /// JobRecord timestamp and deadline lives on.
  [[nodiscard]] std::uint64_t now_ns() const { return clock_.elapsed_ns(); }
  [[nodiscard]] std::size_t num_datasets() const { return datasets_.size(); }
  [[nodiscard]] sim::Platform& platform() { return platform_; }
  /// The service's SLO monitor (inert when ServiceConfig::objectives is
  /// empty). Exposed for tests and dashboards; the service itself evaluates
  /// it at submit and finish.
  [[nodiscard]] obs::SloMonitor& slo_monitor() const { return slo_; }

 private:
  struct Dataset {
    std::string name;
    const storage::PartitionedStore* store = nullptr;
    std::unique_ptr<core::GraphM> graphm;  // kShared only
    std::unique_ptr<grid::StreamEngine> engine;
  };

  void start_workers();
  void worker_loop(std::size_t worker_index);
  void execute(const JobRecordPtr& job);
  void finish(const JobRecordPtr& job, JobState terminal, bool started);
  /// Re-evaluates the monitor at `now` and emits a trace instant on the
  /// "slo" track when the tri-state signal changed.
  void evaluate_slo(std::uint64_t now);

  ServiceConfig config_;
  sim::Platform platform_;  // one simulated host serves every dataset
  util::Timer clock_;
  std::vector<Dataset> datasets_;
  AdmissionQueue queue_;
  GroupManager groups_;
  StatsCollector collector_;
  /// Burn-rate tracking per dataset; mutable because publishing reads cached
  /// evals from const snapshots (internally synchronized).
  mutable obs::SloMonitor slo_;

  std::vector<std::thread> workers_;
  std::atomic<bool> shut_down_{false};
  std::atomic<std::uint32_t> next_job_id_{0};

  mutable Mutex lifecycle_mutex_;
  std::condition_variable idle_cv_;
  /// Accepted, not yet terminal.
  std::size_t unfinished_ GUARDED_BY(lifecycle_mutex_) = 0;
};

}  // namespace graphm::service
