// SLO-aware service statistics: per-job latency decomposition and the
// aggregate report a long-running analytics service is judged by.
//
// Per job the service records arrival (submit), start (dispatch to the
// engine) and completion on one monotonic service clock, so
//     queue wait   = start − arrival        (admission + backpressure)
//     stream time  = completion − start     (engine execution, incl. -M
//                                            suspensions)
//     e2e latency  = completion − arrival   (what the client experiences)
// Aggregates are percentiles (p50/p95/p99) rather than makespans: the paper's
// batch experiments measure "16 jobs finished in T", an open-loop service is
// measured by "p95 latency under λ jobs/s" — the Figure 2 traffic judged per
// job. A modeled-latency twin (queue wait + the metrics.hpp per-job time
// composition) is reported alongside the measured one so the simulated
// platform's DRAM/disk stalls show up in the SLO view too.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "runtime/metrics.hpp"
#include "util/annotations.hpp"

namespace graphm::service {

struct LatencySummary {
  std::size_t count = 0;
  double mean_ns = 0.0;
  double p50_ns = 0.0;
  double p95_ns = 0.0;
  double p99_ns = 0.0;
  double max_ns = 0.0;
};

/// Order statistics over `samples_ns` (nearest-rank percentiles; the sample
/// set is consumed). Empty input yields an all-zero summary.
LatencySummary summarize_latency(std::vector<std::uint64_t> samples_ns);

/// E2e latency summary straight from job outcomes — batch runs
/// (runtime::run_jobs, a JobService adapter) report per-job latency
/// percentiles through the same machinery as online runs.
LatencySummary latency_from_outcomes(const std::vector<runtime::JobOutcome>& jobs);

/// Completed jobs per second over [first arrival, last completion] — the
/// sustained-throughput definition every serving surface reports (the local
/// JobService, its modeled replay, and the cluster subsystem's per-backend
/// stats). 0 when the window is empty or inverted.
double sustained_jobs_per_s(std::size_t completed, std::uint64_t first_arrival_ns,
                            std::uint64_t last_completion_ns);

/// One point of the service's concurrency timeline: `running` jobs were
/// executing from `t_ns` until the next point.
struct ConcurrencyPoint {
  std::uint64_t t_ns = 0;
  std::uint32_t running = 0;
};

/// One sharing group: a maximal interval during which a dataset had at least
/// one job in flight. Sharing-counter deltas are measured against the
/// dataset's controller at open/close, so each group reports its own
/// loads/attaches economy.
struct GroupRecord {
  std::uint64_t group_id = 0;
  std::string dataset;
  std::uint64_t opened_ns = 0;
  std::uint64_t closed_ns = 0;  // 0 while the group is still open
  std::uint32_t jobs_served = 0;
  std::uint32_t peak_concurrency = 0;
  std::uint64_t partition_loads = 0;
  std::uint64_t attaches = 0;
  std::uint64_t mid_round_attaches = 0;
};

/// Deterministic replay of the measured arrival stream against the *modeled*
/// per-job execution times (JobOutcome::modeled_exec_ns — (in-loop compute +
/// DRAM stall) / modeled cores + serial disk stall) on `workers` modeled
/// executors: FIFO, each job starts at max(its arrival, earliest free
/// worker). This is the paper-machine view of the service (the host may have
/// one core and a noisy scheduler; the simulated LLC/disk counters carry the
/// scheme differences — the same composition every fig bench reports instead
/// of wall makespans).
struct ModeledReplay {
  double sustained_jobs_per_s = 0.0;
  LatencySummary e2e;  // modeled completion − measured arrival
};

struct ReplayJob {
  std::uint64_t arrival_ns = 0;
  std::uint64_t service_ns = 0;  // modeled execution time
};

ModeledReplay modeled_replay(std::vector<ReplayJob> jobs, std::size_t workers);

struct ServiceStats {
  std::uint64_t submitted = 0;  // submit() calls, accepted or not
  std::uint64_t rejected = 0;   // backpressure (bounded queue full)
  std::uint64_t completed = 0;  // ran to completion
  std::uint64_t cancelled = 0;  // deadline-shed or aborted mid-run
  /// Jobs whose deadline passed before they finished: late completions plus
  /// deadline sheds/aborts (those also appear in `cancelled`).
  std::uint64_t deadline_misses = 0;

  LatencySummary queue_wait;
  LatencySummary stream_time;
  LatencySummary e2e;          // measured wall latency
  LatencySummary e2e_modeled;  // measured queue wait + modeled execution time
  LatencySummary exec_modeled; // modeled execution time alone (job_time_ns)

  /// Completed jobs per second over [first arrival, last completion],
  /// measured on the host's wall clock (noisy on oversubscribed hosts).
  double sustained_jobs_per_s = 0.0;
  /// The modeled-machine counterpart: arrival stream replayed against the
  /// modeled job times on the service's worker count. The SLO headline.
  ModeledReplay modeled;
  std::uint32_t peak_concurrency = 0;
  std::vector<ConcurrencyPoint> timeline;
  std::vector<GroupRecord> groups;
};

/// Thread-safe accumulator the service feeds; snapshot() derives the report.
///
/// Memory is bounded no matter how many jobs flow through (the always-on
/// service routes an unbounded stream through one collector):
///  * every latency metric feeds a log-bucketed obs::Histogram (~15 KB,
///    fixed) AND a sample reservoir holding the first kSampleCap outcomes.
///    Up to the cap, snapshot() reports *exact* nearest-rank percentiles
///    from the samples — byte-identical to the old store-everything path —
///    beyond it, histogram quantiles (within one ~3.1% bucket of exact);
///  * the concurrency timeline is capped at kTimelineCap points by stride
///    decimation: when full it drops every other point and doubles the
///    recording stride, so it always spans the full run at bounded size;
///  * the modeled FIFO replay runs over the reservoir (exact below the cap,
///    a first-cap approximation beyond).
class StatsCollector {
 public:
  /// Reservoir size: comfortably above every closed-batch experiment (exact
  /// stats there) while bounding an open-loop service's footprint.
  static constexpr std::size_t kSampleCap = 4096;
  static constexpr std::size_t kTimelineCap = 4096;

  void on_submit();
  void on_reject();
  /// `running` is the number of jobs executing after this transition.
  void on_start(std::uint64_t t_ns, std::uint32_t running);
  /// `outcome` must carry the arrival/start/completion timestamps; the
  /// collector owns no clock.
  void on_finish(const runtime::JobOutcome& outcome, std::uint64_t modeled_latency_ns,
                 bool cancelled, bool missed_deadline, std::uint64_t t_ns,
                 std::uint32_t running);

  /// `workers` is the service's executor-slot count, used for the modeled
  /// replay.
  [[nodiscard]] ServiceStats snapshot(std::vector<GroupRecord> groups,
                                      std::size_t workers) const;

  /// Re-homes counters into `registry` (`graphm.service.*`, publish-style)
  /// and merges the latency histograms into same-named registry histograms.
  /// Histogram merging accumulates: publish into a fresh registry per
  /// snapshot (JobService::metrics_json does).
  void publish_metrics(obs::Registry& registry) const;

  /// Bytes retained across reservoirs + timeline + histograms; flat once the
  /// caps are reached (the regression test pins this at 100k finishes).
  [[nodiscard]] std::size_t approx_memory_bytes() const;

 private:
  void push_timeline_locked(std::uint64_t t_ns, std::uint32_t running)
      REQUIRES(mutex_);

  mutable Mutex mutex_;
  std::uint64_t submitted_ GUARDED_BY(mutex_) = 0;
  std::uint64_t rejected_ GUARDED_BY(mutex_) = 0;
  std::uint64_t cancelled_ GUARDED_BY(mutex_) = 0;
  std::uint64_t deadline_misses_ GUARDED_BY(mutex_) = 0;

  std::uint64_t completed_count_ GUARDED_BY(mutex_) = 0;
  std::uint64_t first_arrival_ns_ GUARDED_BY(mutex_) = UINT64_MAX;
  std::uint64_t last_completion_ns_ GUARDED_BY(mutex_) = 0;
  /// First-kSampleCap reservoir (results stripped, stats kept) + the modeled
  /// latency aligned with it.
  std::vector<runtime::JobOutcome> sample_outcomes_ GUARDED_BY(mutex_);
  std::vector<std::uint64_t> sample_modeled_ GUARDED_BY(mutex_);
  obs::Histogram queue_wait_hist_ GUARDED_BY(mutex_);
  obs::Histogram stream_hist_ GUARDED_BY(mutex_);
  obs::Histogram e2e_hist_ GUARDED_BY(mutex_);
  obs::Histogram e2e_modeled_hist_ GUARDED_BY(mutex_);
  obs::Histogram exec_modeled_hist_ GUARDED_BY(mutex_);

  std::vector<ConcurrencyPoint> timeline_ GUARDED_BY(mutex_);
  std::uint64_t timeline_stride_ GUARDED_BY(mutex_) = 1;
  std::uint64_t timeline_seen_ GUARDED_BY(mutex_) = 0;
  std::uint32_t peak_concurrency_ GUARDED_BY(mutex_) = 0;
};

}  // namespace graphm::service
