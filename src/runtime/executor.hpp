// Executes a batch of jobs under one of the paper's three schemes:
//   kSequential  ("GridGraph-S"): jobs one after another;
//   kConcurrent  ("GridGraph-C"): all jobs at once, each with a private
//                                  loader and private partition copies;
//   kShared      ("GridGraph-M"): all jobs at once through one GraphM
//                                  instance (shared buffers, common order,
//                                  chunk-grained sync).
// run_jobs is a thin adapter over service::JobService, the one execution
// path (docs/service.md maps each scheme onto its settings). Every run gets
// a fresh service and Platform, so the hardware-counter style metrics
// compare across schemes.
#pragma once

#include <cstdint>
#include <vector>

#include "algos/factory.hpp"
#include "grid/grid_store.hpp"
#include "runtime/metrics.hpp"
#include "service/job_service.hpp"

namespace graphm::runtime {

enum class Scheme : int { kSequential = 0, kConcurrent = 1, kShared = 2 };

const char* scheme_name(Scheme scheme);

/// The service settings of the run. Honoured: platform, graphm (except
/// allow_mid_round_attach), stream, record_results, dram_latency_s and
/// modeled_cores. The scheme sets mode, workers, policy, batch_k,
/// batch_max_wait_ns, max_queue_depth and graphm.allow_mid_round_attach;
/// cancel_past_deadline and objectives are cleared (batch jobs have no
/// deadline), and adaptive_queue_quota is unused.
struct ExecutorConfig : service::ServiceConfig {
  /// Optional per-job submission offsets in ns (same length as jobs,
  /// non-decreasing; jobs are submitted in order). Empty means submit
  /// everything at t=0 (kSequential ignores offsets).
  std::vector<std::uint64_t> arrival_offsets_ns;
};

/// Runs `jobs` on `store` under `scheme` and returns the full metrics. Job
/// timestamps are rebased to t=0 just before the first submission.
RunMetrics run_jobs(Scheme scheme, const storage::PartitionedStore& store,
                    const std::vector<algos::JobSpec>& jobs, const ExecutorConfig& config = {});

}  // namespace graphm::runtime
