#include "runtime/executor.hpp"

#include <chrono>
#include <thread>

namespace graphm::runtime {

const char* scheme_name(Scheme scheme) {
  switch (scheme) {
    case Scheme::kSequential: return "GridGraph-S";
    case Scheme::kConcurrent: return "GridGraph-C";
    case Scheme::kShared: return "GridGraph-M";
  }
  return "?";
}

RunMetrics run_jobs(Scheme scheme, const storage::PartitionedStore& store,
                    const std::vector<algos::JobSpec>& jobs, const ExecutorConfig& config) {
  RunMetrics metrics;
  metrics.scheme = scheme_name(scheme);
  metrics.modeled_cores = config.modeled_cores;
  if (jobs.empty()) return metrics;

  const bool staggered = scheme != Scheme::kSequential && !config.arrival_offsets_ns.empty();
  service::ServiceConfig settings = config;
  settings.mode =
      scheme == Scheme::kShared ? service::ExecMode::kShared : service::ExecMode::kIsolated;
  settings.workers = scheme == Scheme::kSequential ? 1 : jobs.size();
  settings.policy = staggered ? service::AdmissionPolicy::kImmediate
                              : service::AdmissionPolicy::kBatchUntilK;
  settings.batch_k = jobs.size();
  // Far above any submit loop, so the batch is never released in parts.
  settings.batch_max_wait_ns = 3'600'000'000'000ULL;  // one hour
  settings.max_queue_depth = jobs.size();
  settings.cancel_past_deadline = false;
  settings.objectives.clear();
  settings.graphm.allow_mid_round_attach = false;  // strict round membership
  // GraphM's labelling runs in the constructor, before the measured run (it
  // is the separate Table-3 experiment), and its chunk tables stay resident.
  service::JobService svc(store, std::move(settings));

  // Open-loop replay: job j is submitted once its offset has elapsed (a
  // missing offset is 0).
  const std::uint64_t t0 = svc.now_ns();
  std::vector<service::JobHandle> handles;
  handles.reserve(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    if (staggered && j < config.arrival_offsets_ns.size()) {
      const std::uint64_t due = t0 + config.arrival_offsets_ns[j];
      const std::uint64_t now = svc.now_ns();
      if (due > now) std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
    }
    handles.push_back(svc.submit(jobs[j]));
  }
  svc.drain();
  metrics.makespan_wall_ns = svc.now_ns() - t0;

  std::vector<std::uint32_t> job_ids;
  for (const service::JobHandle& handle : handles) {
    const service::JobRecord& record = handle.await();
    JobOutcome& outcome = metrics.jobs.emplace_back(record.outcome);
    // A batch submitted together arrives at t=0 of the run clock.
    outcome.arrival_ns = staggered ? outcome.arrival_ns - t0 : 0;
    outcome.start_ns -= t0;
    outcome.completion_ns -= t0;
    metrics.compute_ns += outcome.stats.compute_ns;
    metrics.mem_stall_ns += outcome.mem_stall_ns;
    job_ids.push_back(record.job_id);
  }

  const sim::Platform& platform = svc.platform();
  metrics.llc = platform.llc().total_stats();
  metrics.io = platform.page_cache().total_stats();
  metrics.io_stall_ns = metrics.io.virtual_io_ns;
  metrics.peak_memory_bytes = platform.memory().peak_total();
  metrics.peak_graph_memory_bytes = platform.memory().peak(sim::MemoryCategory::kGraphStructure);
  metrics.peak_job_memory_bytes = platform.memory().peak(sim::MemoryCategory::kJobSpecific);
  metrics.peak_table_memory_bytes = platform.memory().peak(sim::MemoryCategory::kChunkTables);
  metrics.average_lpi = platform.average_lpi(job_ids);
  metrics.sharing = svc.sharing_stats();
  return metrics;
}

}  // namespace graphm::runtime
