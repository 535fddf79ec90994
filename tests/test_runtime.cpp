#include <gtest/gtest.h>

#include <numeric>

#include "runtime/executor.hpp"
#include "runtime/job_queue.hpp"
#include "runtime/workloads.hpp"
#include "service/service_stats.hpp"
#include "test_helpers.hpp"

namespace graphm::runtime {
namespace {

TEST(Workloads, PaperMixCyclesKinds) {
  const auto jobs = paper_mix(8, 100, 1);
  ASSERT_EQ(jobs.size(), 8u);
  EXPECT_EQ(jobs[0].kind, algos::AlgorithmKind::kWcc);
  EXPECT_EQ(jobs[1].kind, algos::AlgorithmKind::kPageRank);
  EXPECT_EQ(jobs[2].kind, algos::AlgorithmKind::kSssp);
  EXPECT_EQ(jobs[3].kind, algos::AlgorithmKind::kBfs);
  EXPECT_EQ(jobs[4].kind, algos::AlgorithmKind::kWcc);
}

TEST(Workloads, RootedMixStaysWithinHops) {
  std::vector<std::uint32_t> levels = {0, 1, 1, 2, 3, 0xFFFFFFFFu};
  const auto jobs = rooted_mix(algos::AlgorithmKind::kBfs, 20, levels, 1, 7);
  for (const auto& job : jobs) {
    EXPECT_LE(levels[job.root], 1u);
  }
}

TEST(JobQueue, PoissonArrivalsMonotoneAndScaleWithLambda) {
  const auto sparse = poisson_arrivals(50, 2.0, 1'000'000, 3);
  const auto dense = poisson_arrivals(50, 10.0, 1'000'000, 3);
  EXPECT_EQ(sparse[0], 0u);
  for (std::size_t i = 1; i < 50; ++i) EXPECT_GE(sparse[i], sparse[i - 1]);
  EXPECT_GT(sparse.back(), dense.back()) << "larger lambda packs submissions tighter";
}

TEST(JobQueue, WeekTraceMatchesPaperStatistics) {
  const auto trace = synthesize_week_trace(168, 42);
  ASSERT_EQ(trace.size(), 168u);
  double sum = 0.0;
  std::uint32_t peak = 0;
  for (const auto& point : trace) {
    sum += point.concurrent_jobs;
    peak = std::max(peak, point.concurrent_jobs);
  }
  const double mean = sum / 168.0;
  EXPECT_NEAR(mean, 16.0, 2.5) << "average ~16 concurrent jobs (Figure 2)";
  EXPECT_GT(peak, 30u) << "peak above 30 concurrent jobs (Figure 2)";
}

TEST(JobQueue, TraceToArrivalsTracksLevel) {
  std::vector<TracePoint> trace = {{0.0, 4}, {1.0, 4}};
  const auto arrivals = trace_to_arrivals(trace, 1.0, 1000, 100);
  EXPECT_EQ(arrivals.size(), 8u) << "4 jobs/hour for 2 hours at duration 1h";
  for (std::size_t i = 1; i < arrivals.size(); ++i) EXPECT_GE(arrivals[i], arrivals[i - 1]);
}

TEST(JobQueue, ArrivalProcessesAreDeterministicUnderFixedSeeds) {
  // The benches replay the identical arrival stream across execution modes;
  // that comparison is only meaningful if the generators are pure functions
  // of their seed.
  EXPECT_EQ(poisson_arrivals(64, 16.0, 1'000'000, 42),
            poisson_arrivals(64, 16.0, 1'000'000, 42));
  EXPECT_NE(poisson_arrivals(64, 16.0, 1'000'000, 42),
            poisson_arrivals(64, 16.0, 1'000'000, 43));

  const auto trace_a = synthesize_week_trace(168, 7);
  const auto trace_b = synthesize_week_trace(168, 7);
  ASSERT_EQ(trace_a.size(), trace_b.size());
  for (std::size_t h = 0; h < trace_a.size(); ++h) {
    EXPECT_EQ(trace_a[h].concurrent_jobs, trace_b[h].concurrent_jobs) << "hour " << h;
    EXPECT_EQ(trace_a[h].hour, trace_b[h].hour);
  }
  const auto trace_c = synthesize_week_trace(168, 8);
  bool any_differs = false;
  for (std::size_t h = 0; h < trace_a.size(); ++h) {
    any_differs = any_differs || trace_a[h].concurrent_jobs != trace_c[h].concurrent_jobs;
  }
  EXPECT_TRUE(any_differs) << "different seeds must synthesize different weeks";
}

TEST(JobQueue, WeekTraceStaysWithinClampBounds) {
  // Multiple seeds and a multi-week horizon: every sample within the
  // documented [2, 34] clamp, every week keeps the Figure-2 statistics.
  for (const std::uint64_t seed : {1ull, 9ull, 123ull}) {
    const auto trace = synthesize_week_trace(2 * 168, seed);
    double sum = 0.0;
    std::uint32_t peak = 0;
    for (const auto& point : trace) {
      EXPECT_GE(point.concurrent_jobs, 2u);
      EXPECT_LE(point.concurrent_jobs, 34u);
      sum += point.concurrent_jobs;
      peak = std::max(peak, point.concurrent_jobs);
    }
    EXPECT_NEAR(sum / static_cast<double>(trace.size()), 16.0, 2.5) << "seed " << seed;
    EXPECT_GT(peak, 30u) << "seed " << seed;
  }
}

TEST(JobQueue, TraceToArrivalsOffsetsAreMonotoneAndBounded) {
  const auto trace = synthesize_week_trace(168, 5);
  constexpr std::uint64_t kHourNs = 10'000;
  const auto arrivals = trace_to_arrivals(trace, /*job_duration_hours=*/2.0, kHourNs, 500);
  ASSERT_FALSE(arrivals.empty());
  EXPECT_LE(arrivals.size(), 500u);
  for (std::size_t i = 1; i < arrivals.size(); ++i) {
    EXPECT_GE(arrivals[i], arrivals[i - 1]) << "submission offsets must be monotone";
  }
  // No offset can land beyond the trace horizon (+1 fractional hour).
  EXPECT_LT(arrivals.back(), (static_cast<std::uint64_t>(trace.size()) + 1) * kHourNs);
}

TEST(Executor, MemoryUsageOrderingAcrossSchemes) {
  // Figure 11: -M consumes less memory than -C but more than -S.
  const auto g = test::small_rmat(600, 9000, 8);
  const grid::GridStore store = test::make_grid(g, 4);
  const auto jobs = paper_mix(6, g.num_vertices(), 5);
  ExecutorConfig config;

  const auto s = run_jobs(Scheme::kSequential, store, jobs, config);
  const auto c = run_jobs(Scheme::kConcurrent, store, jobs, config);
  const auto m = run_jobs(Scheme::kShared, store, jobs, config);

  EXPECT_LT(m.peak_graph_memory_bytes, c.peak_graph_memory_bytes)
      << "one shared copy vs per-job copies";
  EXPECT_GE(m.peak_memory_bytes, s.peak_memory_bytes)
      << "-M holds all jobs' vertex data at once, -S only one";
}

TEST(Executor, SharedSchemeReducesLlcTraffic) {
  const auto g = test::small_rmat(600, 9000, 8);
  const grid::GridStore store = test::make_grid(g, 4);
  const auto jobs = uniform_mix(algos::AlgorithmKind::kPageRank, 4, g.num_vertices(), 2);
  ExecutorConfig config;

  const auto c = run_jobs(Scheme::kConcurrent, store, jobs, config);
  const auto m = run_jobs(Scheme::kShared, store, jobs, config);
  EXPECT_LT(m.llc.bytes_swapped_in, c.llc.bytes_swapped_in)
      << "Figure 14: -M swaps less data into the LLC than -C";
}

TEST(Executor, StatsAreInternallyConsistent) {
  const auto g = test::small_rmat(300, 4000, 6);
  const grid::GridStore store = test::make_grid(g, 2);
  const auto jobs = paper_mix(3, g.num_vertices(), 1);
  ExecutorConfig config;
  const auto m = run_jobs(Scheme::kShared, store, jobs, config);

  EXPECT_EQ(m.jobs.size(), 3u);
  EXPECT_GT(m.makespan_wall_ns, 0u);
  EXPECT_GT(m.compute_ns, 0u);
  EXPECT_EQ(m.scheme, "GridGraph-M");
  // Modeled total = (compute + DRAM + sync)/cores + disk (metrics.hpp).
  EXPECT_EQ(m.total_time_ns(),
            (m.compute_ns + m.mem_stall_ns + m.sync_cost_ns()) / m.modeled_cores +
                m.io_stall_ns);
  EXPECT_GT(m.total_time_ns(), 0u);
  std::uint64_t compute_sum = 0;
  for (const auto& job : m.jobs) compute_sum += job.stats.compute_ns;
  EXPECT_EQ(compute_sum, m.compute_ns);
  EXPECT_GT(m.sharing.partition_loads, 0u);
}

TEST(Executor, SequentialHasNoSharing) {
  const auto g = test::small_rmat(300, 4000, 6);
  const grid::GridStore store = test::make_grid(g, 2);
  const auto jobs = paper_mix(2, g.num_vertices(), 1);
  const auto s = run_jobs(Scheme::kSequential, store, jobs, {});
  EXPECT_EQ(s.sharing.partition_loads, 0u);
  EXPECT_EQ(s.sharing.attaches, 0u);
}

TEST(Executor, RecordsPerJobLifecycleTimestamps) {
  const auto g = test::small_rmat(300, 4000, 6);
  const grid::GridStore store = test::make_grid(g, 2);
  const auto jobs = paper_mix(4, g.num_vertices(), 1);

  // Staggered open-loop arrivals: each job's arrival/start/completion land
  // on the run clock and latency = completion − arrival is reportable.
  ExecutorConfig config;
  config.arrival_offsets_ns.assign(jobs.size(), 0);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    config.arrival_offsets_ns[j] = j * 500'000;  // 0.5 ms apart
  }
  const auto m = run_jobs(Scheme::kShared, store, jobs, config);
  for (std::size_t j = 0; j < m.jobs.size(); ++j) {
    const JobOutcome& job = m.jobs[j];
    EXPECT_GE(job.arrival_ns, config.arrival_offsets_ns[j]) << "job " << j;
    EXPECT_GE(job.start_ns, job.arrival_ns) << "job " << j;
    EXPECT_GT(job.completion_ns, job.start_ns) << "job " << j;
    EXPECT_EQ(job.latency_ns(), job.completion_ns - job.arrival_ns);
    EXPECT_LE(job.completion_ns, m.makespan_wall_ns);
  }
  // The executor's outcomes feed the service stats module directly.
  const auto latency = service::latency_from_outcomes(m.jobs);
  EXPECT_EQ(latency.count, m.jobs.size());
  EXPECT_GT(latency.p50_ns, 0.0);
  EXPECT_GE(latency.max_ns, latency.p95_ns);

  // A sequential batch is submitted up front: arrivals stay 0 and each job's
  // latency includes the wait behind its predecessors.
  const auto s = run_jobs(Scheme::kSequential, store, jobs, {});
  for (std::size_t j = 1; j < s.jobs.size(); ++j) {
    EXPECT_EQ(s.jobs[j].arrival_ns, 0u);
    EXPECT_GE(s.jobs[j].start_ns, s.jobs[j - 1].completion_ns);
    EXPECT_GE(s.jobs[j].queue_wait_ns(), s.jobs[j - 1].completion_ns -
                                             s.jobs[j - 1].start_ns);
  }
}

TEST(Executor, SharedBatchKeepsStrictRoundMembership) {
  // run_jobs rides on JobService, whose default turns mid-round attach on for
  // open-loop serving. A -M batch must still keep the paper's strict rounds,
  // even when its jobs arrive staggered.
  EXPECT_TRUE(service::ServiceConfig{}.graphm.allow_mid_round_attach);

  // Long PageRank jobs 2 ms apart: every later job arrives while the group
  // streams, so with mid-round attach on it would join the round in flight.
  const auto g = test::small_rmat(1000, 20000, 6);
  const grid::GridStore store = test::make_grid(g, 2);
  std::vector<algos::JobSpec> jobs(4);
  ExecutorConfig config;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    jobs[j].kind = algos::AlgorithmKind::kPageRank;
    jobs[j].max_iterations = 40;
    config.arrival_offsets_ns.push_back(j * 2'000'000);
  }
  const auto m = run_jobs(Scheme::kShared, store, jobs, config);
  EXPECT_GT(m.sharing.partition_loads, 0u);
  EXPECT_EQ(m.sharing.mid_round_attaches, 0u);
}

TEST(Executor, EmptyJobListIsAnEmptyRun) {
  const auto g = test::small_rmat(100, 500, 6);
  const grid::GridStore store = test::make_grid(g, 2);
  const auto m = run_jobs(Scheme::kShared, store, {}, {});
  EXPECT_EQ(m.jobs.size(), 0u);
  EXPECT_EQ(m.makespan_wall_ns, 0u);
}

}  // namespace
}  // namespace graphm::runtime
