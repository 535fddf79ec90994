// The cluster subsystem's contracts: (1) determinism — a DES run is a pure
// function of (inputs, seed), witnessed by bit-identical event traces; (2)
// the analytic anchor — on single-bottleneck configs with the noise knobs
// zeroed, the message-level simulation lands within a stated tolerance of
// the closed-form engines (sanity, not equivalence); (3) the paper's scheme
// shapes emerge from messages (sharing wins, Chaos-C inversion, node
// scaling); (4) ClusterService routing/admission/SLO reporting.
#include <gtest/gtest.h>

#include "cluster/cluster_service.hpp"
#include "cluster/des_engine.hpp"
#include "dist/chaos_engine.hpp"
#include "dist/powergraph_engine.hpp"
#include "runtime/workloads.hpp"
#include "test_helpers.hpp"

namespace graphm::cluster {
namespace {

graph::EdgeList test_graph() { return test::small_rmat(1024, 20000, 31); }

/// Noise knobs zeroed: the DES collapses onto pure bandwidth/compute terms.
DesConfig quiet_config(std::uint64_t seed = 1) {
  DesConfig config;
  config.seed = seed;
  config.compute_jitter = 0.0;
  config.disk_switch_ns = 0;
  config.net_latency_ns = 0;
  config.superstep_overhead_ns = 0;
  return config;
}

algos::JobSpec pagerank_spec(std::uint32_t iterations) {
  algos::JobSpec spec;
  spec.kind = algos::AlgorithmKind::kPageRank;
  spec.max_iterations = iterations;
  return spec;
}

// ---------------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------------

TEST(DesDeterminism, SameSeedBitIdenticalTraceAndStats) {
  const auto g = test_graph();
  const auto profiles = dist::profile_jobs(g, runtime::paper_mix(6, g.num_vertices(), 4));
  dist::ClusterConfig cluster;
  cluster.num_nodes = 8;
  DesConfig config;
  config.seed = 0xABCD;
  config.record_trace = true;

  for (const Backend backend : {Backend::kPowerGraph, Backend::kChaos}) {
    for (const auto kind :
         {dist::DistScheme::kSequential, dist::DistScheme::kConcurrent,
          dist::DistScheme::kShared}) {
      const dist::DistScheme scheme{kind};
      const DesEstimate a = des_run(backend, scheme, profiles, g, cluster, config);
      const DesEstimate b = des_run(backend, scheme, profiles, g, cluster, config);
      ASSERT_FALSE(a.trace.empty());
      EXPECT_EQ(a.trace, b.trace) << backend_name(backend) << " scheme " << kind;
      EXPECT_EQ(a.trace_hash, b.trace_hash);
      EXPECT_EQ(a.events, b.events);
      EXPECT_EQ(a.seconds, b.seconds) << "not even last-bit drift is allowed";
      EXPECT_EQ(a.job_completion_s, b.job_completion_s);
      EXPECT_EQ(a.structure_loads, b.structure_loads);
    }
  }
}

TEST(DesDeterminism, DifferentSeedDifferentJitteredTrace) {
  const auto g = test_graph();
  const auto profiles = dist::profile_jobs(g, runtime::paper_mix(4, g.num_vertices(), 4));
  dist::ClusterConfig cluster;
  cluster.num_nodes = 8;
  DesConfig config;
  config.compute_jitter = 0.05;  // seeds must matter through the jitter draws
  config.seed = 1;
  const auto a = des_run(Backend::kPowerGraph, {dist::DistScheme::kShared}, profiles, g,
                         cluster, config);
  config.seed = 2;
  const auto b = des_run(Backend::kPowerGraph, {dist::DistScheme::kShared}, profiles, g,
                         cluster, config);
  EXPECT_NE(a.trace_hash, b.trace_hash);
}

// ---------------------------------------------------------------------------
// Analytic anchor: single job, single bottleneck, zero noise
// ---------------------------------------------------------------------------

TEST(DesAnchor, PowerGraphSingleJobMatchesAnalyticWithin15Percent) {
  const auto g = test_graph();
  const auto profiles = dist::profile_jobs(g, {pagerank_spec(6)});
  dist::ClusterConfig cluster;
  cluster.num_nodes = 4;
  const dist::DistScheme scheme{dist::DistScheme::kSequential};

  const dist::RunEstimate analytic = dist::run_powergraph(scheme, profiles, g, cluster);
  const DesEstimate des =
      des_run(Backend::kPowerGraph, scheme, profiles, g, cluster, quiet_config());
  ASSERT_GT(analytic.seconds, 0.0);
  ASSERT_GT(des.seconds, 0.0);
  EXPECT_NEAR(des.seconds / analytic.seconds, 1.0, 0.15)
      << "des=" << des.seconds << "s analytic=" << analytic.seconds << "s";
  EXPECT_EQ(des.structure_loads, analytic.structure_loads);
}

TEST(DesAnchor, ChaosSingleJobMatchesAnalyticWithin15Percent) {
  const auto g = test_graph();
  const auto profiles = dist::profile_jobs(g, {pagerank_spec(6)});
  dist::ClusterConfig cluster;
  cluster.num_nodes = 4;
  const dist::DistScheme scheme{dist::DistScheme::kSequential};

  const dist::RunEstimate analytic = dist::run_chaos(scheme, profiles, g, cluster);
  const DesEstimate des =
      des_run(Backend::kChaos, scheme, profiles, g, cluster, quiet_config());
  ASSERT_GT(analytic.seconds, 0.0);
  EXPECT_NEAR(des.seconds / analytic.seconds, 1.0, 0.15)
      << "des=" << des.seconds << "s analytic=" << analytic.seconds << "s";
  EXPECT_EQ(des.structure_loads, analytic.structure_loads);
}

// ---------------------------------------------------------------------------
// Scheme shapes emerge from messages
// ---------------------------------------------------------------------------

struct DesCase {
  Backend backend;
};

class DesSchemes : public ::testing::TestWithParam<DesCase> {};

TEST_P(DesSchemes, SharedBeatsSequentialAndConcurrent) {
  const auto g = test_graph();
  const auto profiles = dist::profile_jobs(g, runtime::paper_mix(8, g.num_vertices(), 4));
  dist::ClusterConfig cluster;
  cluster.num_nodes = 16;
  const Backend backend = GetParam().backend;

  const auto s = des_run(backend, {dist::DistScheme::kSequential}, profiles, g, cluster);
  const auto c = des_run(backend, {dist::DistScheme::kConcurrent}, profiles, g, cluster);
  const auto m = des_run(backend, {dist::DistScheme::kShared}, profiles, g, cluster);

  EXPECT_LT(m.seconds, s.seconds) << "-M must beat -S (Table 4, DES)";
  EXPECT_LT(m.seconds, c.seconds) << "-M must beat -C (Table 4, DES)";
  EXPECT_LT(m.structure_loads, s.structure_loads);
  EXPECT_LT(m.disk_gb, s.disk_gb) << "sharing must remove structure traffic, not just time";
}

TEST_P(DesSchemes, MoreNodesHelp) {
  const auto g = test_graph();
  const auto profiles = dist::profile_jobs(g, runtime::paper_mix(4, g.num_vertices(), 4));
  dist::ClusterConfig small;
  small.num_nodes = 8;
  dist::ClusterConfig big;
  big.num_nodes = 16;
  const Backend backend = GetParam().backend;
  const auto t8 = des_run(backend, {dist::DistScheme::kShared}, profiles, g, small);
  const auto t16 = des_run(backend, {dist::DistScheme::kShared}, profiles, g, big);
  EXPECT_LT(t16.seconds, t8.seconds) << "Figure 21 under the DES: scaling out helps";
}

INSTANTIATE_TEST_SUITE_P(Backends, DesSchemes,
                         ::testing::Values(DesCase{Backend::kPowerGraph},
                                           DesCase{Backend::kChaos}),
                         [](const auto& info) { return backend_name(info.param.backend); });

TEST(DesChaos, ConcurrentStreamsSeekPastEachOther) {
  // The Table-4 inversion as an *emergent* effect: -C's interleaved
  // full-graph streams pay disk seeks that back-to-back -S never does.
  const auto g = test_graph();
  const auto profiles = dist::profile_jobs(g, runtime::paper_mix(8, g.num_vertices(), 4));
  dist::ClusterConfig cluster;
  cluster.num_nodes = 8;
  const auto s = des_run(Backend::kChaos, {dist::DistScheme::kSequential}, profiles, g, cluster);
  const auto c = des_run(Backend::kChaos, {dist::DistScheme::kConcurrent}, profiles, g, cluster);
  EXPECT_GT(c.seconds, s.seconds);
  // With the seek zeroed the inversion disappears — the effect is the seek,
  // nothing else in the model.
  const auto c_no_seek = des_run(Backend::kChaos, {dist::DistScheme::kConcurrent}, profiles,
                                 g, cluster, quiet_config());
  const auto s_no_seek = des_run(Backend::kChaos, {dist::DistScheme::kSequential}, profiles,
                                 g, cluster, quiet_config());
  EXPECT_LE(c_no_seek.seconds, s_no_seek.seconds * 1.01);
}

TEST(DesPowerGraph, InfeasibleWhenGraphExceedsNodeMemory) {
  const auto g = test_graph();
  const auto profiles = dist::profile_jobs(g, runtime::paper_mix(2, g.num_vertices(), 4));
  dist::ClusterConfig cluster;
  cluster.num_nodes = 4;
  cluster.node_memory_bytes = 1024;
  const auto m = des_run(Backend::kPowerGraph, {dist::DistScheme::kShared}, profiles, g, cluster);
  EXPECT_FALSE(m.feasible);
  EXPECT_GT(m.seconds, 0.0) << "infeasible configs still report a time, like the analytic model";
}

TEST(DesPowerGraph, SharedModeAccountsEveryResidentJobsMemory) {
  // -M loads the structure once, but every resident job still adds its
  // replicated vertex data — the analytic engine's k * job_mem_per_node
  // term. Size node memory so the structure plus one job fits and eight
  // concurrent jobs do not.
  const auto g = test_graph();
  const auto profiles = dist::profile_jobs(g, runtime::paper_mix(8, g.num_vertices(), 4));
  const Placement placement = vertex_cut_placement(g, 4);
  const double structure_bytes =
      static_cast<double>(g.num_edges()) * sizeof(graph::Edge);
  const double vertex_bytes =
      static_cast<double>(g.num_vertices()) * dist::kVertexValueBytes;
  const double structure_per_node =
      (structure_bytes + placement.replication * vertex_bytes) / 4.0;
  const double job_per_node = placement.replication * vertex_bytes / 4.0;

  dist::ClusterConfig cluster;
  cluster.num_nodes = 4;
  cluster.node_memory_bytes =
      static_cast<std::uint64_t>(structure_per_node + 2.0 * job_per_node);

  const std::vector<dist::JobProfile> one{profiles[0]};
  EXPECT_TRUE(
      des_run(Backend::kPowerGraph, {dist::DistScheme::kShared}, one, g, cluster).feasible);
  EXPECT_FALSE(
      des_run(Backend::kPowerGraph, {dist::DistScheme::kShared}, profiles, g, cluster)
          .feasible)
      << "concurrent -M jobs' vertex data must count against node memory";
}

TEST(DesGroups, GroupsAreResourceDisjoint) {
  const auto g = test_graph();
  const auto profiles = dist::profile_jobs(g, runtime::paper_mix(4, g.num_vertices(), 4));
  dist::ClusterConfig one;
  one.num_nodes = 16;
  one.num_groups = 1;
  dist::ClusterConfig four = one;
  four.num_groups = 4;
  const auto grouped =
      des_run(Backend::kPowerGraph, {dist::DistScheme::kSequential}, profiles, g, four);
  const auto single =
      des_run(Backend::kPowerGraph, {dist::DistScheme::kSequential}, profiles, g, one);
  EXPECT_GT(grouped.seconds, 0.0);
  EXPECT_GT(single.seconds, 0.0);
  for (const double t : grouped.job_completion_s) EXPECT_GT(t, 0.0);
}

// ---------------------------------------------------------------------------
// Placement
// ---------------------------------------------------------------------------

TEST(Placement, SharesSumToOneAndReplicationMatchesDist) {
  const auto g = test_graph();
  const Placement p = vertex_cut_placement(g, 8);
  double total = 0.0;
  for (const double share : p.edge_share) total += share;
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(p.replication, dist::replication_factor(g, 8));
  EXPECT_GE(p.max_share(), 1.0 / 8.0);
}

TEST(Placement, ShardBySourcePartitionsEdgesExactly) {
  const auto g = test_graph();
  const auto shards = shard_by_source(g, 3);
  ASSERT_EQ(shards.size(), 3u);
  graph::EdgeCount total = 0;
  for (const auto& shard : shards) {
    EXPECT_EQ(shard.num_vertices(), g.num_vertices()) << "full vertex space per shard";
    total += shard.num_edges();
  }
  EXPECT_EQ(total, g.num_edges());
  // Source ranges are disjoint: max src of shard i < min src of shard i+1.
  for (std::size_t s = 0; s + 1 < shards.size(); ++s) {
    if (shards[s].num_edges() == 0 || shards[s + 1].num_edges() == 0) continue;
    graph::VertexId max_src = 0;
    for (const auto& e : shards[s].edges()) max_src = std::max(max_src, e.src);
    graph::VertexId min_next = shards[s + 1].edges().front().src;
    for (const auto& e : shards[s + 1].edges()) min_next = std::min(min_next, e.src);
    EXPECT_LT(max_src, min_next);
  }
}

// ---------------------------------------------------------------------------
// ClusterService: routing, admission, SLO stats
// ---------------------------------------------------------------------------

ClusterServiceConfig service_config() {
  ClusterServiceConfig config;
  config.node.num_nodes = 0;  // ignored; BackendConfig::num_nodes governs
  config.des = quiet_config(7);
  return config;
}

std::vector<Submission> staggered_submissions(std::size_t count, const graph::EdgeList& g,
                                              std::uint64_t gap_ns,
                                              const std::string& dataset = "") {
  const auto specs = runtime::paper_mix(count, g.num_vertices(), 9);
  std::vector<Submission> submissions;
  for (std::size_t j = 0; j < count; ++j) {
    Submission s;
    s.spec = specs[j];
    s.arrival_ns = j * gap_ns;
    s.dataset = dataset;
    submissions.push_back(std::move(s));
  }
  return submissions;
}

TEST(ClusterServiceTest, RoutesByDatasetAndReportsPerBackendStats) {
  const auto g = test_graph();
  std::vector<BackendConfig> backends(2);
  backends[0].dataset = "left";
  backends[0].engine = Backend::kPowerGraph;
  backends[0].num_nodes = 4;
  backends[1].dataset = "right";
  backends[1].engine = Backend::kChaos;
  backends[1].num_nodes = 4;
  ClusterService service(g, backends, service_config());

  auto submissions = staggered_submissions(8, g, 1'000'000);
  for (std::size_t j = 0; j < submissions.size(); ++j) {
    submissions[j].dataset = j % 2 == 0 ? "left" : "right";
  }
  const auto stats = service.run(submissions);
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].submitted, 4u);
  EXPECT_EQ(stats[1].submitted, 4u);
  EXPECT_EQ(stats[0].completed, 4u);
  EXPECT_EQ(stats[1].completed, 4u);
  EXPECT_EQ(service.unroutable(), 0u);
  for (const auto& backend : stats) {
    EXPECT_EQ(backend.e2e.count, 4u);
    EXPECT_GT(backend.e2e.p50_ns, 0u);
    EXPECT_GE(backend.e2e.p99_ns, backend.e2e.p50_ns);
    EXPECT_GT(backend.stream_time.p50_ns, 0u);
    EXPECT_GT(backend.structure_loads, 0.0);
  }
}

TEST(ClusterServiceTest, UnnamedSubmissionsBalanceAndUnknownDatasetsDrop) {
  const auto g = test_graph();
  std::vector<BackendConfig> backends(2);
  backends[0].dataset = "a";
  backends[0].num_nodes = 4;
  backends[1].dataset = "b";
  backends[1].num_nodes = 4;
  ClusterService service(g, backends, service_config());

  auto submissions = staggered_submissions(6, g, 0);  // all at t=0, unnamed
  Submission stray;
  stray.spec = pagerank_spec(2);
  stray.dataset = "nope";
  submissions.push_back(stray);

  const auto stats = service.run(submissions);
  EXPECT_EQ(service.unroutable(), 1u);
  EXPECT_GT(stats[0].submitted, 0u) << "least-loaded routing must spread jobs";
  EXPECT_GT(stats[1].submitted, 0u);
  EXPECT_EQ(stats[0].submitted + stats[1].submitted, 6u);
}

TEST(ClusterServiceTest, BackpressureRejectsBeyondQueueDepth) {
  const auto g = test_graph();
  std::vector<BackendConfig> backends(1);
  backends[0].dataset = "only";
  backends[0].num_nodes = 2;
  backends[0].max_concurrent = 1;
  backends[0].max_queue_depth = 2;
  ClusterService service(g, backends, service_config());

  const auto stats = service.run(staggered_submissions(8, g, 0, "only"));
  EXPECT_GT(stats[0].rejected, 0u);
  EXPECT_EQ(stats[0].submitted, 8u);
  EXPECT_EQ(stats[0].completed + stats[0].rejected, 8u);
}

TEST(ClusterServiceTest, SharedStructureLoadsOnceAndServesEveryJob) {
  const auto g = test_graph();
  const auto submissions = staggered_submissions(6, g, 100'000, "pg");

  std::vector<BackendConfig> backends(1);
  backends[0].dataset = "pg";
  backends[0].engine = Backend::kPowerGraph;
  backends[0].num_nodes = 4;
  backends[0].shared_structure = true;
  ClusterService shared(g, backends, service_config());
  const auto shared_stats = shared.run(submissions);

  backends[0].shared_structure = false;
  ClusterService isolated(g, backends, service_config());
  const auto isolated_stats = isolated.run(submissions);

  EXPECT_EQ(shared_stats[0].completed, 6u);
  EXPECT_EQ(isolated_stats[0].completed, 6u);
  EXPECT_EQ(shared_stats[0].structure_loads, 1.0)
      << "first job loads, every later arrival attaches";
  EXPECT_EQ(isolated_stats[0].structure_loads, 6.0);
  EXPECT_LE(shared_stats[0].e2e.p95_ns, isolated_stats[0].e2e.p95_ns)
      << "sharing the structure must not cost latency on this stream";
}

TEST(ClusterServiceTest, ChaosSharedStreamCarriesMidStreamAttaches) {
  const auto g = test_graph();
  std::vector<BackendConfig> backends(1);
  backends[0].dataset = "chaos";
  backends[0].engine = Backend::kChaos;
  backends[0].num_nodes = 4;
  backends[0].shared_structure = true;
  ClusterService service(g, backends, service_config());

  // Stagger arrivals so later jobs land mid-stream and attach at superstep
  // boundaries instead of starting their own pass.
  const auto submissions = staggered_submissions(5, g, 400'000, "chaos");
  const auto stats = service.run(submissions);
  EXPECT_EQ(stats[0].completed, 5u);

  double sum_iterations = 0;
  for (const auto& s : submissions) {
    sum_iterations += static_cast<double>(dist::profile_job(g, s.spec).iterations());
  }
  EXPECT_LT(stats[0].structure_loads, sum_iterations)
      << "riders must share full-graph passes";
}

TEST(ClusterServiceTest, BatchPolicyHoldsUntilKThenReleasesTogether) {
  const auto g = test_graph();
  std::vector<BackendConfig> backends(1);
  backends[0].dataset = "batched";
  backends[0].num_nodes = 4;
  backends[0].policy = service::AdmissionPolicy::kBatchUntilK;
  backends[0].batch_k = 3;
  backends[0].batch_max_wait_ns = 1'000'000'000;  // far beyond the arrivals
  ClusterService service(g, backends, service_config());

  const std::uint64_t gap = 2'000'000;
  const auto stats = service.run(staggered_submissions(3, g, gap, "batched"));
  ASSERT_EQ(stats[0].completed, 3u);
  // Held until the third arrival: the first job waited ~2 gaps, the last ~0.
  EXPECT_GE(stats[0].queue_wait.max_ns, static_cast<double>(2 * gap));
}

TEST(ClusterServiceTest, BatchTimerFlushesPartialBatches) {
  const auto g = test_graph();
  std::vector<BackendConfig> backends(1);
  backends[0].dataset = "batched";
  backends[0].num_nodes = 4;
  backends[0].policy = service::AdmissionPolicy::kBatchUntilK;
  backends[0].batch_k = 16;  // never reached
  backends[0].batch_max_wait_ns = 5'000'000;
  ClusterService service(g, backends, service_config());
  const auto stats = service.run(staggered_submissions(2, g, 1'000'000, "batched"));
  EXPECT_EQ(stats[0].completed, 2u) << "a partial batch must not dam the queue forever";
  EXPECT_GE(stats[0].queue_wait.max_ns, 4e6);
}

TEST(ClusterServiceTest, DeadlinePolicyDispatchesTightestFirstAndCountsMisses) {
  const auto g = test_graph();
  std::vector<BackendConfig> backends(1);
  backends[0].dataset = "edf";
  backends[0].num_nodes = 4;
  backends[0].max_concurrent = 1;  // force queueing so order is observable
  backends[0].policy = service::AdmissionPolicy::kDeadline;
  ClusterServiceConfig config = service_config();
  config.des.record_trace = true;  // dispatch order read from the trace
  ClusterService service(g, backends, config);

  auto submissions = staggered_submissions(4, g, 0, "edf");
  // Arrival order 0..3 but deadlines inverted; an impossible deadline on the
  // last job must be counted as a miss.
  submissions[0].deadline_ns = 0;  // none: sorts last
  submissions[1].deadline_ns = 400'000'000;
  submissions[2].deadline_ns = 200'000'000;
  submissions[3].deadline_ns = 1;
  const auto stats = service.run(submissions);
  EXPECT_EQ(stats[0].completed, 4u);
  EXPECT_GE(stats[0].deadline_misses, 1u);

  // Job 0 grabs the free slot on arrival; the queued rest must leave EDF:
  // tightest deadline first, the deadline-less job last.
  std::vector<std::uint32_t> dispatch_order;
  for (const TraceRecord& record : service.last_trace()) {
    if (record.code == TraceCode::kJobDispatched) dispatch_order.push_back(record.job);
  }
  EXPECT_EQ(dispatch_order, (std::vector<std::uint32_t>{0, 3, 2, 1}));
}

TEST(ClusterServiceTest, RunsAreDeterministic) {
  const auto g = test_graph();
  std::vector<BackendConfig> backends(2);
  backends[0].dataset = "a";
  backends[0].num_nodes = 4;
  backends[1].dataset = "b";
  backends[1].engine = Backend::kChaos;
  backends[1].num_nodes = 4;
  ClusterServiceConfig config = service_config();
  config.des.compute_jitter = 0.05;  // noise on, still reproducible
  config.des.record_trace = true;
  ClusterService service(g, backends, config);

  const auto submissions = staggered_submissions(8, g, 300'000);
  const auto first = service.run(submissions);
  const std::uint64_t hash = service.last_trace_hash();
  const auto trace = service.last_trace();
  const auto second = service.run(submissions);
  EXPECT_EQ(service.last_trace_hash(), hash);
  EXPECT_EQ(service.last_trace(), trace);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t b = 0; b < first.size(); ++b) {
    EXPECT_EQ(first[b].completed, second[b].completed);
    EXPECT_EQ(first[b].e2e.p95_ns, second[b].e2e.p95_ns);
    EXPECT_EQ(first[b].structure_loads, second[b].structure_loads);
  }
}

// ---------------------------------------------------------------------------
// Deadline aborts on the simulated clock
// ---------------------------------------------------------------------------

TEST(DeadlineAbort, DispatchedJobAbortsAtBarrierAndStopsReservingResources) {
  // One 2-node Chaos backend, no sharing: every private superstep re-streams
  // the node's slice from its disk, so an aborted job's disappearance is
  // directly visible as disk bytes never reserved.
  const auto g = test_graph();
  const auto profile =
      dist::profile_job(g, pagerank_spec(/*iterations=*/12));
  dist::ClusterConfig cluster;

  auto run_once = [&](std::uint64_t abort_deadline_ns) {
    EventLoop loop(quiet_config().seed, /*record_trace=*/true);
    BackendSim sim(loop, 0, 2, g, cluster, quiet_config(), Backend::kChaos,
                   /*shared_structure=*/false);
    std::uint64_t completion_ns = 0;
    bool aborted = false;
    loop.schedule_at(0, [&] {
      sim.start_job(0, profile,
                    [&loop, &completion_ns, &aborted](JobEnd end) {
                      completion_ns = loop.now_ns();
                      aborted = end == JobEnd::kAborted;
                    },
                    abort_deadline_ns);
    });
    loop.run();
    struct Result {
      std::uint64_t completion_ns;
      bool aborted;
      std::uint64_t jobs_aborted;
      double disk_bytes;
      std::vector<TraceRecord> trace;
    };
    return Result{completion_ns, aborted, sim.jobs_aborted(), sim.disk_bytes(),
                  loop.take_trace_records()};
  };

  const auto full = run_once(/*abort_deadline_ns=*/0);
  ASSERT_FALSE(full.aborted);
  ASSERT_GT(full.completion_ns, 0u);

  // Deadline a third of the way through the full run: the job must stop at
  // the first superstep barrier past it, well before the full completion.
  const std::uint64_t deadline = full.completion_ns / 3;
  const auto cut = run_once(deadline);
  EXPECT_TRUE(cut.aborted);
  EXPECT_EQ(cut.jobs_aborted, 1u);
  EXPECT_GT(cut.completion_ns, deadline) << "aborts happen at the next barrier, not mid-superstep";
  EXPECT_LT(cut.completion_ns, full.completion_ns);
  EXPECT_LT(cut.disk_bytes, full.disk_bytes)
      << "an aborted job must stop reserving disk service on the simulated clock";

  // The abort is a traced barrier-time event carrying the deadline.
  bool saw_abort = false;
  for (const TraceRecord& record : cut.trace) {
    if (record.code == TraceCode::kJobAborted) {
      saw_abort = true;
      EXPECT_EQ(record.job, 0u);
      EXPECT_EQ(record.detail, deadline);
      EXPECT_EQ(record.t_ns, cut.completion_ns);
      EXPECT_GT(record.t_ns, deadline);
    }
  }
  EXPECT_TRUE(saw_abort);
}

TEST(DeadlineAbort, ClusterServiceFreesTheBackendForCompetingJobs) {
  // Serialized backend (max_concurrent = 1): job 0 is a long run with a
  // tight deadline, job 1 arrives behind it. With cancel_past_deadline the
  // DES aborts job 0 at a barrier and job 1 both starts and finishes
  // earlier on the simulated clock.
  const auto g = test_graph();
  std::vector<BackendConfig> backends(1);
  backends[0].dataset = "abort";
  backends[0].engine = Backend::kChaos;
  backends[0].shared_structure = false;
  backends[0].num_nodes = 2;
  backends[0].max_concurrent = 1;

  std::vector<Submission> submissions(2);
  submissions[0].spec = pagerank_spec(12);
  submissions[0].arrival_ns = 0;
  submissions[0].dataset = "abort";
  submissions[1].spec = pagerank_spec(2);
  submissions[1].arrival_ns = 1;
  submissions[1].dataset = "abort";

  // Baseline (no cancellation) to size a mid-run deadline for job 0.
  ClusterService baseline(g, backends, service_config());
  const auto without = baseline.run(submissions);
  ASSERT_EQ(without[0].completed, 2u);
  ASSERT_EQ(without[0].deadline_aborts, 0u);

  submissions[0].deadline_ns =
      service::deadline_from(submissions[0].arrival_ns, without[0].stream_time.max_ns / 4);
  backends[0].cancel_past_deadline = true;
  ClusterService service(g, backends, service_config());
  const auto with = service.run(submissions);

  EXPECT_EQ(with[0].deadline_aborts, 1u);
  EXPECT_GE(with[0].deadline_misses, 1u);
  EXPECT_EQ(with[0].completed, 1u) << "the aborted job must not count as completed";
  EXPECT_LT(with[0].e2e.max_ns, without[0].e2e.max_ns)
      << "job 1 must see the backend freed early";
}

TEST(DeadlineAbort, QueuedPastDeadlineJobIsShedAtDispatch) {
  const auto g = test_graph();
  std::vector<BackendConfig> backends(1);
  backends[0].dataset = "shed";
  backends[0].num_nodes = 2;
  backends[0].max_concurrent = 1;
  backends[0].cancel_past_deadline = true;

  std::vector<Submission> submissions(2);
  submissions[0].spec = pagerank_spec(6);
  submissions[0].arrival_ns = 0;
  submissions[0].dataset = "shed";
  // Job 1 queues behind job 0 and its deadline passes in the queue: it must
  // be shed at dispatch, never reaching the backend sim.
  submissions[1].spec = pagerank_spec(6);
  submissions[1].arrival_ns = 1;
  submissions[1].deadline_ns = 2;
  submissions[1].dataset = "shed";

  ClusterService service(g, backends, service_config());
  const auto stats = service.run(submissions);
  EXPECT_EQ(stats[0].completed, 1u);
  EXPECT_EQ(stats[0].deadline_aborts, 1u);
  EXPECT_GE(stats[0].deadline_misses, 1u);
}

// ---------------------------------------------------------------------------
// Deadline sentinel convention
// ---------------------------------------------------------------------------

TEST(DeadlineSentinel, SharedKeyAndNormalizationEnforceTheConvention) {
  // 0 is the reserved "no deadline" sentinel: it sorts after every real
  // deadline in both EDF queues (they share this key), and deadline_from
  // can never produce it — a genuine time-zero deadline stays a (tight,
  // already-missed) real deadline instead of silently becoming infinitely
  // lax.
  EXPECT_EQ(service::edf_deadline_key(service::kNoDeadline),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_LT(service::edf_deadline_key(1), service::edf_deadline_key(service::kNoDeadline));
  EXPECT_EQ(service::deadline_from(0, 0), 1u);
  EXPECT_EQ(service::deadline_from(5, 7), 12u);
}

TEST(DeadlineSentinel, NormalizedZeroDeadlineDispatchesFirstNotLast) {
  // Same shape as DeadlinePolicyDispatchesTightestFirstAndCountsMisses, but
  // the "impossible" job's deadline is built with deadline_from(0, 0). Under
  // the raw sentinel convention it would sort last; normalized it is the
  // tightest deadline in the queue and dispatches first.
  const auto g = test_graph();
  std::vector<BackendConfig> backends(1);
  backends[0].dataset = "edf0";
  backends[0].num_nodes = 4;
  backends[0].max_concurrent = 1;
  backends[0].policy = service::AdmissionPolicy::kDeadline;
  ClusterServiceConfig config = service_config();
  config.des.record_trace = true;
  ClusterService service(g, backends, config);

  auto submissions = staggered_submissions(4, g, 0, "edf0");
  submissions[0].deadline_ns = service::kNoDeadline;  // sorts last
  submissions[1].deadline_ns = 400'000'000;
  submissions[2].deadline_ns = 200'000'000;
  submissions[3].deadline_ns = service::deadline_from(0, 0);  // genuine t=0 deadline
  const auto stats = service.run(submissions);
  EXPECT_EQ(stats[0].completed, 4u);
  EXPECT_GE(stats[0].deadline_misses, 1u) << "the normalized 0-ns deadline is still a miss";

  std::vector<std::uint32_t> dispatch_order;
  for (const TraceRecord& record : service.last_trace()) {
    if (record.code == TraceCode::kJobDispatched) dispatch_order.push_back(record.job);
  }
  EXPECT_EQ(dispatch_order, (std::vector<std::uint32_t>{0, 3, 2, 1}));
}

// ---------------------------------------------------------------------------
// Golden pins for the admission paths the empty-plan pins in
// test_cluster_faults.cpp (both kImmediate) never reach: batch release by k
// and by timeout, EDF with deadline cancellation, adaptive shedding while the
// SLO detector is Critical, and a crash that drains a held batch. The
// constants were recorded before the admission policy moved into the shared
// service::AdmissionCore; any change to admission order or timing moves them.
// ---------------------------------------------------------------------------

constexpr std::uint64_t kGoldenBatchHash = 0x96b4826d97f62733ULL;
constexpr std::uint64_t kGoldenEdfCancelHash = 0x7b3333d9f2e2a971ULL;
constexpr std::uint64_t kGoldenAdaptiveHash = 0xb207d26e0f1c7397ULL;
constexpr std::uint64_t kGoldenCrashDrainHash = 0x51f79ad0200eb5d7ULL;

ClusterServiceConfig golden_admission_config() {
  ClusterServiceConfig config;
  config.des.seed = 0xAD31;
  return config;
}

TEST(AdmissionPin, BatchReleasedByKThenByTimeout) {
  const auto g = test_graph();
  std::vector<BackendConfig> backends(1);
  backends[0].dataset = "batched";
  backends[0].num_nodes = 4;
  backends[0].policy = service::AdmissionPolicy::kBatchUntilK;
  backends[0].batch_k = 3;
  backends[0].batch_max_wait_ns = 2'000'000;
  ClusterService service(g, backends, golden_admission_config());

  // Jobs 0-2 reach k at 0.6 ms; jobs 3-4 never reach k and leave on the
  // timer 2 ms after job 3 arrived.
  const auto stats = service.run(staggered_submissions(5, g, 300'000, "batched"));
  EXPECT_EQ(stats[0].completed, 5u);
  EXPECT_GE(stats[0].queue_wait.max_ns, 2e6);
  EXPECT_EQ(service.last_trace_hash(), kGoldenBatchHash);
}

TEST(AdmissionPin, EdfWithPastDeadlineCancellation) {
  const auto g = test_graph();
  std::vector<BackendConfig> backends(1);
  backends[0].dataset = "edf";
  backends[0].num_nodes = 4;
  backends[0].max_concurrent = 1;
  backends[0].policy = service::AdmissionPolicy::kDeadline;
  backends[0].cancel_past_deadline = true;
  ClusterService service(g, backends, golden_admission_config());

  auto submissions = staggered_submissions(6, g, 100'000, "edf");
  // Job 0 takes the only slot. When it finishes (~1.9 ms), EDF sheds the
  // two jobs already past their deadline, dispatches job 2 and aborts it
  // mid-run, then runs the lax job 3 and the deadline-less job 4 last.
  submissions[1].deadline_ns = service::deadline_from(submissions[1].arrival_ns, 1);
  submissions[2].deadline_ns = 2'500'000;
  submissions[3].deadline_ns = 50'000'000;
  submissions[5].deadline_ns = service::deadline_from(submissions[5].arrival_ns, 0);
  const auto stats = service.run(submissions);
  const auto& reports = service.last_job_reports();
  std::uint64_t shed = 0, aborted = 0;
  for (const JobReport& r : reports) {
    if (r.outcome == service::Outcome::kDeadlineShed) ++shed;
    if (r.outcome == service::Outcome::kDeadlineAborted) ++aborted;
  }
  EXPECT_EQ(stats[0].completed, 3u);
  EXPECT_EQ(shed, 2u);
  EXPECT_EQ(aborted, 1u);
  EXPECT_EQ(service.last_trace_hash(), kGoldenEdfCancelHash);
}

TEST(AdmissionPin, AdaptiveShedsWhileCritical) {
  const auto g = test_graph();
  std::vector<BackendConfig> backends(1);
  backends[0].dataset = "slo";
  backends[0].num_nodes = 4;
  backends[0].max_concurrent = 1;
  backends[0].policy = service::AdmissionPolicy::kAdaptive;
  backends[0].adaptive_queue_quota = 1;
  ClusterServiceConfig config = golden_admission_config();
  obs::SloSpec spec;
  spec.name = "e2e";
  spec.threshold_ns = 0;  // every completion is a bad sample: Critical at once
  spec.window_ns = 60'000'000;
  spec.sub_windows = 6;
  config.objectives = {spec};
  ClusterService service(g, backends, config);

  auto submissions = staggered_submissions(12, g, 300'000, "slo");
  for (std::size_t j = 1; j < submissions.size(); j += 2) {
    submissions[j].deadline_ns =
        service::deadline_from(submissions[j].arrival_ns, 1'000'000'000);
  }
  const auto stats = service.run(submissions);
  EXPECT_EQ(stats[0].completed, 7u);
  EXPECT_EQ(stats[0].slo_shed, 5u);
  EXPECT_EQ(service.last_trace_hash(), kGoldenAdaptiveHash);
}

TEST(AdmissionPin, CrashDrainsHeldBatchToReplica) {
  const auto g = test_graph();
  std::vector<BackendConfig> backends(2);
  for (std::uint32_t b = 0; b < 2; ++b) {
    backends[b].dataset = "d";
    backends[b].num_nodes = 4;
    backends[b].replica_id = b;
    backends[b].policy = service::AdmissionPolicy::kBatchUntilK;
    backends[b].batch_k = 8;                      // never reached
    backends[b].batch_max_wait_ns = 20'000'000;  // outlasts dead detection
  }
  ClusterService service(g, backends, golden_admission_config());

  FaultPlan plan;
  FaultEvent crash;
  crash.kind = FaultKind::kCrash;
  crash.backend = 0;
  crash.at_ns = 100'000;
  crash.duration_ns = 0;  // permanent
  plan.events.push_back(crash);
  const auto stats = service.run(staggered_submissions(6, g, 300'000, "d"), plan);
  const FaultStats& fstats = service.last_fault_stats();
  // Backend 0 held jobs 0, 2 and 4 when it was declared dead; all three
  // drain to the replica, which also releases its own batch on the timer.
  EXPECT_EQ(fstats.failovers, 1u);
  EXPECT_EQ(fstats.redispatched_jobs, 3u);
  EXPECT_EQ(stats[0].completed, 0u);
  EXPECT_EQ(stats[1].completed, 6u);
  EXPECT_EQ(service.last_trace_hash(), kGoldenCrashDrainHash);
}

}  // namespace
}  // namespace graphm::cluster
