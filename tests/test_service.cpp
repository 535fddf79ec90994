// Service-layer tests: mid-stream attach without a fresh structure load,
// result equivalence for jobs joining an in-flight sharing group,
// admission policies (batch-until-k, EDF, backpressure), deadline handling
// (shed + mid-run cancellation via the controller's detach seam), group
// lifecycle, and the service-vs-isolated throughput relationship.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "graphm/graphm.hpp"
#include "grid/stream_engine.hpp"
#include "runtime/workloads.hpp"
#include "service/job_service.hpp"
#include "test_helpers.hpp"

namespace graphm::service {
namespace {

algos::JobSpec pagerank_spec(std::uint32_t iterations, double damping = 0.85) {
  algos::JobSpec spec;
  spec.kind = algos::AlgorithmKind::kPageRank;
  spec.damping = damping;
  spec.max_iterations = iterations;
  return spec;
}

algos::JobSpec sssp_spec(graph::VertexId root) {
  algos::JobSpec spec;
  spec.kind = algos::AlgorithmKind::kSssp;
  spec.root = root;
  return spec;
}

std::vector<double> solo_run(const grid::GridStore& store, const algos::JobSpec& spec) {
  sim::Platform platform;
  const grid::StreamEngine engine(store, platform);
  grid::DefaultLoader loader(store, platform);
  auto algorithm = algos::make_algorithm(spec);
  engine.run_job(0, *algorithm, loader);
  return algorithm->result();
}

/// WCC/BFS/SSSP relax via order-independent min/idempotent writes; PageRank's
/// destination-block accumulation fixes its summation shape per graph layout. Any group
/// interleaving — including sharing-scheduler permutations of the partition
/// order — is therefore bit-identical to a solo run for every algorithm.
void expect_matches_solo(const grid::GridStore& store, const algos::JobSpec& spec,
                         const std::vector<double>& actual) {
  const auto expected = solo_run(store, spec);
  ASSERT_EQ(actual.size(), expected.size()) << spec.label();
  EXPECT_EQ(actual, expected) << spec.label() << " must be bit-identical";
}

// ---------------------------------------------------------------------------
// The Algorithm-2 seam itself, driven deterministically (no thread timing):
// a job that registers while a round is in flight attaches to the resident
// partition — the attach counter moves, the load counter does not.
// ---------------------------------------------------------------------------
TEST(MidStreamAttach, JoinsResidentPartitionWithoutReload) {
  const auto g = test::small_rmat(512, 6000);
  const grid::GridStore store = test::make_grid(g, 4);
  sim::Platform platform;
  core::GraphMOptions options;
  options.allow_mid_round_attach = true;
  core::GraphM graphm(store, platform, options);
  graphm.init();

  auto a = graphm.make_loader(0);
  a->register_iteration(0, {0, 1, 2, 3});
  // A loads a partition, streams it, releases; then acquires the next one
  // and holds it mid-stream.
  auto view_a0 = a->acquire_next(0);
  ASSERT_TRUE(view_a0.has_value());
  a->release(0, view_a0->pid);
  auto view_a1 = a->acquire_next(0);
  ASSERT_TRUE(view_a1.has_value());
  const auto before = graphm.controller().stats();
  EXPECT_EQ(before.partition_loads, 2u);
  EXPECT_EQ(before.attaches, 0u);

  // B arrives mid-round, needing the partition A currently holds. It must be
  // served from the shared buffer: attaches +1, loads unchanged.
  auto b = graphm.make_loader(1);
  b->register_iteration(1, {view_a1->pid});
  auto view_b = b->acquire_next(1);
  ASSERT_TRUE(view_b.has_value());
  EXPECT_EQ(view_b->pid, view_a1->pid);

  const auto after = graphm.controller().stats();
  EXPECT_EQ(after.partition_loads, before.partition_loads) << "no fresh structure load";
  EXPECT_EQ(after.attaches, before.attaches + 1);
  EXPECT_EQ(after.mid_round_attaches, 1u);

  // The late attacher sees the very bytes A streams (the shared buffer).
  ASSERT_EQ(view_b->chunks.size(), view_a1->chunks.size());
  for (std::size_t c = 0; c < view_b->chunks.size(); ++c) {
    EXPECT_EQ(view_b->chunks[c].edges, view_a1->chunks[c].edges)
        << "late attach must alias the resident shared buffer";
  }

  b->release(1, view_b->pid);
  b->job_finished(1);
  a->release(0, view_a1->pid);
  a->job_finished(0);
}

TEST(MidStreamAttach, LateAttacherStreamsOutsideTheChunkBarrier) {
  const auto g = test::small_rmat(512, 6000);
  const grid::GridStore store = test::make_grid(g, 4);
  sim::Platform platform;
  core::GraphMOptions options;
  options.allow_mid_round_attach = true;
  core::GraphM graphm(store, platform, options);
  graphm.init();

  auto a = graphm.make_loader(0);
  a->register_iteration(0, {0});
  auto view_a = a->acquire_next(0);
  ASSERT_TRUE(view_a.has_value());

  auto b = graphm.make_loader(1);
  b->register_iteration(1, {0});
  auto view_b = b->acquire_next(1);
  ASSERT_TRUE(view_b.has_value());

  // B free-runs through every chunk while A has not even begun streaming —
  // as a barrier member this single-threaded walk could not complete.
  for (const auto& span : view_b->chunks) b->end_chunk(1, view_b->pid, span.chunk_id);
  b->release(1, view_b->pid);
  b->job_finished(1);
  a->release(0, view_a->pid);
  a->job_finished(0);
  EXPECT_EQ(graphm.controller().stats().mid_round_attaches, 1u);
}

// ---------------------------------------------------------------------------
// Service-level mid-stream submission: the late job rides the long job's
// loads (attaches increase; loads stay at what the long job alone needed)
// and both results match solo runs.
// ---------------------------------------------------------------------------
TEST(JobService, MidStreamSubmitSharesLoadsAndMatchesSolo) {
  const auto g = test::small_rmat(1024, 16000);
  const grid::GridStore store = test::make_grid(g, 4);

  ServiceConfig config;
  config.mode = ExecMode::kShared;
  config.workers = 4;
  config.record_results = true;
  JobService svc(store, config);

  // A long dense job opens the group: every iteration needs all 4
  // partitions, so solo it costs exactly kLongIterations * 4 loads. It must
  // outlast the short job's dispatch (occasionally a few ms on a loaded
  // host), or the short job finds no group to attach to.
  constexpr std::uint32_t kLongIterations = 150;
  const auto long_spec = pagerank_spec(kLongIterations);
  auto long_handle = svc.submit(long_spec);
  // Wait until the group is demonstrably mid-stream (two iterations in).
  while (svc.sharing_stats().partition_loads < 8) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  const auto short_spec = pagerank_spec(10, 0.5);
  auto short_handle = svc.submit(short_spec);
  const auto& short_record = short_handle.await();
  const auto& long_record = long_handle.await();
  svc.drain();

  EXPECT_EQ(short_handle.state(), JobState::kDone);
  EXPECT_EQ(long_handle.state(), JobState::kDone);
  EXPECT_GT(short_record.outcome.arrival_ns, long_record.outcome.start_ns)
      << "the short job must have arrived after the long job started";

  const auto sharing = svc.sharing_stats();
  EXPECT_GT(sharing.attaches, 8u) << "the late job's rounds must attach, not load";
  // Both jobs are dense, so once attached they share every round: the
  // scheduler serves both-jobs partitions first and the iteration-boundary
  // deferral keeps them aligned. A handful of extra loads may appear from
  // the first-iteration phase offset; the short job's own 40 partition
  // visits must NOT replay as loads.
  EXPECT_LE(sharing.partition_loads, kLongIterations * 4u + 8u)
      << "late submission must not reload what the group already streams";

  expect_matches_solo(store, short_spec, short_record.outcome.result);
  expect_matches_solo(store, long_spec, long_record.outcome.result);
}

TEST(JobService, MixedJobsMatchSoloRuns) {
  const auto g = test::small_rmat(600, 8000, 11);
  const grid::GridStore store = test::make_grid(g, 4);

  ServiceConfig config;
  config.mode = ExecMode::kShared;
  config.workers = 6;
  config.record_results = true;
  JobService svc(store, config);

  std::vector<algos::JobSpec> specs;
  std::vector<JobHandle> handles;
  for (std::size_t j = 0; j < 6; ++j) {
    specs.push_back(algos::random_job_spec(j, g.num_vertices(), 31));
    handles.push_back(svc.submit(specs[j]));
  }
  svc.drain();
  for (std::size_t j = 0; j < handles.size(); ++j) {
    const auto& record = handles[j].await();
    ASSERT_EQ(handles[j].state(), JobState::kDone) << specs[j].label();
    expect_matches_solo(store, specs[j], record.outcome.result);
  }
  // No attaches assertion here: on a single-core host the six jobs may
  // legitimately serialize (each finishing before the next worker thread is
  // scheduled). MidStreamSubmitSharesLoadsAndMatchesSolo pins sharing.
}

// ---------------------------------------------------------------------------
// Admission policies.
// ---------------------------------------------------------------------------
// The policy core alone, on a fake clock: the ordering, holding and
// draining rules AdmissionQueue and ClusterService both run.
std::vector<int> take_all(AdmissionCore<int>& core) {
  std::vector<int> order;
  while (core.has_ready()) order.push_back(core.take());
  return order;
}

TEST(AdmissionCore, FifoTakesInArrivalOrder) {
  AdmissionCore<int> core({AdmissionPolicy::kImmediate, 16, 4, 1000});
  for (int j = 0; j < 4; ++j) {
    EXPECT_EQ(core.push(j, /*deadline_ns=*/100 - j, /*now_ns=*/j), Admitted::kReady);
  }
  EXPECT_EQ(take_all(core), (std::vector<int>{0, 1, 2, 3})) << "deadlines ignored";
  EXPECT_EQ(core.depth(), 0u);
}

TEST(AdmissionCore, EdfTakesTightestFirstSentinelLastFifoAmongEquals) {
  for (const auto policy : {AdmissionPolicy::kDeadline, AdmissionPolicy::kAdaptive}) {
    AdmissionCore<int> core({policy, 16, 4, 1000});
    core.push(0, kNoDeadline, 0);
    core.push(1, 300, 0);
    core.push(2, 100, 0);
    core.push(3, 300, 0);
    core.push(4, kNoDeadline, 0);
    core.push(5, 1, 0);
    EXPECT_EQ(take_all(core), (std::vector<int>{5, 2, 1, 3, 0, 4}))
        << admission_policy_name(policy);
  }
}

TEST(AdmissionCore, BatchReleasesAtK) {
  AdmissionCore<int> core({AdmissionPolicy::kBatchUntilK, 16, 3, 1000});
  EXPECT_EQ(core.push(0, kNoDeadline, 10), Admitted::kHeld);
  EXPECT_EQ(core.held(), 1u) << "the first arrival opens the batch";
  EXPECT_EQ(core.release_at(), 1010u);
  EXPECT_EQ(core.push(1, kNoDeadline, 20), Admitted::kHeld);
  EXPECT_FALSE(core.has_ready());
  EXPECT_EQ(core.depth(), 2u);
  EXPECT_EQ(core.push(2, kNoDeadline, 30), Admitted::kReleased);
  EXPECT_FALSE(core.holding());
  EXPECT_EQ(take_all(core), (std::vector<int>{0, 1, 2}));
}

TEST(AdmissionCore, BatchReleasesAtTheTimeout) {
  AdmissionCore<int> core({AdmissionPolicy::kBatchUntilK, 16, 8, 1000});
  // What a dispatcher does when its clock reads `now` (AdmissionQueue::pop's
  // rule): release a partial batch once its window has run out.
  const auto poll = [&core](std::uint64_t now) {
    if (core.holding() && now >= core.release_at()) core.release();
    return take_all(core);
  };
  core.push(0, kNoDeadline, 100);
  core.push(1, kNoDeadline, 600);
  // The window runs from the oldest held arrival, not the latest.
  EXPECT_EQ(core.release_at(), 1100u);
  EXPECT_TRUE(poll(1099).empty());
  EXPECT_EQ(poll(1100), (std::vector<int>{0, 1}));
  // The next batch opens its own window.
  EXPECT_EQ(core.push(2, kNoDeadline, 5000), Admitted::kHeld);
  EXPECT_EQ(core.release_at(), 6000u);
}

TEST(AdmissionCore, DepthBoundRejectsHeldAndReadyAlike) {
  AdmissionCore<int> ready({AdmissionPolicy::kImmediate, 2, 4, 1000});
  EXPECT_EQ(ready.push(0, kNoDeadline, 0), Admitted::kReady);
  EXPECT_EQ(ready.push(1, kNoDeadline, 0), Admitted::kReady);
  EXPECT_EQ(ready.push(2, kNoDeadline, 0), Admitted::kRejected);
  EXPECT_EQ(ready.depth(), 2u);

  AdmissionCore<int> held({AdmissionPolicy::kBatchUntilK, 2, 4, 1000});
  EXPECT_EQ(held.push(0, kNoDeadline, 0), Admitted::kHeld);
  EXPECT_EQ(held.push(1, kNoDeadline, 0), Admitted::kHeld);
  EXPECT_EQ(held.push(2, kNoDeadline, 0), Admitted::kRejected);
  EXPECT_EQ(held.depth(), 2u);
}

TEST(AdmissionCore, RedispatchBypassesBatchingAndTheDepthBound) {
  AdmissionCore<int> core({AdmissionPolicy::kBatchUntilK, 1, 4, 1000});
  EXPECT_EQ(core.push(0, kNoDeadline, 0), Admitted::kHeld);
  core.push_ready(7, kNoDeadline);
  EXPECT_EQ(core.depth(), 2u) << "a redispatch is never rejected";
  EXPECT_TRUE(core.holding());
  EXPECT_EQ(take_all(core), (std::vector<int>{7})) << "and never held";
}

TEST(AdmissionCore, DrainAllEmptiesReadyThenHeld) {
  AdmissionCore<int> core({AdmissionPolicy::kBatchUntilK, 16, 3, 1000});
  core.push(0, kNoDeadline, 0);
  core.push(1, kNoDeadline, 0);
  core.push(2, kNoDeadline, 0);  // releases 0-2
  core.push(3, kNoDeadline, 0);  // held
  core.push_ready(4, kNoDeadline);
  EXPECT_EQ(core.drain_all(), (std::vector<int>{0, 1, 2, 4, 3}));
  EXPECT_EQ(core.depth(), 0u);
  EXPECT_FALSE(core.holding());
}

TEST(AdmissionCore, AdaptiveShedRule) {
  EXPECT_TRUE(adaptive_sheds(kNoDeadline, 0, 0, 4)) << "deadline-less work always sheds";
  EXPECT_FALSE(adaptive_sheds(100, 3, 0, 4)) << "quota 0 means one round of slots";
  EXPECT_TRUE(adaptive_sheds(100, 4, 0, 4));
  EXPECT_TRUE(adaptive_sheds(100, 1, 1, 8)) << "an explicit quota wins over slots";
  EXPECT_TRUE(adaptive_sheds(100, 1, 0, 0)) << "zero slots still means a quota of one";
  EXPECT_FALSE(adaptive_sheds(100, 0, 0, 0));
}

TEST(Admission, BatchUntilKHoldsUntilThreshold) {
  const auto g = test::small_rmat(256, 2000);
  const grid::GridStore store = test::make_grid(g, 2);

  ServiceConfig config;
  config.mode = ExecMode::kShared;
  config.workers = 4;
  config.policy = AdmissionPolicy::kBatchUntilK;
  config.batch_k = 3;
  config.batch_max_wait_ns = 10'000'000'000ULL;  // effectively: only k releases
  JobService svc(store, config);

  auto h1 = svc.submit(pagerank_spec(2));
  auto h2 = svc.submit(pagerank_spec(2));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(h1.state(), JobState::kQueued) << "held until the batch fills";
  EXPECT_EQ(h2.state(), JobState::kQueued);

  auto h3 = svc.submit(pagerank_spec(2));  // completes the batch
  h1.await();
  h2.await();
  h3.await();
  EXPECT_EQ(h1.state(), JobState::kDone);
  EXPECT_EQ(h2.state(), JobState::kDone);
  EXPECT_EQ(h3.state(), JobState::kDone);
  svc.drain();
  const auto stats = svc.stats();
  EXPECT_EQ(stats.completed, 3u);
  // The first two waited out the hold window before entering the stream.
  EXPECT_GE(stats.queue_wait.max_ns, 25e6);
}

TEST(Admission, BatchTimeoutReleasesPartialBatch) {
  const auto g = test::small_rmat(256, 2000);
  const grid::GridStore store = test::make_grid(g, 2);

  ServiceConfig config;
  config.policy = AdmissionPolicy::kBatchUntilK;
  config.batch_k = 8;
  config.batch_max_wait_ns = 5'000'000;  // 5 ms window
  JobService svc(store, config);

  auto handle = svc.submit(pagerank_spec(1));
  handle.await();
  EXPECT_EQ(handle.state(), JobState::kDone)
      << "a lone job must not wait forever for a batch that never fills";
}

TEST(Admission, BackToBackSharedBatchesAllFinish) {
  // Batches released while earlier ones still stream: a member that waits for
  // co-members stalls its dataset's rounds under kShared, so it must never
  // wait for one queued behind a running job.
  const auto g = test::small_rmat(512, 8000);
  const grid::GridStore store = test::make_grid(g, 2);

  ServiceConfig config;
  config.mode = ExecMode::kShared;
  config.workers = 2;
  config.policy = AdmissionPolicy::kBatchUntilK;
  config.batch_k = 2;
  JobService svc(store, config);

  std::vector<JobHandle> handles;
  for (const std::uint32_t iterations : {2u, 60u, 3u, 40u, 1u, 20u, 5u, 30u}) {
    handles.push_back(svc.submit(pagerank_spec(iterations)));
  }
  svc.drain();
  for (const JobHandle& handle : handles) EXPECT_EQ(handle.state(), JobState::kDone);
}

/// Holds job 0's reads until open() or for at most 10 s, so a test can keep
/// that job running for as long as it needs, whatever its speed.
class GatedStore final : public storage::PartitionedStore {
 public:
  explicit GatedStore(const storage::PartitionedStore& inner) : inner_(inner) {}
  void open() { open_ = true; }

  const storage::StoreMeta& meta() const override { return inner_.meta(); }
  std::uint32_t file_id() const override { return inner_.file_id(); }
  std::vector<std::uint32_t> load_out_degrees() const override {
    return inner_.load_out_degrees();
  }
  std::uint64_t read_partition(std::uint32_t i, std::vector<graph::Edge>& out,
                               sim::Platform& platform, std::uint32_t job) const override {
    hold(job);
    return inner_.read_partition(i, out, platform, job);
  }
  std::uint64_t read_edges(std::uint32_t i, graph::EdgeCount first, graph::EdgeCount count,
                           graph::Edge* out, sim::Platform& platform,
                           std::uint32_t job) const override {
    hold(job);
    return inner_.read_edges(i, first, count, out, platform, job);
  }

 private:
  void hold(std::uint32_t job) const {
    while (job == 0 && !open_ && std::chrono::steady_clock::now() < deadline_) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  const storage::PartitionedStore& inner_;
  const std::chrono::steady_clock::time_point deadline_ =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::atomic<bool> open_{false};
};

TEST(Admission, ReleasedBatchMemberDoesNotWaitForARunningJob) {
  const auto g = test::small_rmat(512, 8000);
  const grid::GridStore grid_store = test::make_grid(g, 2);
  // `running` (job 0) reads through a gate that opens once `first` is done;
  // a `first` that waited for `running` would wait out the gate's timeout.
  GatedStore store(grid_store);

  ServiceConfig config;
  config.mode = ExecMode::kIsolated;
  config.workers = 2;
  config.policy = AdmissionPolicy::kBatchUntilK;
  config.batch_k = 2;
  JobService svc(store, config);

  auto running = svc.submit(pagerank_spec(2000));
  svc.submit(pagerank_spec(1)).await();
  // One worker is free, the other runs `running`: the next batch's first
  // member starts at once instead of waiting for its co-member's worker.
  auto first = svc.submit(pagerank_spec(1));
  auto second = svc.submit(pagerank_spec(1));
  first.await();
  store.open();
  svc.drain();

  EXPECT_EQ(second.state(), JobState::kDone);
  EXPECT_LT(first.await().outcome.start_ns, running.await().outcome.completion_ns);
}

TEST(Admission, DeadlinePolicyRunsTightestDeadlineFirst) {
  const auto g = test::small_rmat(512, 8000);
  const grid::GridStore store = test::make_grid(g, 2);

  ServiceConfig config;
  config.mode = ExecMode::kIsolated;
  config.workers = 1;  // force queueing behind the running job
  config.policy = AdmissionPolicy::kDeadline;
  JobService svc(store, config);

  // Occupy the single worker long enough for both queued jobs to be present
  // when the next pop happens.
  auto blocker = svc.submit(pagerank_spec(500));
  // EDF would take `loose` ahead of the deadline-less blocker if the worker
  // popped only after `loose` was queued.
  while (blocker.state() == JobState::kQueued) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  auto loose = svc.submit(pagerank_spec(2), svc.now_ns() + 3'000'000'000ULL);
  auto tight = svc.submit(pagerank_spec(2), svc.now_ns() + 1'000'000'000ULL);
  svc.drain();

  const auto& loose_record = loose.await();
  const auto& tight_record = tight.await();
  EXPECT_LT(tight_record.outcome.start_ns, loose_record.outcome.start_ns)
      << "EDF must dispatch the tighter deadline first despite FIFO arrival";
  (void)blocker;
}

TEST(Admission, BoundedQueueRejectsWhenFull) {
  const auto g = test::small_rmat(512, 8000);
  const grid::GridStore store = test::make_grid(g, 2);

  ServiceConfig config;
  config.mode = ExecMode::kIsolated;
  config.workers = 1;
  config.max_queue_depth = 2;
  JobService svc(store, config);

  std::vector<JobHandle> handles;
  for (int j = 0; j < 8; ++j) handles.push_back(svc.submit(pagerank_spec(30)));
  std::size_t rejected = 0;
  for (auto& handle : handles) {
    handle.await();
    if (handle.state() == JobState::kRejected) ++rejected;
  }
  EXPECT_GT(rejected, 0u) << "backpressure must shed beyond max_queue_depth";
  svc.drain();

  // An unknown dataset index is rejected too, not clamped to some dataset.
  auto bogus = svc.submit(pagerank_spec(1), 0, /*dataset=*/7);
  EXPECT_EQ(bogus.await().state.load(), JobState::kRejected);

  const auto stats = svc.stats();
  EXPECT_EQ(stats.rejected, rejected + 1);
  EXPECT_EQ(stats.completed + stats.rejected, 9u);
}

// ---------------------------------------------------------------------------
// Deadlines: shed-at-dispatch and mid-run cancellation through the sharing
// controller's detach seam (the group must keep going).
// ---------------------------------------------------------------------------
TEST(Deadlines, PastDeadlineJobIsShedAtDispatch) {
  const auto g = test::small_rmat(256, 2000);
  const grid::GridStore store = test::make_grid(g, 2);

  ServiceConfig config;
  config.mode = ExecMode::kIsolated;
  config.workers = 1;
  config.cancel_past_deadline = true;
  JobService svc(store, config);

  auto blocker = svc.submit(pagerank_spec(200));
  // Expired by the time the worker frees up.
  auto doomed = svc.submit(pagerank_spec(2), svc.now_ns() + 1);
  doomed.await();
  svc.drain();
  EXPECT_EQ(doomed.state(), JobState::kCancelled);
  const auto stats = svc.stats();
  EXPECT_GE(stats.cancelled, 1u);
  EXPECT_GE(stats.deadline_misses, 1u);
  (void)blocker;
}

TEST(Deadlines, MidRunCancellationDetachesWithoutStallingGroup) {
  const auto g = test::small_rmat(1024, 16000);
  const grid::GridStore store = test::make_grid(g, 4);

  ServiceConfig config;
  config.mode = ExecMode::kShared;
  config.workers = 4;
  config.cancel_past_deadline = true;
  config.record_results = true;
  JobService svc(store, config);

  // The victim's deadline lands mid-run (5000 iterations do not finish in
  // 20 ms); the survivor has none and must finish with a bit-identical
  // result even though its group partner vanished.
  auto victim = svc.submit(pagerank_spec(5000), svc.now_ns() + 20'000'000);
  const auto survivor_spec = sssp_spec(3);
  auto survivor = svc.submit(survivor_spec);
  const auto& victim_record = victim.await();
  const auto& survivor_record = survivor.await();
  svc.drain();

  EXPECT_EQ(victim.state(), JobState::kCancelled);
  EXPECT_TRUE(victim_record.outcome.stats.cancelled);
  EXPECT_LT(victim_record.outcome.stats.iterations, 5000u) << "aborted mid-run";
  EXPECT_EQ(survivor.state(), JobState::kDone);
  expect_matches_solo(store, survivor_spec, survivor_record.outcome.result);
  EXPECT_GE(svc.stats().cancelled, 1u);
}

// ---------------------------------------------------------------------------
// Group lifecycle and the SLO report.
// ---------------------------------------------------------------------------
TEST(Groups, BusyIntervalsOpenAndCloseGroups) {
  const auto g = test::small_rmat(512, 6000);
  const grid::GridStore store = test::make_grid(g, 2);

  ServiceConfig config;
  config.workers = 4;
  JobService svc(store, config, "rmat-512");

  svc.submit(pagerank_spec(3));
  svc.drain();  // dataset idle: the first group closes
  svc.submit(pagerank_spec(3));
  svc.drain();

  const auto stats = svc.stats();
  ASSERT_EQ(stats.groups.size(), 2u);
  for (const auto& group : stats.groups) {
    EXPECT_EQ(group.dataset, "rmat-512");
    EXPECT_EQ(group.jobs_served, 1u);
    EXPECT_GT(group.closed_ns, group.opened_ns);
    EXPECT_GT(group.partition_loads, 0u);
  }
  EXPECT_GT(stats.groups[1].group_id, stats.groups[0].group_id);
  EXPECT_EQ(stats.completed, 2u);
}

TEST(Stats, LatencyDecompositionIsConsistent) {
  const auto g = test::small_rmat(512, 6000);
  const grid::GridStore store = test::make_grid(g, 2);

  ServiceConfig config;
  config.mode = ExecMode::kIsolated;
  config.workers = 1;  // serialize: queue wait becomes visible
  JobService svc(store, config);
  std::vector<JobHandle> handles;
  for (int j = 0; j < 4; ++j) handles.push_back(svc.submit(pagerank_spec(5)));
  svc.drain();

  for (auto& handle : handles) {
    const auto& record = handle.await();
    EXPECT_GE(record.outcome.start_ns, record.outcome.arrival_ns);
    EXPECT_GE(record.outcome.completion_ns, record.outcome.start_ns);
    EXPECT_EQ(record.outcome.latency_ns(),
              record.outcome.queue_wait_ns() +
                  (record.outcome.completion_ns - record.outcome.start_ns));
  }
  const auto stats = svc.stats();
  EXPECT_EQ(stats.completed, 4u);
  EXPECT_EQ(stats.e2e.count, 4u);
  EXPECT_GT(stats.e2e.p95_ns, 0.0);
  EXPECT_GE(stats.e2e.p95_ns, stats.e2e.p50_ns);
  EXPECT_GE(stats.e2e.max_ns, stats.e2e.p99_ns);
  EXPECT_GT(stats.sustained_jobs_per_s, 0.0);
  // With one worker the fourth job waits behind the other three.
  EXPECT_GT(stats.queue_wait.max_ns, 0.0);
  EXPECT_EQ(stats.e2e_modeled.count, 4u);
  EXPECT_GE(stats.peak_concurrency, 1u);
  EXPECT_FALSE(stats.timeline.empty());
}

// ---------------------------------------------------------------------------
// Acceptance (c): on the fig09-style mix the service mode sustains at least
// the isolated-concurrent throughput while sharing loads. Both throughputs
// are wall-clock measurements; the 0.9 factor absorbs scheduler noise — the
// expected relationship is a clear service win, asserted without slack as
// the SHAPE line of bench/service_slo.cpp.
// ---------------------------------------------------------------------------
TEST(JobService, ServiceModeSustainsIsolatedThroughputOnPaperMix) {
  const auto g = test::small_rmat(2048, 40000, 17);
  const grid::GridStore store = test::make_grid(g, 4);
  const auto jobs = runtime::paper_mix(8, g.num_vertices(), 0x09);

  struct ModeRun {
    ServiceStats stats;
    core::SharingController::Stats sharing;
    sim::IoStats io;  // simulated page cache, all jobs
    std::vector<runtime::JobOutcome> outcomes;  // submission order
  };
  const auto run_mode = [&](ExecMode mode) {
    ServiceConfig config;
    config.mode = mode;
    config.workers = 8;
    JobService svc(store, config);
    std::vector<JobHandle> handles;
    for (const auto& spec : jobs) handles.push_back(svc.submit(spec));
    svc.drain();
    ModeRun run;
    run.stats = svc.stats();
    run.sharing = svc.sharing_stats();
    run.io = svc.platform().page_cache().total_stats();
    for (auto& handle : handles) run.outcomes.push_back(handle.await().outcome);
    return run;
  };

  const ModeRun shared = run_mode(ExecMode::kShared);
  const ModeRun isolated = run_mode(ExecMode::kIsolated);

  ASSERT_EQ(shared.stats.completed, jobs.size());
  ASSERT_EQ(isolated.stats.completed, jobs.size());
  EXPECT_GT(shared.sharing.attaches, 0u);
  EXPECT_EQ(isolated.sharing.partition_loads, 0u);  // no sharing machinery

  // Disk reads: sharing must not fetch more from disk than private streams
  // do. Redundant partition loads or page-cache thrash under -M would show
  // here.
  EXPECT_GT(isolated.io.disk_read_bytes, 0u);
  EXPECT_LE(shared.io.disk_read_bytes, isolated.io.disk_read_bytes)
      << "sharing must not read more from disk";

  // The throughput comparison runs on the modeled clock — the repo-wide
  // answer to measuring schemes on an oversubscribed host. Three host noise
  // sources remain, and none is a scheme difference:
  // - In-loop compute: identical work in both modes, inflated by whatever
  //   preemptions land inside the loops of a given run. Job j runs the same
  //   edge loops in both modes, so take the cross-mode minimum.
  // - Arrival: all jobs are submitted at once, but a preempted submit loop
  //   spread arrivals by up to 13 ms, more than a job's modeled time. The
  //   replay treats them as the one batch they are.
  // - Disk stall placement: a partition's disk read is charged to whichever
  //   job reaches it first, and with jobs running truly concurrently that
  //   placement varies from run to run. The replay therefore charges every
  //   job of a mode an even share of that mode's total disk stall, so the
  //   mode's disk time still counts but its placement does not.
  const auto replay = [&](const ModeRun& mine, const ModeRun& other) {
    std::uint64_t io_ns = 0;
    for (const auto& outcome : mine.outcomes) io_ns += outcome.stats.io_stall_ns;
    const std::uint64_t io_share = io_ns / mine.outcomes.size();
    std::vector<ReplayJob> replay_jobs;
    for (std::size_t j = 0; j < mine.outcomes.size(); ++j) {
      const runtime::JobOutcome& a = mine.outcomes[j];
      const runtime::JobOutcome& b = other.outcomes[j];
      const std::uint64_t compute = std::min(a.stats.compute_ns, b.stats.compute_ns);
      replay_jobs.push_back(
          {0, (compute + a.mem_stall_ns) / a.modeled_cores + io_share});
    }
    return modeled_replay(std::move(replay_jobs), 8);
  };
  const ModeledReplay shared_replay = replay(shared, isolated);
  const ModeledReplay isolated_replay = replay(isolated, shared);
  EXPECT_GE(shared_replay.sustained_jobs_per_s,
            isolated_replay.sustained_jobs_per_s * 0.95)
      << "sharing one structure stream must not cost modeled throughput";
  EXPECT_GT(shared.stats.e2e.p95_ns, 0.0);
  EXPECT_GT(isolated.stats.e2e.p95_ns, 0.0);
  EXPECT_GT(shared.stats.modeled.e2e.p95_ns, 0.0);
}

}  // namespace
}  // namespace graphm::service
