// End-to-end integration across modules: GraphM serving two different host
// engines, snapshots taken between runs, scheduling ablation equivalence, and
// the full executor pipeline on every dataset stand-in at test scale.
#include <gtest/gtest.h>

#include <thread>

#include "algos/pagerank.hpp"
#include "algos/reference.hpp"
#include "graph/datasets.hpp"
#include "graphm/graphm.hpp"
#include "runtime/executor.hpp"
#include "runtime/workloads.hpp"
#include "shard/graphchi_engine.hpp"
#include "test_helpers.hpp"

namespace graphm {
namespace {

TEST(Integration, OneGraphMServesGridAndShardJobsAlike) {
  // The same algorithm must produce identical answers whether the host is the
  // grid engine or the shard engine, both under GraphM.
  const auto g = test::small_rmat(400, 5000, 77);
  const grid::GridStore grid_store = test::make_grid(g, 4);
  const shard::ShardStore shard_store = test::make_shards(g, 4);

  auto run = [&](const storage::PartitionedStore& store) {
    sim::Platform platform;
    core::GraphM graphm(store, platform);
    graphm.init();
    const grid::StreamEngine engine(store, platform);
    algos::PageRank a(0.7, 5);
    algos::PageRank b(0.7, 5);
    auto la = graphm.make_loader(0);
    auto lb = graphm.make_loader(1);
    std::thread ta([&] { engine.run_job(0, a, *la); });
    std::thread tb([&] { engine.run_job(1, b, *lb); });
    ta.join();
    tb.join();
    return a.result();
  };

  const auto from_grid = run(grid_store);
  const auto from_shards = run(shard_store);
  const auto expected = algos::reference::pagerank(g, 0.7, 5);
  ASSERT_EQ(from_grid.size(), expected.size());
  for (std::size_t v = 0; v < expected.size(); ++v) {
    EXPECT_NEAR(from_grid[v], expected[v], 1e-11);
    EXPECT_NEAR(from_shards[v], expected[v], 1e-11);
  }
}

TEST(Integration, SchedulingAblationChangesOrderNotAnswers) {
  const auto g = test::small_rmat(500, 6000, 3);
  const grid::GridStore store = test::make_grid(g, 8);
  const auto jobs = runtime::paper_mix(6, g.num_vertices(), 9);

  runtime::ExecutorConfig with;
  with.record_results = true;
  runtime::ExecutorConfig without = with;
  without.graphm.use_scheduling = false;

  const auto a = runtime::run_jobs(runtime::Scheme::kShared, store, jobs, with);
  const auto b = runtime::run_jobs(runtime::Scheme::kShared, store, jobs, without);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    // Exact, PageRank included: destination-block accumulation fixes the summation
    // shape, so the scheduler ablation may only change order, never bits.
    ASSERT_EQ(a.jobs[j].result, b.jobs[j].result) << "job " << j;
  }
}

TEST(Integration, MutationDuringConcurrentRunStaysPrivate) {
  // A job mutates a chunk before streaming; a concurrent job must see the
  // original graph and compute the unmutated answer.
  const auto g = test::small_rmat(300, 3000, 5);
  const grid::GridStore store = test::make_grid(g, 2);
  sim::Platform platform;
  core::GraphM graphm(store, platform);
  graphm.init();

  // Mutation: clear partition 0 / chunk 0 for job 0 (drop those edges).
  auto loader0 = graphm.make_loader(0);
  auto loader1 = graphm.make_loader(1);
  graphm.controller().apply_mutation(0, 0, 0, {});

  const grid::StreamEngine engine(store, platform);
  algos::PageRank job0(0.8, 3);
  algos::PageRank job1(0.8, 3);
  std::thread t0([&] { engine.run_job(0, job0, *loader0); });
  std::thread t1([&] { engine.run_job(1, job1, *loader1); });
  t0.join();
  t1.join();

  const auto expected = algos::reference::pagerank(g, 0.8, 3);
  const auto r1 = job1.result();
  for (std::size_t v = 0; v < expected.size(); ++v) {
    ASSERT_NEAR(r1[v], expected[v], 1e-11) << "job 1 must see the unmutated graph";
  }
  // Job 0 computed on fewer edges: its result must differ somewhere.
  const auto r0 = job0.result();
  bool differs = false;
  for (std::size_t v = 0; v < expected.size() && !differs; ++v) {
    differs = std::abs(r0[v] - expected[v]) > 1e-12;
  }
  EXPECT_TRUE(differs) << "the mutation (dropped chunk) must affect the owner";
}

TEST(Integration, EveryDatasetStandInRunsEndToEnd) {
  for (const auto& spec : graph::dataset_specs()) {
    const double tiny = 0.02;
    const grid::GridStore store = grid::open_dataset_grid(spec.name, 4, tiny);
    const auto jobs = runtime::paper_mix(3, store.meta().num_vertices, 1);
    runtime::ExecutorConfig config;
    config.record_results = true;
    const auto s = runtime::run_jobs(runtime::Scheme::kSequential, store, jobs, config);
    const auto m = runtime::run_jobs(runtime::Scheme::kShared, store, jobs, config);
    ASSERT_EQ(s.jobs.size(), m.jobs.size());
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      ASSERT_EQ(s.jobs[j].result, m.jobs[j].result)
          << spec.name << " job " << j << " must be bit-identical across -S/-M";
    }
  }
}

}  // namespace
}  // namespace graphm
