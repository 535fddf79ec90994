#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <string>
#include <thread>

#include "graphm/graphm.hpp"
#include "grid/stream_engine.hpp"
#include "algos/factory.hpp"
#include "algos/pagerank.hpp"
#include "algos/bfs.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"
#include "test_helpers.hpp"

namespace graphm::core {
namespace {

struct Fixture {
  graph::EdgeList g = test::small_rmat(512, 6000);
  grid::GridStore store = test::make_grid(g, 4);
  sim::Platform platform;
  GraphM graphm;
  explicit Fixture(GraphMOptions options = {}) : graphm(store, platform, options) {
    graphm.init();
  }
};

TEST(GraphMInit, BuildsTablesForEveryPartition) {
  Fixture f;
  ASSERT_EQ(f.graphm.chunk_tables().size(), 4u);
  graph::EdgeCount total = 0;
  for (const auto& table : f.graphm.chunk_tables()) total += table.total_edges();
  EXPECT_EQ(total, f.g.num_edges());
  EXPECT_GT(f.graphm.metadata_bytes(), 0u);
  EXPECT_GT(f.graphm.chunk_bytes(), 0u);
}

TEST(GraphMInit, MetadataTrackedInMemoryTracker) {
  Fixture f;
  EXPECT_EQ(f.platform.memory().current(sim::MemoryCategory::kChunkTables),
            f.graphm.metadata_bytes());
}

TEST(GraphMInit, ActiveEdgesMatchStoredEdgeOracle) {
  // An odd chunk size, so chunks straddle the grid's src-sorted blocks and a
  // source can have several runs in one chunk.
  GraphMOptions options;
  options.chunk_bytes_override = 97 * sizeof(graph::Edge);
  Fixture f(options);
  const grid::GridMeta& meta = f.store.meta();
  sim::Platform io;
  std::vector<std::vector<graph::Edge>> partitions(meta.num_partitions);
  for (std::uint32_t pid = 0; pid < meta.num_partitions; ++pid) {
    f.store.read_partition(pid, partitions[pid], io, 0);
  }
  std::size_t straddling = 0;  // chunks whose runs span several blocks
  for (const ChunkTable& table : f.graphm.chunk_tables()) {
    for (const ChunkInfo& chunk : table.chunks) straddling += chunk.index.segments.size() > 2;
  }
  ASSERT_GT(straddling, 0u);

  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    // Densities from 1/2 down to 1/32 of the vertices.
    util::SplitMix64 rng(seed);
    util::AtomicBitmap active(meta.num_vertices);
    for (graph::VertexId v = 0; v < meta.num_vertices; ++v) {
      if (rng.next_below(std::uint64_t{1} << seed) == 0) active.set(v);
    }
    for (std::uint32_t pid = 0; pid < meta.num_partitions; ++pid) {
      for (const ChunkInfo& chunk : f.graphm.chunk_tables()[pid].chunks) {
        std::uint64_t oracle = 0;
        for (graph::EdgeCount i = chunk.edge_begin; i < chunk.edge_end; ++i) {
          if (active.get(partitions[pid][i].src)) ++oracle;
        }
        EXPECT_EQ(chunk.active_edges(active), oracle)
            << "seed " << seed << " partition " << pid << " chunk at " << chunk.edge_begin;
      }
    }
  }
}

TEST(GraphMInit, MakeLoaderBeforeInitThrows) {
  const auto g = test::small_rmat(64, 500);
  const grid::GridStore store = test::make_grid(g, 2);
  sim::Platform platform;
  GraphM graphm(store, platform);
  EXPECT_THROW(graphm.make_loader(0), std::logic_error);
}

TEST(SharingController, SingleJobDrainsItsNeeds) {
  Fixture f;
  auto loader = f.graphm.make_loader(0);
  loader->register_iteration(0, {0, 2, 3});
  std::vector<std::uint32_t> seen;
  while (auto view = loader->acquire_next(0)) {
    seen.push_back(view->pid);
    EXPECT_GT(view->chunks.size(), 0u);
    // Walk the chunk barrier protocol exactly as the engine does.
    for (const auto& span : view->chunks) loader->end_chunk(0, view->pid, span.chunk_id);
    loader->release(0, view->pid);
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, (std::vector<std::uint32_t>{0, 2, 3}));
  loader->job_finished(0);
  EXPECT_EQ(f.graphm.controller().live_jobs(), 0u);
}

TEST(SharingController, ViewsTileThePartition) {
  Fixture f;
  auto loader = f.graphm.make_loader(0);
  loader->register_iteration(0, {1});
  auto view = loader->acquire_next(0);
  ASSERT_TRUE(view.has_value());
  sim::Platform scratch;
  std::vector<graph::Edge> direct;
  f.store.read_partition(1, direct, scratch, 0);
  graph::EdgeCount cursor = 0;
  for (const auto& span : view->chunks) {
    for (graph::EdgeCount i = 0; i < span.edge_count; ++i) {
      ASSERT_LT(cursor, direct.size());
      EXPECT_EQ(span.edges[i], direct[cursor]) << "shared view must expose the disk bytes";
      ++cursor;
    }
  }
  EXPECT_EQ(cursor, direct.size());
  loader->release(0, 1);
  loader->job_finished(0);
}

TEST(SharingController, TwoJobsShareOneLoad) {
  Fixture f;
  // Two PageRank jobs running concurrently through GraphM: every partition
  // must be Load()ed once and Attach()ed once per additional job.
  const grid::StreamEngine engine(f.store, f.platform);
  algos::PageRank pr0(0.85, 3);
  algos::PageRank pr1(0.5, 3);
  auto l0 = f.graphm.make_loader(0);
  auto l1 = f.graphm.make_loader(1);
  std::thread t0([&] { engine.run_job(0, pr0, *l0); });
  std::thread t1([&] { engine.run_job(1, pr1, *l1); });
  t0.join();
  t1.join();

  const auto stats = f.graphm.controller().stats();
  // 3 iterations x 4 partitions = 12 rounds; each loaded once...
  EXPECT_EQ(stats.partition_loads, 12u);
  // ...and attached by the second job.
  EXPECT_EQ(stats.attaches, 12u);
  EXPECT_GT(stats.chunk_barriers, 0u);
}

TEST(SharingController, TraceTrackEmitsOnlyDocumentedEvents) {
  // Every controller transition lands as an instant on a "sharing #N" track;
  // the names are the list docs/observability.md documents.
  obs::Tracer& tracer = obs::Tracer::global();
  struct Restore {
    obs::Tracer& tracer;
    bool was_enabled;
    ~Restore() {
      tracer.clear();
      tracer.set_enabled(was_enabled);
    }
  } restore{tracer, tracer.enabled()};
  tracer.set_enabled(true);
  tracer.clear();

  Fixture f;
  const grid::StreamEngine engine(f.store, f.platform);
  algos::PageRank pr0(0.85, 2);
  algos::PageRank pr1(0.5, 2);
  auto l0 = f.graphm.make_loader(0);
  auto l1 = f.graphm.make_loader(1);
  std::thread t0([&] { engine.run_job(0, pr0, *l0); });
  std::thread t1([&] { engine.run_job(1, pr1, *l1); });
  t0.join();
  t1.join();

  const std::set<std::string> documented = {
      "reg_iter", "advance", "load",      "acquire",     "mid_attach",
      "suspend",  "release", "end_chunk", "job_finished"};
  const std::vector<std::string> tracks = tracer.track_names();
  std::set<std::string> seen;
  for (const obs::TraceEvent& event : tracer.snapshot()) {
    ASSERT_LT(event.track, tracks.size());
    if (event.phase != 'i' || tracks[event.track].rfind("sharing #", 0) != 0) continue;
    EXPECT_EQ(documented.count(event.name), 1u) << "undocumented sharing event " << event.name;
    seen.insert(event.name);
  }
  EXPECT_EQ(tracer.dropped(), 0u);
  for (const char* name : {"load", "acquire", "release"}) {
    EXPECT_EQ(seen.count(name), 1u) << name << " missing from the sharing track";
  }
}

TEST(SharingController, MembersFinishEachChunkBeforeAnyStartsTheNext) {
  // Three members of one round log every end_chunk entry and return: none may
  // return from chunk c before every streaming member has entered it. In the
  // second pass member 2 acquires and then finishes without streaming (as a
  // cancelled job does); the members waiting for it must go on without it.
  for (const bool departs : {false, true}) {
    Fixture f(GraphMOptions{.chunk_bytes_override = 64 * sizeof(graph::Edge)});
    const std::size_t chunks = f.graphm.chunk_tables()[1].chunks.size();
    std::vector<std::unique_ptr<grid::PartitionLoader>> loaders;
    for (std::uint32_t j = 0; j < 3; ++j) {
      loaders.push_back(f.graphm.make_loader(j));
      loaders[j]->register_iteration(j, {1});
    }
    Mutex mutex;
    std::vector<std::pair<std::uint32_t, bool>> log;  // (chunk, returned)
    const auto record = [&](std::uint32_t chunk, bool returned) {
      MutexLock lock(mutex);
      log.emplace_back(chunk, returned);
    };
    const auto stream = [&](std::uint32_t j) {
      const auto view = loaders[j]->acquire_next(j);
      for (const auto& span : view->chunks) {
        record(span.chunk_id, false);
        loaders[j]->end_chunk(j, 1, span.chunk_id);
        record(span.chunk_id, true);
      }
      loaders[j]->release(j, 1);
      loaders[j]->job_finished(j);
    };
    const std::uint32_t streamers = departs ? 2 : 3;
    std::vector<std::thread> threads;
    for (std::uint32_t j = 0; j < streamers; ++j) threads.emplace_back(stream, j);
    if (departs) {
      EXPECT_TRUE(loaders[2]->acquire_next(2).has_value());
      std::this_thread::sleep_for(std::chrono::milliseconds(20));  // let 0 and 1 wait
      loaders[2]->job_finished(2);
    }
    for (auto& t : threads) t.join();

    std::vector<std::uint32_t> entered(chunks, 0);
    for (const auto& [chunk, returned] : log) {
      EXPECT_TRUE(!returned || entered[chunk] == streamers) << "left chunk " << chunk << " early";
      if (!returned) ++entered[chunk];
    }
    EXPECT_EQ(log.size(), 2 * streamers * chunks);
    EXPECT_EQ(f.graphm.controller().stats().chunk_barriers, chunks);
    EXPECT_EQ(f.graphm.controller().stats().mid_round_detaches, departs ? 1u : 0u);
  }
}

TEST(SharingController, SharedBufferHitsSameSimulatedLines) {
  Fixture f;
  const grid::StreamEngine engine(f.store, f.platform);

  // First: one job alone.
  {
    algos::PageRank pr(0.85, 1);
    auto loader = f.graphm.make_loader(0);
    engine.run_job(0, pr, *loader);
  }
  const auto solo_swapped = f.platform.llc().total_stats().bytes_swapped_in;

  f.platform.llc().reset();
  // Then: two jobs sharing. The second job's accesses land on the same
  // buffer, so total bytes swapped into the LLC should be far less than 2x.
  {
    algos::PageRank pr0(0.85, 1);
    algos::PageRank pr1(0.85, 1);
    auto l0 = f.graphm.make_loader(10);
    auto l1 = f.graphm.make_loader(11);
    std::thread t0([&] { engine.run_job(10, pr0, *l0); });
    std::thread t1([&] { engine.run_job(11, pr1, *l1); });
    t0.join();
    t1.join();
  }
  const auto shared_swapped = f.platform.llc().total_stats().bytes_swapped_in;
  EXPECT_LT(shared_swapped, solo_swapped * 2)
      << "sharing must not double the LLC traffic the way -C does";
}

TEST(SharingController, SuspensionHappensWhenNeedsDiverge) {
  Fixture f;
  const grid::StreamEngine engine(f.store, f.platform);
  // A BFS job (few active partitions) and a PageRank job (all partitions):
  // the BFS job must be suspended while partitions it does not need are
  // served.
  algos::PageRank pr(0.85, 4);
  algos::Bfs bfs(0);
  auto l0 = f.graphm.make_loader(0);
  auto l1 = f.graphm.make_loader(1);
  std::thread t0([&] { engine.run_job(0, pr, *l0); });
  std::thread t1([&] { engine.run_job(1, bfs, *l1); });
  t0.join();
  t1.join();
  EXPECT_GT(f.graphm.controller().stats().suspensions, 0u);
}

TEST(SharingController, ManyJobsProduceCorrectResults) {
  // Stress the barrier/suspend logic with 6 mixed jobs.
  Fixture f;
  const grid::StreamEngine engine(f.store, f.platform);
  std::vector<std::unique_ptr<algos::StreamingAlgorithm>> algorithms;
  std::vector<std::unique_ptr<grid::PartitionLoader>> loaders;
  for (std::uint32_t j = 0; j < 6; ++j) {
    algorithms.push_back(algos::make_algorithm(
        algos::random_job_spec(j, f.g.num_vertices(), 99)));
    loaders.push_back(f.graphm.make_loader(j));
  }
  std::vector<std::thread> threads;
  for (std::uint32_t j = 0; j < 6; ++j) {
    threads.emplace_back([&, j] { engine.run_job(j, *algorithms[j], *loaders[j]); });
  }
  for (auto& t : threads) t.join();
  // Each result must match a solo run of the same spec.
  for (std::uint32_t j = 0; j < 6; ++j) {
    auto solo = algos::make_algorithm(algos::random_job_spec(j, f.g.num_vertices(), 99));
    sim::Platform platform;
    const grid::StreamEngine solo_engine(f.store, platform);
    grid::DefaultLoader loader(f.store, platform);
    solo_engine.run_job(0, *solo, loader);
    const auto a = algorithms[j]->result();
    const auto b = solo->result();
    // Bit-identical for every kind, PageRank included: the sharing
    // controller may reorder partition loads, but destination-block accumulation
    // makes the summation shape order-independent.
    ASSERT_EQ(a, b) << "job " << j;
  }
}

}  // namespace
}  // namespace graphm::core
