#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "algos/bfs.hpp"
#include "algos/factory.hpp"
#include "algos/pagerank.hpp"
#include "algos/reference.hpp"
#include "graph/run_index.hpp"
#include "graphm/graphm.hpp"
#include "grid/loader.hpp"
#include "grid/stream_engine.hpp"
#include "test_helpers.hpp"

namespace graphm::grid {
namespace {

TEST(GridStore, PartitionsCoverAllEdgesExactlyOnce) {
  const auto g = test::small_rmat(300, 2500);
  const GridStore store = test::make_grid(g, 4);
  EXPECT_EQ(store.meta().num_edges, g.num_edges());

  sim::Platform platform;
  std::vector<Edge> buffer;
  std::uint64_t total = 0;
  for (std::uint32_t p = 0; p < store.meta().num_partitions; ++p) {
    store.read_partition(p, buffer, platform, 0);
    total += buffer.size();
    const auto [vb, ve] = store.meta().vertex_range(p);
    for (const Edge& e : buffer) {
      EXPECT_GE(e.src, vb);
      EXPECT_LT(e.src, ve);
    }
  }
  EXPECT_EQ(total, g.num_edges());
}

TEST(GridStore, EdgeMultisetPreserved) {
  const auto g = test::small_rmat(100, 1000);
  const GridStore store = test::make_grid(g, 3);
  sim::Platform platform;

  auto key = [](const Edge& e) {
    return (static_cast<std::uint64_t>(e.src) << 32) | e.dst;
  };
  std::vector<std::uint64_t> original;
  for (const Edge& e : g.edges()) original.push_back(key(e));
  std::sort(original.begin(), original.end());

  std::vector<std::uint64_t> stored;
  std::vector<Edge> buffer;
  for (std::uint32_t p = 0; p < store.meta().num_partitions; ++p) {
    store.read_partition(p, buffer, platform, 0);
    for (const Edge& e : buffer) stored.push_back(key(e));
  }
  std::sort(stored.begin(), stored.end());
  EXPECT_EQ(original, stored);
}

TEST(GridStore, DegreesPersisted) {
  const auto g = test::small_rmat(64, 700);
  const GridStore store = test::make_grid(g, 2);
  EXPECT_EQ(store.load_out_degrees(), g.out_degrees());
}

TEST(GridStore, ReadEdgesSubrange) {
  const auto g = test::small_rmat(64, 700);
  const GridStore store = test::make_grid(g, 2);
  sim::Platform platform;
  std::vector<Edge> whole;
  store.read_partition(0, whole, platform, 0);
  ASSERT_GT(whole.size(), 10u);
  std::vector<Edge> part(5);
  store.read_edges(0, 3, 5, part.data(), platform, 0);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(part[i], whole[3 + i]);
}

TEST(GridStore, PreprocessRecordsTime) {
  const auto g = test::small_rmat(64, 700);
  const GridStore store = test::make_grid(g, 2);
  EXPECT_GT(store.meta().preprocess_ns, 0u);
}

TEST(StreamEngine, ActivePartitionsFollowBitmap) {
  const auto g = test::small_rmat(400, 3000);
  const GridStore store = test::make_grid(g, 4);
  sim::Platform platform;
  const StreamEngine engine(store, platform);

  util::AtomicBitmap active(g.num_vertices());
  active.set(0);  // vertex 0 lives in partition 0
  const auto parts = engine.active_partitions(active);
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], 0u);

  active.set_all();
  EXPECT_EQ(engine.active_partitions(active).size(), 4u);
}

TEST(StreamEngine, PageRankMatchesReference) {
  const auto g = test::small_rmat(256, 3000);
  const GridStore store = test::make_grid(g, 4);
  sim::Platform platform;
  const StreamEngine engine(store, platform);

  algos::PageRank pr(0.85, 5);
  DefaultLoader loader(store, platform);
  const JobRunStats stats = engine.run_job(0, pr, loader);
  EXPECT_EQ(stats.iterations, 5u);
  EXPECT_EQ(stats.edges_streamed, 5 * g.num_edges());

  const auto expected = algos::reference::pagerank(g, 0.85, 5);
  const auto got = pr.result();
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t v = 0; v < got.size(); ++v) {
    EXPECT_NEAR(got[v], expected[v], 1e-12);
  }
}

TEST(StreamEngine, BfsSkipsInactivePartitions) {
  // A ring: the frontier is one vertex per iteration, so most iterations only
  // touch one partition (GridGraph's selective scheduling).
  const auto g = graph::generate_ring(64);
  const GridStore store = test::make_grid(g, 8);
  sim::Platform platform;
  const StreamEngine engine(store, platform);

  algos::Bfs bfs(0);
  DefaultLoader loader(store, platform);
  const JobRunStats stats = engine.run_job(0, bfs, loader);
  EXPECT_EQ(stats.edges_processed, 64u) << "one relaxation per ring edge";
  EXPECT_LT(stats.edges_streamed, 64u * 16u)
      << "selective scheduling must not stream the whole ring every level";

  const auto expected = algos::reference::bfs_levels(g, 0);
  const auto got = bfs.result();
  for (std::size_t v = 0; v < got.size(); ++v) {
    EXPECT_DOUBLE_EQ(got[v], static_cast<double>(expected[v]));
  }
}

TEST(SourceRuns, SortedRunSegmentsBoundaries) {
  // A concatenation of sorted pieces (what a multi-block partition span looks
  // like): one segment per piece, boundaries exactly at the descents.
  std::vector<graph::SourceRun> runs;
  for (const graph::VertexId src : {1u, 4u, 9u, /*block break*/ 2u, 3u, 8u,
                                    /*block break*/ 0u, 5u}) {
    graph::append_source_run(runs, src);
    graph::append_source_run(runs, src);  // extend: runs, not edges
  }
  ASSERT_EQ(runs.size(), 8u);
  const auto bounds = graph::sorted_run_segments(runs);
  EXPECT_EQ(bounds, (std::vector<std::uint32_t>{0, 3, 6, 8}));

  // Fully sorted: one segment covering everything.
  std::vector<graph::SourceRun> sorted_runs;
  for (const graph::VertexId src : {0u, 2u, 7u}) graph::append_source_run(sorted_runs, src);
  EXPECT_EQ(graph::sorted_run_segments(sorted_runs),
            (std::vector<std::uint32_t>{0, 3}));
}

TEST(StreamEngine, SegmentJumpsMatchScalarOracleOnMultiBlockPartitions) {
  // A DefaultLoader partition span concatenates the row's P src-sorted blocks,
  // so its run index is unsorted — the engine must jump via the per-block
  // ascending segments. Pin the whole path against the legacy scalar loop:
  // bit-identical results and identical relaxation counts, on the sparse
  // frontiers (BFS) that actually take the jump branch.
  const auto g = test::small_rmat(900, 12000, 13);
  const GridStore store = test::make_grid(g, 8);

  // Premise check: a partition's concatenated run index really is
  // multi-segment (otherwise this test pins nothing).
  {
    sim::Platform platform;
    std::vector<Edge> buffer;
    store.read_partition(0, buffer, platform, 0);
    std::vector<graph::SourceRun> runs;
    for (const Edge& e : buffer) graph::append_source_run(runs, e.src);
    ASSERT_GT(graph::sorted_run_segments(runs).size(), 2u);
  }

  for (const auto kind : {algos::AlgorithmKind::kBfs, algos::AlgorithmKind::kSssp}) {
    algos::JobSpec spec;
    spec.kind = kind;
    spec.root = 1;

    auto run_path = [&](bool blocks) {
      sim::Platform platform;
      StreamConfig config;
      config.use_blocks = blocks;
      config.model_llc = false;
      const StreamEngine engine(store, platform, config);
      auto algorithm = algos::make_algorithm(spec);
      DefaultLoader loader(store, platform);
      const JobRunStats stats = engine.run_job(0, *algorithm, loader);
      return std::pair{algorithm->result(), stats};
    };
    const auto [oracle_result, oracle_stats] = run_path(false);
    const auto [block_result, block_stats] = run_path(true);
    ASSERT_EQ(oracle_result, block_result) << algos::to_string(kind);
    EXPECT_EQ(oracle_stats.edges_processed, block_stats.edges_processed)
        << algos::to_string(kind);
    EXPECT_EQ(oracle_stats.iterations, block_stats.iterations) << algos::to_string(kind);
  }
}

TEST(SourceRuns, WindowRunsClipsAtBothEnds) {
  // Runs of sources 5, 2, 7 with 3, 4 and 2 edges: [0,3) [3,7) [7,9).
  std::vector<graph::SourceRun> runs;
  for (const graph::VertexId src : {5u, 5u, 5u, 2u, 2u, 2u, 2u, 7u, 7u}) {
    graph::append_source_run(runs, src);
  }
  const graph::RunIndex index = graph::restore_run_index(runs, 9, 8);
  const auto clipped = [&](graph::EdgeCount begin, graph::EdgeCount end) {
    std::vector<graph::SourceRun> out;
    const graph::RunWindow window = graph::window_runs(index, begin, end);
    for (std::uint32_t r = window.first; r < window.last; ++r) {
      out.push_back(graph::clip_run(index.runs[r], begin, end));
    }
    return out;
  };
  using Runs = std::vector<graph::SourceRun>;
  EXPECT_EQ(clipped(0, 9), (Runs{{5, 0, 3}, {2, 3, 4}, {7, 7, 2}}));
  EXPECT_EQ(clipped(1, 8), (Runs{{5, 0, 2}, {2, 2, 4}, {7, 6, 1}}));
  EXPECT_EQ(clipped(4, 6), (Runs{{2, 0, 2}}));
  EXPECT_EQ(clipped(3, 7), (Runs{{2, 0, 4}}));
  EXPECT_EQ(clipped(4, 4), Runs{});
  EXPECT_EQ(clipped(7, 7), Runs{});
  EXPECT_EQ(clipped(9, 9), Runs{});
}

TEST(SourceRuns, RestoreRejectsRunsThatDoNotTileTheStream) {
  const std::vector<graph::SourceRun> good{{1, 0, 2}, {0, 2, 3}};
  EXPECT_EQ(graph::restore_run_index(good, 5, 2).segments,
            (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_THROW((void)graph::restore_run_index(good, 6, 2), std::runtime_error);  // sum
  EXPECT_THROW((void)graph::restore_run_index(good, 5, 1), std::runtime_error);  // src
  EXPECT_THROW((void)graph::restore_run_index({{1, 0, 2}, {0, 3, 2}}, 5, 2),
               std::runtime_error);  // gap
  EXPECT_THROW((void)graph::restore_run_index({{1, 0, 0}, {0, 0, 5}}, 5, 2),
               std::runtime_error);  // empty run
}

TEST(StreamEngine, StoreRunIndexTrackedOncePerEngineAndWindowedBySpans) {
  const auto g = test::small_rmat(700, 9000, 7);
  const GridStore store = test::make_grid(g, 4);
  const storage::StoreMeta& meta = store.meta();

  // The store's index is exactly what index_runs gives over each partition
  // read back, and each engine tracks it once, however many jobs run.
  std::uint64_t one_per_partition = 0;
  {
    sim::Platform io;
    std::vector<Edge> buffer;
    for (std::uint32_t p = 0; p < meta.num_partitions; ++p) {
      store.read_partition(p, buffer, io, 0);
      const graph::RunIndex index = graph::index_runs(buffer.data(), buffer.size());
      EXPECT_EQ(index.runs, meta.source_runs[p].runs) << "partition " << p;
      EXPECT_EQ(index.segments, meta.source_runs[p].segments) << "partition " << p;
      one_per_partition += index.footprint_bytes();
    }
  }
  ASSERT_EQ(meta.source_runs_bytes(), one_per_partition);
  {
    sim::Platform platform;
    const auto tracked = [&] {
      return platform.memory().current(sim::MemoryCategory::kChunkTables);
    };
    const StreamEngine engine(store, platform);
    EXPECT_EQ(tracked(), one_per_partition);
    for (std::uint32_t job = 0; job < 2; ++job) {
      algos::JobSpec spec;
      spec.kind = algos::AlgorithmKind::kBfs;
      spec.root = job;
      auto bfs = algos::make_algorithm(spec);
      DefaultLoader loader(store, platform);
      engine.run_job(job, *bfs, loader);
    }
    EXPECT_EQ(tracked(), one_per_partition);
    {
      const StreamEngine second(store, platform);
      EXPECT_EQ(tracked(), 2 * one_per_partition);
    }
    EXPECT_EQ(tracked(), one_per_partition);
  }

  // An odd chunk size, so GraphM's chunks straddle the grid's blocks and
  // their windows start and end inside runs.
  core::GraphMOptions options;
  options.chunk_bytes_override = 97 * sizeof(Edge);
  {
    sim::Platform platform;
    core::GraphM graphm(store, platform, options);
    graphm.init();
    std::size_t straddling = 0;
    for (std::uint32_t pid = 0; pid < meta.num_partitions; ++pid) {
      for (const core::ChunkInfo& chunk : graphm.chunk_tables()[pid].chunks) {
        graph::EdgeCount start = 0;
        for (std::uint32_t j = 1; j < meta.blocks_per_partition; ++j) {
          start += meta.block_edges[meta.block_index(pid, j - 1)];
          straddling += chunk.edge_begin < start && start < chunk.edge_end;
        }
      }
    }
    ASSERT_GT(straddling, 1u);
  }

  // Sparse BFS over the store's index, through DefaultLoader's partition
  // spans and through GraphM's chunk windows, against the scalar oracle.
  struct Run {
    std::vector<double> result;
    JobRunStats stats;
    std::uint64_t instructions = 0;
  };
  const auto run = [&](bool use_blocks, bool shared) {
    sim::Platform platform;
    StreamConfig config;
    config.use_blocks = use_blocks;
    config.model_llc = false;
    const StreamEngine engine(store, platform, config);
    core::GraphM graphm(store, platform, options);
    std::unique_ptr<PartitionLoader> loader;
    if (shared) {
      graphm.init();
      loader = graphm.make_loader(0);
    } else {
      loader = std::make_unique<DefaultLoader>(store, platform);
    }
    algos::JobSpec spec;
    spec.kind = algos::AlgorithmKind::kBfs;
    spec.root = 1;
    auto bfs = algos::make_algorithm(spec);
    Run out;
    out.stats = engine.run_job(0, *bfs, *loader);
    out.result = bfs->result();
    out.instructions = platform.instructions(0);
    return out;
  };
  const Run oracle = run(false, false);
  ASSERT_GT(oracle.stats.iterations, 2u);
  for (const bool shared : {false, true}) {
    const Run block = run(true, shared);
    const char* label = shared ? "GraphM chunks" : "default loader";
    EXPECT_EQ(oracle.result, block.result) << label;
    EXPECT_EQ(oracle.stats.edges_processed, block.stats.edges_processed) << label;
    EXPECT_EQ(oracle.stats.edges_streamed, block.stats.edges_streamed) << label;
    EXPECT_EQ(oracle.instructions, block.instructions) << label;
  }
}

TEST(StreamEngine, JobStatsAccounting) {
  const auto g = test::small_rmat(256, 3000);
  const GridStore store = test::make_grid(g, 4);
  sim::Platform platform;
  const StreamEngine engine(store, platform);

  algos::PageRank pr(0.5, 2);
  DefaultLoader loader(store, platform);
  const JobRunStats stats = engine.run_job(3, pr, loader);
  EXPECT_GT(stats.wall_ns, 0u);
  EXPECT_GT(stats.partitions_loaded, 0u);
  EXPECT_EQ(stats.edges_processed, 2 * g.num_edges()) << "PageRank relaxes every edge";
  EXPECT_GT(platform.llc().job_stats(3).accesses, 0u) << "LLC modeling attributed to job";
  EXPECT_GT(platform.instructions(3), 0u);
}

}  // namespace
}  // namespace graphm::grid
