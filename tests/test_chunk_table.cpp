#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>

#include "graph/run_index.hpp"
#include "graphm/chunk_table.hpp"
#include "test_helpers.hpp"

namespace graphm::core {
namespace {

TEST(ChunkSize, Formula1RespectsLlcBudget) {
  sim::PlatformConfig config;
  config.llc_bytes = 256 * 1024;
  config.llc_reserved_bytes = 16 * 1024;
  config.num_cores = 16;
  const std::uint64_t graph_bytes = 100ull << 20;
  const std::uint64_t vertices = 1u << 20;
  const std::size_t uv = 8;
  const std::size_t sc = chunk_size_bytes(config, graph_bytes, vertices, uv);

  // Plug Sc back into Formula 1: must fit, and Sc + one quantum must not.
  const double n = config.num_cores;
  const double vertex_term = static_cast<double>(vertices) * uv / graph_bytes;
  auto footprint = [&](double s) { return s * n + s * n * vertex_term; };
  EXPECT_LE(footprint(static_cast<double>(sc)),
            static_cast<double>(config.llc_bytes - config.llc_reserved_bytes) + 1.0);
  const std::size_t quantum = std::lcm(sizeof(graph::Edge), config.cache_line);
  EXPECT_GT(footprint(static_cast<double>(sc + quantum)),
            static_cast<double>(config.llc_bytes - config.llc_reserved_bytes));
}

TEST(ChunkSize, MultipleOfEdgeAndCacheLine) {
  sim::PlatformConfig config;
  const std::size_t sc = chunk_size_bytes(config, 1 << 20, 1 << 12, 8);
  EXPECT_EQ(sc % sizeof(graph::Edge), 0u);
  EXPECT_EQ(sc % config.cache_line, 0u);
  EXPECT_GT(sc, 0u);
}

TEST(ChunkSize, MoreCoresMeansSmallerChunks) {
  sim::PlatformConfig few;
  few.num_cores = 2;
  sim::PlatformConfig many;
  many.num_cores = 16;
  EXPECT_GT(chunk_size_bytes(few, 1 << 24, 1 << 12, 8),
            chunk_size_bytes(many, 1 << 24, 1 << 12, 8));
}

TEST(ChunkSize, NeverZeroEvenForTinyLlc) {
  sim::PlatformConfig config;
  config.llc_bytes = 128;
  config.llc_reserved_bytes = 0;
  config.num_cores = 64;
  EXPECT_GT(chunk_size_bytes(config, 1 << 20, 1 << 10, 8), 0u);
}

class LabelPartitionTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(LabelPartitionTest, Algorithm1Invariants) {
  const auto [edge_count, chunk_edges] = GetParam();
  const auto g = test::small_rmat(100, edge_count, edge_count);
  const std::size_t chunk_bytes = chunk_edges * sizeof(graph::Edge);
  const graph::RunIndex index = graph::index_runs(g.edges().data(), g.num_edges());
  const ChunkTable table = label_partition(index, chunk_bytes);

  // Invariant 1: chunks tile the partition exactly.
  graph::EdgeCount cursor = 0;
  for (const ChunkInfo& chunk : table.chunks) {
    EXPECT_EQ(chunk.edge_begin, cursor);
    cursor = chunk.edge_end;
  }
  EXPECT_EQ(cursor, g.num_edges());
  EXPECT_EQ(table.total_edges(), g.num_edges());

  // Invariant 2: every chunk except the last is exactly the target size.
  for (std::size_t c = 0; c + 1 < table.chunks.size(); ++c) {
    EXPECT_EQ(table.chunks[c].total_edges(), static_cast<graph::EdgeCount>(chunk_edges));
  }
  EXPECT_LE(table.chunks.back().total_edges(), static_cast<graph::EdgeCount>(chunk_edges));

  // Invariant 3: the partition's runs, clipped to a chunk's window, are the
  // chunk_table's <v, N+(v)> pairs in run-length form — per source, the
  // summed run counts match a recount of the chunk's source occurrences, and
  // all counts sum to the chunk's edge count.
  for (const ChunkInfo& chunk : table.chunks) {
    std::uint64_t sum = 0;
    std::map<graph::VertexId, std::uint64_t> recount;
    for (graph::EdgeCount i = chunk.edge_begin; i < chunk.edge_end; ++i) {
      ++recount[g.edges()[i].src];
    }
    std::map<graph::VertexId, std::uint64_t> summed;
    for (std::uint32_t r = chunk.run_window.first; r < chunk.run_window.last; ++r) {
      const graph::SourceRun run = graph::clip_run(index.runs[r], chunk.edge_begin, chunk.edge_end);
      sum += run.count;
      summed[run.src] += run.count;
    }
    EXPECT_EQ(summed, recount);
    EXPECT_EQ(sum, chunk.total_edges());
  }

  // Invariant 4: the run index is split into strictly ascending segments,
  // with boundaries from 0 to runs.size().
  const std::vector<std::uint32_t>& bounds = index.segments;
  ASSERT_GE(bounds.size(), 2u);
  EXPECT_EQ(bounds.front(), 0u);
  EXPECT_EQ(bounds.back(), index.runs.size());
  for (std::uint32_t r = 1; r < index.runs.size(); ++r) {
    if (std::binary_search(bounds.begin(), bounds.end(), r)) continue;
    EXPECT_LT(index.runs[r - 1].src, index.runs[r].src);
  }

  // A src-sorted stream (one grid block) indexes into one segment.
  std::vector<graph::Edge> sorted = g.edges();
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const graph::Edge& a, const graph::Edge& b) { return a.src < b.src; });
  EXPECT_EQ(graph::index_runs(sorted.data(), sorted.size()).segments.size(), 2u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, LabelPartitionTest,
                         ::testing::Values(std::tuple{257, 16}, std::tuple{1024, 64},
                                           std::tuple{1000, 128}, std::tuple{4096, 1000},
                                           std::tuple{300, 1024}, std::tuple{4096, 1}));

TEST(LabelPartition, EmptyPartition) {
  const ChunkTable table = label_partition(graph::RunIndex{}, 1024);
  EXPECT_TRUE(table.chunks.empty());
  EXPECT_EQ(table.total_edges(), 0u);
}

TEST(ChunkInfo, ActiveEdgesHonorsBitmap) {
  graph::EdgeList g;
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  const auto label_one_chunk = [&](const graph::RunIndex& index) {
    const ChunkTable table = label_partition(index, 1 << 20);
    EXPECT_EQ(table.chunks.size(), 1u);
    return table.chunks.front();
  };
  const graph::RunIndex index = graph::index_runs(g.edges().data(), g.num_edges());
  const ChunkInfo info = label_one_chunk(index);

  util::AtomicBitmap active(3);
  EXPECT_EQ(info.active_edges(index, active), 0u);
  active.set(0);
  EXPECT_EQ(info.active_edges(index, active), 2u);
  active.set(2);
  EXPECT_EQ(info.active_edges(index, active), 3u);
  active.set(1);
  EXPECT_EQ(info.active_edges(index, active), 4u);

  // Source 0 again after 1 and 2, as in a chunk across two src-sorted grid
  // blocks: 0 has two runs, and N+(0) is the sum of both.
  g.add_edge(0, 1);
  g.add_edge(0, 3);
  const graph::RunIndex split_index = graph::index_runs(g.edges().data(), g.num_edges());
  const ChunkInfo split = label_one_chunk(split_index);
  ASSERT_EQ(split_index.runs.size(), 4u);
  EXPECT_EQ(split_index.runs.front().src, 0u);
  EXPECT_EQ(split_index.runs.back().src, 0u);

  util::AtomicBitmap sources(3);
  sources.set(0);
  EXPECT_EQ(split.active_edges(split_index, sources), 4u);
  sources.set(1);
  EXPECT_EQ(split.active_edges(split_index, sources), 5u);
  sources.set(2);
  EXPECT_EQ(split.active_edges(split_index, sources), 6u);
}

TEST(ChunkTable, FootprintGrowsWithEntries) {
  const auto g = test::small_rmat(100, 2000);
  const graph::RunIndex index = graph::index_runs(g.edges().data(), g.num_edges());
  const ChunkTable fine = label_partition(index, 64 * 12);
  const ChunkTable coarse = label_partition(index, 1024 * 12);
  EXPECT_GT(fine.footprint_bytes(), 0u);
  EXPECT_GT(fine.chunks.size(), coarse.chunks.size());
}

}  // namespace
}  // namespace graphm::core
