#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "graph/datasets.hpp"
#include "storage/store.hpp"
#include "test_helpers.hpp"

namespace graphm::storage {
namespace {

StoreMeta make_meta(graph::VertexId n, std::uint32_t partitions, bool by_source = true) {
  StoreMeta meta;
  meta.num_vertices = n;
  meta.num_partitions = partitions;
  meta.partitions_by_source = by_source;
  meta.blocks_per_partition = 1;
  meta.block_offsets.assign(partitions, 0);
  meta.block_edges.assign(partitions, 0);
  return meta;
}

class VertexRangeProperties
    : public ::testing::TestWithParam<std::tuple<graph::VertexId, std::uint32_t>> {};

TEST_P(VertexRangeProperties, RangesTileTheVertexSpace) {
  const auto [n, partitions] = GetParam();
  const StoreMeta meta = make_meta(n, partitions);

  graph::VertexId cursor = 0;
  for (std::uint32_t p = 0; p < partitions; ++p) {
    const auto [begin, end] = meta.vertex_range(p);
    EXPECT_EQ(begin, cursor) << "partition " << p;
    EXPECT_LE(begin, end);
    cursor = end;
  }
  EXPECT_EQ(cursor, n) << "ranges must cover every vertex exactly once";
}

TEST_P(VertexRangeProperties, PartitionOfIsInverseOfVertexRange) {
  const auto [n, partitions] = GetParam();
  const StoreMeta meta = make_meta(n, partitions);
  for (graph::VertexId v = 0; v < n; ++v) {
    const std::uint32_t p = meta.partition_of(v);
    ASSERT_LT(p, partitions);
    const auto [begin, end] = meta.vertex_range(p);
    ASSERT_GE(v, begin) << "vertex " << v;
    ASSERT_LT(v, end) << "vertex " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, VertexRangeProperties,
                         ::testing::Values(std::tuple{100u, 4u}, std::tuple{101u, 4u},
                                           std::tuple{7u, 8u}, std::tuple{1u, 1u},
                                           std::tuple{64u, 64u}, std::tuple{1000u, 3u},
                                           std::tuple{65u, 64u}));

TEST(StoreMeta, DestinationPartitionedStoresSpanEverything) {
  const StoreMeta meta = make_meta(1000, 8, /*by_source=*/false);
  for (std::uint32_t p = 0; p < 8; ++p) {
    const auto [begin, end] = meta.vertex_range(p);
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 1000u);
  }
}

TEST(StoreMeta, PartitionBytesFollowBlockEdges) {
  StoreMeta meta = make_meta(100, 2);
  meta.blocks_per_partition = 2;
  meta.block_offsets = {0, 120, 240, 360};
  meta.block_edges = {10, 10, 5, 3};
  EXPECT_EQ(meta.partition_edges(0), 20u);
  EXPECT_EQ(meta.partition_edges(1), 8u);
  EXPECT_EQ(meta.partition_bytes(0), 20 * sizeof(graph::Edge));
  EXPECT_EQ(meta.max_partition_bytes(), 20 * sizeof(graph::Edge));
  EXPECT_EQ(meta.partition_offset(1), 240u);
}

TEST(PartitionedStore, GridAndShardExposeTheSameEdgeMultiset) {
  // The two formats must describe the same graph — the precondition for
  // GraphM serving both ("one storage system for all").
  const auto g = test::small_rmat(200, 2000);
  const grid::GridStore grid_store = test::make_grid(g, 4);
  const shard::ShardStore shard_store = test::make_shards(g, 4);

  auto collect = [](const PartitionedStore& store) {
    sim::Platform platform;
    std::vector<graph::Edge> buffer;
    std::vector<std::uint64_t> keys;
    for (std::uint32_t p = 0; p < store.meta().num_partitions; ++p) {
      store.read_partition(p, buffer, platform, 0);
      for (const auto& e : buffer) {
        keys.push_back((static_cast<std::uint64_t>(e.src) << 32) | e.dst);
      }
    }
    std::sort(keys.begin(), keys.end());
    return keys;
  };
  EXPECT_EQ(collect(grid_store), collect(shard_store));
}

// Positional reads take no lock, so concurrent readers of one store (and of
// several) must still get exactly the bytes a lone reader gets, for whole
// partitions and for sub-ranges at arbitrary edge offsets.
void expect_concurrent_reads_match(const std::vector<const PartitionedStore*>& stores) {
  std::vector<std::vector<std::vector<graph::Edge>>> expected(stores.size());
  for (std::size_t s = 0; s < stores.size(); ++s) {
    sim::Platform platform;
    for (std::uint32_t p = 0; p < stores[s]->meta().num_partitions; ++p) {
      expected[s].emplace_back();
      stores[s]->read_partition(p, expected[s].back(), platform, 0);
    }
  }

  constexpr std::uint32_t kThreads = 4;
  constexpr std::uint32_t kRounds = 40;
  sim::Platform platform;
  std::atomic<std::uint32_t> mismatches{0};
  std::vector<std::thread> threads;
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<graph::Edge> buffer;
      for (std::uint32_t r = 0; r < kRounds; ++r) {
        // Even rounds: every thread on the same partition of the same store.
        // Odd rounds: each thread on its own store/partition.
        const std::size_t s = (r % 2 == 0 ? r / 2 : t + r) % stores.size();
        const auto& parts = expected[s];
        const std::uint32_t p =
            static_cast<std::uint32_t>((r % 2 == 0 ? r / 2 : t * 3 + r) % parts.size());
        const std::size_t edges = parts[p].size();
        const std::size_t first = edges == 0 ? 0 : (t * 7 + r * 13) % edges;
        buffer.assign(edges - first, graph::Edge{});
        stores[s]->read_edges(p, first, edges - first, buffer.data(), platform, t);
        if (!buffer.empty() && std::memcmp(buffer.data(), parts[p].data() + first,
                                           buffer.size() * sizeof(graph::Edge)) != 0) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

TEST(StoreConcurrentReads, GridMatchesSingleThreaded) {
  const auto g = test::small_rmat(2048, 1 << 15);
  const grid::GridStore store = test::make_grid(g, 4);
  expect_concurrent_reads_match({&store});
}

TEST(StoreConcurrentReads, ShardMatchesSingleThreaded) {
  const auto g = test::small_rmat(2048, 1 << 15);
  const shard::ShardStore store = test::make_shards(g, 4);
  expect_concurrent_reads_match({&store});
}

TEST(StoreConcurrentReads, GridAndShardAtOnce) {
  const auto g = test::small_rmat(2048, 1 << 15);
  const grid::GridStore grid_store = test::make_grid(g, 4);
  const shard::ShardStore shard_store = test::make_shards(g, 3);
  expect_concurrent_reads_match({&grid_store, &shard_store});
}

std::vector<char> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Preprocesses one small graph per fault with `preprocess`, damages its
/// .runs file, and expects `open` to throw. The .runs layout is, per
/// partition, a u64 run count and then 12-byte {src, begin, count} runs.
template <typename Store>
void expect_damaged_runs_rejected(
    const std::function<void(const graph::EdgeList&, const std::string&)>& preprocess) {
  const auto g = test::small_rmat(128, 2000);
  const auto damaged = [&](const std::function<void(std::vector<char>&)>& damage) {
    const std::string path = test::unique_temp_path("runs");
    preprocess(g, path);
    std::vector<char> bytes = read_bytes(path + ".runs");
    damage(bytes);
    write_bytes(path + ".runs", bytes);
    return path;
  };
  // Partition 0's run count, and the offset of its run r's field at `field`.
  const auto run_field = [](const std::vector<char>& bytes, std::uint64_t r, std::size_t field) {
    std::uint64_t count = 0;
    std::memcpy(&count, bytes.data(), sizeof(count));
    EXPECT_GT(count, r);
    return sizeof(count) + r * sizeof(graph::SourceRun) + field;
  };
  const auto add_to_field = [](std::vector<char>& bytes, std::size_t at, std::uint32_t delta) {
    std::uint32_t value = 0;
    std::memcpy(&value, bytes.data() + at, sizeof(value));
    value += delta;
    std::memcpy(bytes.data() + at, &value, sizeof(value));
  };

  EXPECT_NO_THROW(Store::open(damaged([](std::vector<char>&) {})));

  const std::string missing = damaged([](std::vector<char>&) {});
  std::filesystem::remove(missing + ".runs");
  EXPECT_THROW(Store::open(missing), std::runtime_error) << "missing";

  EXPECT_THROW(Store::open(damaged([](std::vector<char>& bytes) { bytes.pop_back(); })),
               std::runtime_error)
      << "one byte short";

  // One more edge in partition 0's last run: the counts no longer sum to the
  // partition's edges.
  EXPECT_THROW(Store::open(damaged([&](std::vector<char>& bytes) {
                 std::uint64_t count = 0;
                 std::memcpy(&count, bytes.data(), sizeof(count));
                 add_to_field(bytes, run_field(bytes, count - 1, 8), 1);
               })),
               std::runtime_error)
      << "counts";

  // Partition 0's first source moved to num_vertices.
  EXPECT_THROW(Store::open(damaged([&](std::vector<char>& bytes) {
                 std::uint32_t src = 0;
                 const std::size_t at = run_field(bytes, 0, 0);
                 std::memcpy(&src, bytes.data() + at, sizeof(src));
                 add_to_field(bytes, at, g.num_vertices() - src);
               })),
               std::runtime_error)
      << "source";
}

TEST(StoreFiles, GridOpenRejectsDamagedRuns) {
  expect_damaged_runs_rejected<grid::GridStore>(
      [](const graph::EdgeList& g, const std::string& path) {
        grid::GridStore::preprocess(g, 4, path);
      });
}

TEST(StoreFiles, ShardOpenRejectsDamagedRuns) {
  expect_damaged_runs_rejected<shard::ShardStore>(
      [](const graph::EdgeList& g, const std::string& path) {
        shard::ShardStore::preprocess(g, 4, path);
      });
}

TEST(StoreFiles, OpenDatasetGridPreprocessesACacheWithoutRuns) {
  // A scale no other test uses, so the cache files are this test's own.
  const double scale = 0.0137;
  char suffix[64];
  std::snprintf(suffix, sizeof(suffix), "_%.4f_p%u.grid", scale, 4u);
  const std::string grid_path =
      (std::filesystem::path(graph::dataset_cache_dir()) / ("livej_s" + std::string(suffix)))
          .string();
  for (const char* ext : {".meta", ".data", ".runs", ".deg"}) {
    std::filesystem::remove(grid_path + ext);
  }
  // A cache from before the .runs file: only a .meta/.data pair, in a
  // format open() no longer reads.
  write_bytes(grid_path + ".meta", {'1', 'D', 'r', 'G'});
  write_bytes(grid_path + ".data", {});

  const grid::GridStore store = grid::open_dataset_grid("livej_s", 4, scale);
  EXPECT_TRUE(std::filesystem::exists(grid_path + ".runs"));
  ASSERT_EQ(store.meta().source_runs.size(), 4u);
  EXPECT_GT(store.meta().num_edges, 0u);
  graph::EdgeCount indexed = 0;
  for (const graph::RunIndex& index : store.meta().source_runs) {
    for (const graph::SourceRun& run : index.runs) indexed += run.count;
  }
  EXPECT_EQ(indexed, store.meta().num_edges);
}

}  // namespace
}  // namespace graphm::storage
