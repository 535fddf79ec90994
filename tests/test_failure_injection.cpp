// Failure injection: corrupt or missing on-disk state and invalid arguments
// must fail loudly (exceptions), never silently return wrong graphs.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "graph/datasets.hpp"
#include "sim/cache_sim.hpp"
#include "test_helpers.hpp"

namespace graphm {
namespace {

namespace fs = std::filesystem;

void write_bytes(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
}

TEST(FailureInjection, GridOpenMissingFilesThrows) {
  EXPECT_THROW(grid::GridStore::open(test::unique_temp_path("nope")), std::runtime_error);
}

TEST(FailureInjection, GridOpenCorruptMetaThrows) {
  const std::string path = test::unique_temp_path("corrupt_grid");
  write_bytes(path + ".meta", "garbage that is not a grid meta header");
  write_bytes(path + ".data", "");
  EXPECT_THROW(grid::GridStore::open(path), std::runtime_error);
}

TEST(FailureInjection, GridOpenTruncatedMetaThrows) {
  const auto g = test::small_rmat(64, 500);
  const std::string path = test::unique_temp_path("trunc_grid");
  grid::GridStore::preprocess(g, 2, path);
  // Truncate the meta file to half its size.
  const auto size = fs::file_size(path + ".meta");
  fs::resize_file(path + ".meta", size / 2);
  EXPECT_THROW(grid::GridStore::open(path), std::runtime_error);
}

TEST(FailureInjection, GridReadPastTruncatedDataThrows) {
  const auto g = test::small_rmat(64, 500);
  const std::string path = test::unique_temp_path("trunc_data");
  grid::GridStore::preprocess(g, 2, path);
  fs::resize_file(path + ".data", 10);
  const auto store = grid::GridStore::open(path);
  sim::Platform platform;
  std::vector<graph::Edge> buffer;
  EXPECT_THROW(store.read_partition(0, buffer, platform, 0), std::runtime_error);
}

TEST(FailureInjection, ShardReadPastTruncatedDataThrows) {
  const auto g = test::small_rmat(64, 500);
  const std::string path = test::unique_temp_path("trunc_shard_data");
  shard::ShardStore::preprocess(g, 2, path);
  fs::resize_file(path + ".data", 10);
  const auto store = shard::ShardStore::open(path);
  sim::Platform platform;
  std::vector<graph::Edge> buffer;
  EXPECT_THROW(store.read_partition(0, buffer, platform, 0), std::runtime_error);
}

TEST(FailureInjection, MissingDegreeFileThrows) {
  const auto g = test::small_rmat(64, 500);
  const std::string path = test::unique_temp_path("nodeg");
  grid::GridStore::preprocess(g, 2, path);
  fs::remove(path + ".deg");
  const auto store = grid::GridStore::open(path);
  EXPECT_THROW(store.load_out_degrees(), std::runtime_error);
}

TEST(FailureInjection, ShardOpenCorruptMetaThrows) {
  const std::string path = test::unique_temp_path("corrupt_shard");
  write_bytes(path + ".meta", "not a shard header either");
  write_bytes(path + ".data", "");
  EXPECT_THROW(shard::ShardStore::open(path), std::runtime_error);
}

TEST(FailureInjection, GridMetaIsNotAValidShardMeta) {
  // Magic numbers differ: opening a grid as shards must fail, not misread.
  const auto g = test::small_rmat(64, 500);
  const std::string path = test::unique_temp_path("cross_format");
  grid::GridStore::preprocess(g, 2, path);
  EXPECT_THROW(shard::ShardStore::open(path), std::runtime_error);
}

TEST(FailureInjection, ZeroPartitionPreprocessRejected) {
  const auto g = test::small_rmat(64, 500);
  EXPECT_THROW(grid::GridStore::preprocess(g, 0, test::unique_temp_path("p0")),
               std::invalid_argument);
  EXPECT_THROW(shard::ShardStore::preprocess(g, 0, test::unique_temp_path("s0")),
               std::invalid_argument);
}

TEST(FailureInjection, CacheSimRejectsDegenerateGeometry) {
  EXPECT_THROW(sim::CacheSim(1024, 0, 64), std::invalid_argument);
  EXPECT_THROW(sim::CacheSim(1024, 4, 0), std::invalid_argument);
  // A 1-byte line could reach the unused-way sentinel ~0; a 2-byte one cannot.
  EXPECT_THROW(sim::CacheSim(1024, 4, 1), std::invalid_argument);
  sim::CacheSim two_byte_lines(1024, 4, 2);
  two_byte_lines.access(~0ULL, 0);
  two_byte_lines.access(~0ULL, 0);
  EXPECT_EQ(two_byte_lines.total_stats().misses, 1u);
}

TEST(FailureInjection, UnknownDatasetThrows) {
  EXPECT_THROW(graph::load_dataset("no_such_graph"), std::invalid_argument);
}

}  // namespace
}  // namespace graphm
