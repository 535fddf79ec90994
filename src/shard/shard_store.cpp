#include "shard/shard_store.hpp"

#include "storage/store_files.hpp"
#include "util/logging.hpp"

namespace graphm::shard {

using graph::Edge;

namespace {

constexpr std::uint32_t kMetaMagic = 0x53684432;  // "ShD2"

}  // namespace

std::uint64_t ShardStore::preprocess(const graph::EdgeList& graph, std::uint32_t num_shards,
                                     const std::string& path) {
  storage::StoreMeta layout;
  layout.num_partitions = num_shards;
  layout.partitions_by_source = false;
  // Shard s holds the edges whose destination lies in execution interval s
  // (the same equal vertex ranges a grid row covers), sorted by source
  // (GraphChi's invariant).
  return storage::preprocess_store(
      graph, layout, /*src_sort=*/true,
      [](const storage::StoreMeta& meta, const Edge& e) { return meta.partition_of(e.dst); },
      path, kMetaMagic);
}

ShardStore ShardStore::open(const std::string& path) { return ShardStore(path, kMetaMagic); }

ShardStore open_dataset_shards(const std::string& dataset, std::uint32_t num_shards,
                               double scale) {
  return ShardStore::open(storage::cached_dataset_store(
      dataset, scale, "_s" + std::to_string(num_shards) + ".shard",
      [&](const graph::EdgeList& graph, const std::string& path) {
        GRAPHM_INFO("preprocessing shards for " << dataset << " P=" << num_shards);
        ShardStore::preprocess(graph, num_shards, path);
      }));
}

}  // namespace graphm::shard
