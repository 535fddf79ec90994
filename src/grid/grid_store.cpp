#include "grid/grid_store.hpp"

#include "storage/store_files.hpp"
#include "util/logging.hpp"

namespace graphm::grid {

namespace {

constexpr std::uint32_t kMetaMagic = 0x47724432;  // "GrD2"

}  // namespace

std::uint64_t GridStore::preprocess(const graph::EdgeList& graph, std::uint32_t num_partitions,
                                    const std::string& path, bool src_sort) {
  GridMeta layout;
  layout.num_partitions = num_partitions;
  layout.blocks_per_partition = num_partitions;  // P columns per row
  // Block (i, j) holds the edges from source range i to destination range j.
  // Grouping each block's edges by source (stable, so the dst-block
  // structure and the relative order of one source's edges survive) gives
  // the engines long source runs: a frontier word then covers 64 consecutive
  // sources and an inactive source's edges are skipped without being read.
  return storage::preprocess_store(
      graph, layout, src_sort,
      [](const GridMeta& meta, const Edge& e) {
        return meta.block_index(meta.partition_of(e.src), meta.partition_of(e.dst));
      },
      path, kMetaMagic);
}

GridStore GridStore::open(const std::string& path) { return GridStore(path, kMetaMagic); }

GridStore open_dataset_grid(const std::string& dataset, std::uint32_t num_partitions,
                            double scale) {
  return GridStore::open(storage::cached_dataset_store(
      dataset, scale, "_p" + std::to_string(num_partitions) + ".grid",
      [&](const graph::EdgeList& graph, const std::string& path) {
        GRAPHM_INFO("preprocessing grid for " << dataset << " P=" << num_partitions);
        GridStore::preprocess(graph, num_partitions, path);
      }));
}

}  // namespace graphm::grid
