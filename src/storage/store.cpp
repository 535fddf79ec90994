#include "storage/store.hpp"

#include <algorithm>

namespace graphm::storage {

std::pair<graph::VertexId, graph::VertexId> StoreMeta::vertex_range(std::uint32_t i) const {
  if (!partitions_by_source) return {0, num_vertices};
  const graph::VertexId per = (num_vertices + num_partitions - 1) / num_partitions;
  const graph::VertexId begin = std::min<graph::VertexId>(num_vertices, i * per);
  const graph::VertexId end = std::min<graph::VertexId>(num_vertices, begin + per);
  return {begin, end};
}

std::uint32_t StoreMeta::partition_of(graph::VertexId v) const {
  const graph::VertexId per = (num_vertices + num_partitions - 1) / num_partitions;
  return per == 0 ? 0 : std::min<std::uint32_t>(num_partitions - 1, v / per);
}

std::uint64_t StoreMeta::partition_offset(std::uint32_t i) const {
  return block_offsets[block_index(i, 0)];
}

graph::EdgeCount StoreMeta::partition_edges(std::uint32_t i) const {
  graph::EdgeCount total = 0;
  for (std::uint32_t j = 0; j < blocks_per_partition; ++j) total += block_edges[block_index(i, j)];
  return total;
}

std::uint64_t StoreMeta::max_partition_bytes() const {
  std::uint64_t best = 0;
  for (std::uint32_t i = 0; i < num_partitions; ++i) {
    best = std::max(best, partition_bytes(i));
  }
  return best;
}

std::uint64_t StoreMeta::source_runs_bytes() const {
  std::uint64_t bytes = 0;
  for (const graph::RunIndex& index : source_runs) bytes += index.footprint_bytes();
  return bytes;
}

}  // namespace graphm::storage
