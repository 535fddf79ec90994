// The storage abstraction every engine-specific format implements.
//
// The paper's point two (Section 1) is that graph processing systems couple
// their own storage engines, and that decoupling storage lets one optimized
// storage system serve them all. PartitionedStore is that decoupling in this
// repository: the GridGraph-like grid format and the GraphChi-like shard
// format both implement it, and the streaming engine, the default loaders and
// all of GraphM (sharing controller, chunk labelling, snapshots) are written
// against it — so plugging GraphM into another system is exactly the paper's
// "replace Load() with Sharing()" story.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "graph/types.hpp"
#include "sim/platform.hpp"

namespace graphm::storage {

/// Layout metadata of a partitioned on-disk graph. `partition` is the unit
/// the loaders move in and out of memory; partitions subdivide into blocks
/// only for formats that need it (the grid's P columns per row).
///
/// Block invariant: when blocks_per_partition > 1, partition i's edge stream
/// is its blocks back to back in ascending j, and block (i, j) holds only
/// edges whose destinations lie in vertex_range(j) (GridGraph's 2-level
/// grid). The streaming engine relies on it to fan order-sensitive
/// reductions out over destination-disjoint blocks.
struct StoreMeta {
  graph::VertexId num_vertices = 0;
  graph::EdgeCount num_edges = 0;
  std::uint32_t num_partitions = 0;
  std::uint64_t preprocess_ns = 0;

  // Row-major num_partitions * blocks_per_partition arrays.
  std::uint32_t blocks_per_partition = 1;
  std::vector<std::uint64_t> block_offsets;
  std::vector<std::uint64_t> block_edges;

  /// When false, a partition's source vertices span the whole graph (shard
  /// formats bucket by destination), so source-side selective scheduling
  /// must treat every partition as potentially active.
  bool partitions_by_source = true;

  [[nodiscard]] std::size_t block_index(std::uint32_t i, std::uint32_t j) const {
    return static_cast<std::size_t>(i) * blocks_per_partition + j;
  }
  /// Source-vertex range [begin, end) of partition i (the full range when
  /// !partitions_by_source).
  [[nodiscard]] std::pair<graph::VertexId, graph::VertexId> vertex_range(std::uint32_t i) const;
  [[nodiscard]] std::uint32_t partition_of(graph::VertexId v) const;

  [[nodiscard]] std::uint64_t partition_offset(std::uint32_t i) const;
  [[nodiscard]] graph::EdgeCount partition_edges(std::uint32_t i) const;
  [[nodiscard]] std::uint64_t partition_bytes(std::uint32_t i) const {
    return partition_edges(i) * sizeof(graph::Edge);
  }
  [[nodiscard]] std::uint64_t max_partition_bytes() const;
};

/// Read-only, thread-safe handle on a preprocessed graph.
class PartitionedStore {
 public:
  virtual ~PartitionedStore() = default;

  [[nodiscard]] virtual const StoreMeta& meta() const = 0;
  /// Stable id keying the simulated page cache.
  [[nodiscard]] virtual std::uint32_t file_id() const = 0;

  /// Reads partition i into `out` (resized), charging the simulated disk /
  /// page cache on behalf of `job_id`. Returns modeled stall (ns).
  virtual std::uint64_t read_partition(std::uint32_t i, std::vector<graph::Edge>& out,
                                       sim::Platform& platform, std::uint32_t job_id) const = 0;

  /// Reads [first_edge, first_edge+count) of partition i.
  virtual std::uint64_t read_edges(std::uint32_t i, graph::EdgeCount first_edge,
                                   graph::EdgeCount count, graph::Edge* out,
                                   sim::Platform& platform, std::uint32_t job_id) const = 0;

  /// Out-degree array persisted at preprocess time.
  [[nodiscard]] virtual std::vector<std::uint32_t> load_out_degrees() const = 0;
};

}  // namespace graphm::storage
