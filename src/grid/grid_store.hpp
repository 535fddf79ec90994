// GridGraph-like on-disk format ("the specific graph representation" the
// GraphM preprocessor converts to for GridGraph, Section 3.1).
//
// Edges are bucketed into a P x P grid by (source range, destination range)
// and written to a single file, row-major: partition i (the streaming unit,
// GridGraph's "shard") is the contiguous byte range holding row i's blocks.
// A small metadata header records per-block offsets so selective scheduling
// can skip inactive rows without touching the file.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "graph/edge_list.hpp"
#include "graph/types.hpp"
#include "sim/platform.hpp"
#include "storage/data_file.hpp"
#include "storage/store.hpp"

namespace graphm::grid {

using graph::Edge;
using graph::EdgeCount;
using graph::VertexId;
using GridMeta = storage::StoreMeta;

/// Read-only handle on a preprocessed grid. Thread safe.
class GridStore final : public storage::PartitionedStore {
 public:
  /// Buckets `graph` into a P x P grid and writes <path>.{meta,data,deg}.
  /// Returns the conversion wall time (Table 3's GridGraph row).
  /// `src_sort` groups each block's edges by source (stable), which is what
  /// gives the engines long source runs; pass false only to reproduce the
  /// seed's ungrouped layout (the stream-bench baseline).
  static std::uint64_t preprocess(const graph::EdgeList& graph, std::uint32_t num_partitions,
                                  const std::string& path, bool src_sort = true);

  static GridStore open(const std::string& path);

  [[nodiscard]] const GridMeta& meta() const override { return meta_; }
  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] std::uint32_t file_id() const override { return file_id_; }

  std::uint64_t read_partition(std::uint32_t i, std::vector<Edge>& out, sim::Platform& platform,
                               std::uint32_t job_id) const override;
  std::uint64_t read_edges(std::uint32_t i, EdgeCount first_edge, EdgeCount count, Edge* out,
                           sim::Platform& platform, std::uint32_t job_id) const override;
  [[nodiscard]] std::vector<std::uint32_t> load_out_degrees() const override;

 private:
  GridStore(GridMeta meta, std::string path, std::uint32_t file_id);

  GridMeta meta_;
  std::string path_;
  std::uint32_t file_id_;
  std::shared_ptr<const storage::DataFile> data_file_;
};

/// Preprocesses (once, cached) the named dataset into the cache dir and opens
/// it. Convenience used by benches, examples and tests.
GridStore open_dataset_grid(const std::string& dataset, std::uint32_t num_partitions,
                            double scale = 1.0);

}  // namespace graphm::grid
