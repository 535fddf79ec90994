// GridGraph-like on-disk format ("the specific graph representation" the
// GraphM preprocessor converts to for GridGraph, Section 3.1).
//
// Edges are bucketed into a P x P grid by (source range, destination range)
// and written to a single file, row-major: partition i (the streaming unit,
// GridGraph's "shard") is the contiguous byte range holding row i's blocks.
// A small metadata header records per-block offsets so selective scheduling
// can skip inactive rows without touching the file; each row's source-run
// index is written beside it (storage/store_files.hpp).
#pragma once

#include <string>

#include "graph/edge_list.hpp"
#include "graph/types.hpp"
#include "storage/store_files.hpp"

namespace graphm::grid {

using graph::Edge;
using graph::EdgeCount;
using graph::VertexId;
using GridMeta = storage::StoreMeta;

/// Read-only handle on a preprocessed grid. Thread safe.
class GridStore final : public storage::FileStore {
 public:
  /// Buckets `graph` into a P x P grid and writes <path>.{meta,data,deg,runs}.
  /// Returns the conversion wall time without the index (Table 3's
  /// GridGraph row).
  /// `src_sort` groups each block's edges by source (stable), which is what
  /// gives the engines long source runs; pass false only to reproduce the
  /// seed's ungrouped layout (the stream-bench baseline).
  static std::uint64_t preprocess(const graph::EdgeList& graph, std::uint32_t num_partitions,
                                  const std::string& path, bool src_sort = true);

  /// Throws std::runtime_error when a file is missing, short or inconsistent.
  static GridStore open(const std::string& path);

 private:
  using FileStore::FileStore;
};

/// Preprocesses (once, cached) the named dataset into the cache dir and opens
/// it. Convenience used by benches, examples and tests.
GridStore open_dataset_grid(const std::string& dataset, std::uint32_t num_partitions,
                            double scale = 1.0);

}  // namespace graphm::grid
