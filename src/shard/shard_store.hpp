// GraphChi-like shard format.
//
// Vertices are split into P execution intervals; shard s holds every edge
// whose *destination* falls in interval s, sorted by source (GraphChi's
// layout). LoadSubgraph(s) — the operation GraphM's Sharing() wraps for
// GraphChi (Section 3.1) — reads one whole shard. Because a shard's sources
// span the entire graph, StoreMeta::partitions_by_source is false and the
// engine treats every shard as active whenever any vertex is active (i.e.
// GraphChi without its optional selective scheduling).
#pragma once

#include <string>

#include "graph/edge_list.hpp"
#include "storage/store_files.hpp"

namespace graphm::shard {

class ShardStore final : public storage::FileStore {
 public:
  /// Converts `graph` into P shards and writes <path>.{meta,data,deg,runs}.
  /// Returns the conversion wall time without the index (Table 3).
  static std::uint64_t preprocess(const graph::EdgeList& graph, std::uint32_t num_shards,
                                  const std::string& path);

  /// Throws std::runtime_error when a file is missing, short or inconsistent.
  static ShardStore open(const std::string& path);

 private:
  using FileStore::FileStore;
};

/// Preprocesses (once, cached) the named dataset into shards and opens it.
ShardStore open_dataset_shards(const std::string& dataset, std::uint32_t num_shards,
                               double scale = 1.0);

}  // namespace graphm::shard
