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

#include <memory>
#include <string>

#include "graph/edge_list.hpp"
#include "storage/data_file.hpp"
#include "storage/store.hpp"

namespace graphm::shard {

class ShardStore final : public storage::PartitionedStore {
 public:
  /// Converts `graph` into P shards and writes <path>.{meta,data,deg}.
  /// Returns the conversion wall time (Table 3 accounting).
  static std::uint64_t preprocess(const graph::EdgeList& graph, std::uint32_t num_shards,
                                  const std::string& path);

  static ShardStore open(const std::string& path);

  [[nodiscard]] const storage::StoreMeta& meta() const override { return meta_; }
  [[nodiscard]] std::uint32_t file_id() const override { return file_id_; }
  [[nodiscard]] const std::string& path() const { return path_; }

  std::uint64_t read_partition(std::uint32_t i, std::vector<graph::Edge>& out,
                               sim::Platform& platform, std::uint32_t job_id) const override;
  std::uint64_t read_edges(std::uint32_t i, graph::EdgeCount first_edge, graph::EdgeCount count,
                           graph::Edge* out, sim::Platform& platform,
                           std::uint32_t job_id) const override;
  [[nodiscard]] std::vector<std::uint32_t> load_out_degrees() const override;

 private:
  ShardStore(storage::StoreMeta meta, std::string path, std::uint32_t file_id);

  storage::StoreMeta meta_;
  std::string path_;
  std::uint32_t file_id_;
  std::shared_ptr<const storage::DataFile> data_file_;
};

/// Preprocesses (once, cached) the named dataset into shards and opens it.
ShardStore open_dataset_shards(const std::string& dataset, std::uint32_t num_shards,
                               double scale = 1.0);

}  // namespace graphm::shard
