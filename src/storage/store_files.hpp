// The files every partitioned store format shares, and the reads over them:
//   <path>.data  the edge stream, partition after partition;
//   <path>.runs  per partition, a run count and its graph::SourceRun records;
//   <path>.meta  the format's magic, then StoreMeta's layout fields;
//   <path>.deg   the out-degree array.
// A format declares its layout and how it buckets edges to
// preprocess_store; FileStore opens the result.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/edge_list.hpp"
#include "storage/store.hpp"
#include "util/timer.hpp"

namespace graphm::storage {

/// Writes the four files of the stream `data` that `meta` lays out. Sets
/// meta.preprocess_ns (on `conversion`) once .data is written, indexes each
/// partition (graph::index_runs) into meta.source_runs, and times that and
/// the .runs write as meta.index_ns. A failed open, write or close (a full
/// disk, say) removes the partial file and throws std::runtime_error naming
/// it.
void write_store(const std::string& path, std::uint32_t magic, const graph::EdgeList& graph,
                 const std::vector<graph::Edge>& data, StoreMeta& meta,
                 const util::Timer& conversion);

/// Converts `graph` into the store `meta` lays out (its num_partitions,
/// blocks_per_partition and partitions_by_source; zero partitions throw
/// std::invalid_argument) and writes it with write_store. `block_of(meta,
/// edge)` is the edge's row-major block index; blocks are stored back to
/// back in index order, each block's edges in input order or, with
/// `src_sort`, grouped by source (stable). Returns meta.preprocess_ns.
template <typename BlockOf>
std::uint64_t preprocess_store(const graph::EdgeList& graph, StoreMeta meta, bool src_sort,
                               BlockOf block_of, const std::string& path, std::uint32_t magic) {
  if (meta.num_partitions == 0) throw std::invalid_argument("preprocess: no partitions");
  const util::Timer conversion;
  meta.num_vertices = graph.num_vertices();
  meta.num_edges = graph.num_edges();
  const std::size_t cells = std::size_t{meta.num_partitions} * meta.blocks_per_partition;
  meta.block_edges.assign(cells, 0);
  meta.block_offsets.assign(cells, 0);
  for (const graph::Edge& e : graph.edges()) ++meta.block_edges[block_of(meta, e)];
  std::vector<graph::EdgeCount> next(cells, 0);  // each block's next free slot
  for (std::size_t c = 1; c < cells; ++c) next[c] = next[c - 1] + meta.block_edges[c - 1];
  for (std::size_t c = 0; c < cells; ++c) meta.block_offsets[c] = next[c] * sizeof(graph::Edge);
  std::vector<graph::Edge> data(graph.num_edges());
  for (const graph::Edge& e : graph.edges()) data[next[block_of(meta, e)]++] = e;
  for (std::size_t c = 0; src_sort && c < cells; ++c) {
    const auto begin = data.begin() + static_cast<std::ptrdiff_t>(next[c] - meta.block_edges[c]);
    std::stable_sort(begin, begin + static_cast<std::ptrdiff_t>(meta.block_edges[c]),
                     [](const graph::Edge& a, const graph::Edge& b) { return a.src < b.src; });
  }
  write_store(path, magic, graph, data, meta, conversion);
  return meta.preprocess_ns;
}

/// The dataset cache's path for `dataset` at `scale` (its name, the scale,
/// then `suffix`). Unless all four files are there (a cache from before
/// .runs is not), `preprocess` first writes them from the dataset's edges.
/// Serialized across threads.
[[nodiscard]] std::string cached_dataset_store(
    const std::string& dataset, double scale, const std::string& suffix,
    const std::function<void(const graph::EdgeList&, const std::string&)>& preprocess);

class DataFile;

/// A store opened from write_store's files: thread-safe positional reads of
/// .data, each charged to the simulated page cache.
class FileStore : public PartitionedStore {
 public:
  [[nodiscard]] const StoreMeta& meta() const override { return meta_; }
  [[nodiscard]] std::uint32_t file_id() const override { return file_id_; }

  std::uint64_t read_partition(std::uint32_t i, std::vector<graph::Edge>& out,
                               sim::Platform& platform, std::uint32_t job_id) const override;
  std::uint64_t read_edges(std::uint32_t i, graph::EdgeCount first_edge, graph::EdgeCount count,
                           graph::Edge* out, sim::Platform& platform,
                           std::uint32_t job_id) const override;
  [[nodiscard]] std::vector<std::uint32_t> load_out_degrees() const override;

 protected:
  /// Reads <path>.meta (which must carry `magic`) and <path>.runs; throws
  /// std::runtime_error when a file is missing, short, long or inconsistent.
  FileStore(std::string path, std::uint32_t magic);

 private:
  std::string path_;
  StoreMeta meta_;
  std::uint32_t file_id_;
  std::shared_ptr<const DataFile> data_file_;
};

}  // namespace graphm::storage
