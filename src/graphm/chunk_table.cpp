#include "graphm/chunk_table.hpp"

#include <numeric>
#include <unordered_map>

namespace graphm::core {

std::size_t chunk_size_bytes(const sim::PlatformConfig& config, std::uint64_t graph_bytes,
                             std::uint64_t num_vertices, std::size_t vertex_value_bytes) {
  // Sc * N * (1 + |V|*Uv/SG) <= C_LLC - r
  const double n = static_cast<double>(config.num_cores == 0 ? 1 : config.num_cores);
  const double vertex_term =
      graph_bytes == 0
          ? 0.0
          : static_cast<double>(num_vertices) * static_cast<double>(vertex_value_bytes) /
                static_cast<double>(graph_bytes);
  const double budget = config.llc_bytes > config.llc_reserved_bytes
                            ? static_cast<double>(config.llc_bytes - config.llc_reserved_bytes)
                            : static_cast<double>(config.llc_bytes);
  const double sc = budget / (n * (1.0 + vertex_term));

  // Common multiple of the edge size and the cache line size.
  const std::size_t quantum = std::lcm(sizeof(graph::Edge), config.cache_line);
  const auto quantized = static_cast<std::size_t>(sc / quantum) * quantum;
  return quantized == 0 ? quantum : quantized;
}

std::uint64_t ChunkInfo::active_edges(const util::AtomicBitmap& bitmap) const {
  std::uint64_t total = 0;
  for (const ChunkEntry& entry : entries) {
    if (bitmap.get(entry.source)) total += entry.out_edges;
  }
  return total;
}

graph::EdgeCount ChunkTable::total_edges() const {
  graph::EdgeCount total = 0;
  for (const ChunkInfo& chunk : chunks) total += chunk.total_edges();
  return total;
}

std::uint64_t ChunkTable::footprint_bytes() const {
  std::uint64_t bytes = chunks.size() * sizeof(ChunkInfo);
  for (const ChunkInfo& chunk : chunks) {
    bytes += chunk.entries.size() * sizeof(ChunkEntry);
    bytes += chunk.runs.size() * sizeof(graph::SourceRun);
    bytes += chunk.run_segments.size() * sizeof(std::uint32_t);
  }
  return bytes;
}

namespace {

// Epoch-stamped open-addressing map from source vertex to entry index. The
// labelling pass is the extra preprocessing Table 3 charges to GraphM, so it
// must stay a small fraction of the base format conversion — a chunk holds at
// most a few thousand edges, and this scratch table costs ~2 probes per edge
// with no allocation per chunk.
class SourceIndex {
 public:
  explicit SourceIndex(std::size_t max_entries) {
    std::size_t cap = 16;
    while (cap < 2 * max_entries) cap <<= 1;
    keys_.assign(cap, 0);
    values_.assign(cap, 0);
    stamps_.assign(cap, 0);
    mask_ = cap - 1;
  }

  void next_chunk() { ++epoch_; }

  /// Returns the slot for `src`; `found` reports whether it was present.
  std::size_t& lookup(graph::VertexId src, bool& found) {
    std::size_t slot = (src * 0x9E3779B9u) & mask_;
    for (;;) {
      if (stamps_[slot] != epoch_) {
        stamps_[slot] = epoch_;
        keys_[slot] = src;
        found = false;
        return values_[slot];
      }
      if (keys_[slot] == src) {
        found = true;
        return values_[slot];
      }
      slot = (slot + 1) & mask_;
    }
  }

 private:
  std::vector<graph::VertexId> keys_;
  std::vector<std::size_t> values_;
  std::vector<std::uint32_t> stamps_;
  std::size_t mask_ = 0;
  std::uint32_t epoch_ = 1;
};

ChunkInfo label_chunk_with(SourceIndex& index, const graph::Edge* edges,
                           graph::EdgeCount count, graph::EdgeCount edge_begin) {
  ChunkInfo info;
  info.edge_begin = edge_begin;
  info.edge_end = edge_begin + count;
  index.next_chunk();
  for (graph::EdgeCount i = 0; i < count; ++i) {
    const graph::VertexId src = edges[i].src;
    bool found = false;
    std::size_t& slot = index.lookup(src, found);
    if (!found) {
      slot = info.entries.size();
      info.entries.push_back(ChunkEntry{src, 1});  // InsertEntry(<es, 1>)
    } else {
      ++info.entries[slot].out_edges;              // N+(es) += 1
    }
    // The run index rides along at no extra passes.
    graph::append_source_run(info.runs, src);
  }
  info.run_segments = graph::sorted_run_segments(info.runs);
  return info;
}

}  // namespace

ChunkInfo label_chunk(const graph::Edge* edges, graph::EdgeCount count,
                      graph::EdgeCount edge_begin) {
  // Sources end up in first-appearance order, as the streaming pass of
  // Algorithm 1 naturally produces.
  SourceIndex index(std::max<std::size_t>(16, count));
  return label_chunk_with(index, edges, count, edge_begin);
}

ChunkTable label_partition(const graph::Edge* edges, graph::EdgeCount count,
                           std::size_t chunk_bytes) {
  ChunkTable table;
  if (count == 0) return table;
  const graph::EdgeCount edges_per_chunk =
      std::max<graph::EdgeCount>(1, chunk_bytes / sizeof(graph::Edge));
  // "edge_num * SG/|E| >= Sc or P_i is visited" — i.e. cut a chunk once its
  // byte size reaches Sc, or at the end of the partition.
  const auto num_chunks =
      static_cast<std::size_t>((count + edges_per_chunk - 1) / edges_per_chunk);
  table.chunks.resize(num_chunks);
  SourceIndex scratch(std::min<std::size_t>(edges_per_chunk, count));
  for (std::size_t c = 0; c < num_chunks; ++c) {
    const graph::EdgeCount begin = static_cast<graph::EdgeCount>(c) * edges_per_chunk;
    const graph::EdgeCount n = std::min<graph::EdgeCount>(edges_per_chunk, count - begin);
    table.chunks[c] = label_chunk_with(scratch, edges + begin, n, begin);
  }
  return table;
}

}  // namespace graphm::core
