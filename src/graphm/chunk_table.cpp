#include "graphm/chunk_table.hpp"

#include <algorithm>
#include <numeric>

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
  for (const graph::SourceRun& run : index.runs) {
    if (bitmap.get(run.src)) total += run.count;
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
  for (const ChunkInfo& chunk : chunks) bytes += chunk.index.footprint_bytes();
  return bytes;
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
  for (std::size_t c = 0; c < num_chunks; ++c) {
    ChunkInfo& chunk = table.chunks[c];
    chunk.edge_begin = static_cast<graph::EdgeCount>(c) * edges_per_chunk;
    chunk.edge_end = std::min(chunk.edge_begin + edges_per_chunk, count);
    // One streaming pass per chunk: its runs carry every <v, N+(v)> pair.
    chunk.index = graph::index_runs(edges + chunk.edge_begin, chunk.total_edges());
  }
  return table;
}

}  // namespace graphm::core
