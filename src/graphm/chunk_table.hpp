// Chunk labelling: Formula 1 (chunk sizing) and Algorithm 1 (the labelling
// pass that builds the per-partition chunk_table array, Set_c).
//
// A chunk is a *logical* range of a partition's edge stream sized to fit the
// LLC alongside the concurrent jobs' job-specific data; the specific graph
// representation is never modified. The paper labels each chunk with a
// chunk_table of <source vertex v, N+(v)> pairs — the number of v's
// out-edges inside the chunk — so a job's active edges in a chunk are known
// without re-reading the graph. Here that table is kept in run-length form:
// the chunk's source-run index (graph::RunIndex), whose runs split the
// chunk's edges by source, so N+(v) is the sum of v's run counts (one run
// per src-sorted grid block the chunk covers). The same index is what the
// engine walks to skip inactive sources' edges.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/run_index.hpp"
#include "graph/types.hpp"
#include "sim/cost_model.hpp"
#include "util/bitmap.hpp"

namespace graphm::core {

/// Uv of Formula 1: every algorithm keeps one double per vertex.
inline constexpr std::size_t kVertexValueBytes = sizeof(double);

/// Formula 1: the largest chunk size Sc with
///   Sc*N + Sc*N/SG*|V|*Uv + r <= C_LLC,
/// rounded down to a common multiple of the edge size and the cache line
/// size "for better locality". Never returns less than one such multiple.
std::size_t chunk_size_bytes(const sim::PlatformConfig& config, std::uint64_t graph_bytes,
                             std::uint64_t num_vertices, std::size_t vertex_value_bytes);

struct ChunkInfo {
  graph::EdgeCount edge_begin = 0;  // range within the partition's edge stream
  graph::EdgeCount edge_end = 0;
  /// c_table in run-length form over the chunk's edge stream; handed to the
  /// engine through ChunkSpan so inactive sources' edges are never read.
  graph::RunIndex index;

  [[nodiscard]] graph::EdgeCount total_edges() const { return edge_end - edge_begin; }

  /// Sum of N+(v) over sources active in `bitmap` — the
  /// "sum over v in Vk intersect Aj of N+k(v)" term of Formulas 2-3 — read
  /// as the summed counts of the runs whose source is active.
  [[nodiscard]] std::uint64_t active_edges(const util::AtomicBitmap& bitmap) const;
};

/// Set_c for one partition.
struct ChunkTable {
  std::vector<ChunkInfo> chunks;

  [[nodiscard]] graph::EdgeCount total_edges() const;
  /// Approximate memory footprint, tracked under kChunkTables.
  [[nodiscard]] std::uint64_t footprint_bytes() const;
};

/// Algorithm 1: labels one partition's edge stream into chunks of at most
/// `chunk_bytes` (the final chunk may be smaller).
ChunkTable label_partition(const graph::Edge* edges, graph::EdgeCount count,
                           std::size_t chunk_bytes);

}  // namespace graphm::core
