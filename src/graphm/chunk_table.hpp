// Chunk labelling: Formula 1 (chunk sizing) and Algorithm 1 (the labelling
// pass that builds the per-partition chunk_table array, Set_c).
//
// A chunk is a *logical* range of a partition's edge stream sized to fit the
// LLC alongside the concurrent jobs' job-specific data; the specific graph
// representation is never modified. The paper labels each chunk with a
// chunk_table of <source vertex v, N+(v)> pairs — the number of v's
// out-edges inside the chunk — so a job's active edges in a chunk are known
// without re-reading the graph. Here that table is the store's source-run
// index of the partition (StoreMeta::source_runs, written at preprocess)
// seen through the chunk's window [edge_begin, edge_end): N+(v) is the sum
// of v's clipped run counts, and labelling only cuts chunk boundaries. The
// engine walks the same index to skip inactive sources' edges.
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
  /// The runs of the partition's index that overlap [edge_begin, edge_end),
  /// found once when the chunk is cut so no stream of it searches again.
  graph::RunWindow run_window;

  [[nodiscard]] graph::EdgeCount total_edges() const { return edge_end - edge_begin; }

  /// Sum of N+(v) over sources active in `bitmap` — the
  /// "sum over v in Vk intersect Aj of N+k(v)" term of Formulas 2-3 — read
  /// as the active sources' run counts in run_window of the partition's
  /// `index`, clipped to the chunk.
  [[nodiscard]] std::uint64_t active_edges(const graph::RunIndex& index,
                                           const util::AtomicBitmap& bitmap) const;
};

/// Set_c for one partition.
struct ChunkTable {
  std::vector<ChunkInfo> chunks;

  [[nodiscard]] graph::EdgeCount total_edges() const;
  /// Bytes of the chunk array (the runs it windows are the store's).
  [[nodiscard]] std::uint64_t footprint_bytes() const;
};

/// Algorithm 1: cuts the partition stream that `index` covers into chunks of
/// at most `chunk_bytes` (the final chunk may be smaller), each with its
/// window of `index`.
ChunkTable label_partition(const graph::RunIndex& index, std::size_t chunk_bytes);

}  // namespace graphm::core
