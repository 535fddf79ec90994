// A loaded partition as the streaming engine sees it: an ordered list of
// chunk spans. Under the default loader the whole partition is one span;
// under GraphM each span is one labelled chunk (possibly redirected to a
// copy-on-write snapshot chunk), which is what makes chunk-grained
// synchronization (one end_chunk per span) and snapshot isolation possible.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "graph/run_index.hpp"
#include "graph/types.hpp"

namespace graphm::grid {

struct ChunkSpan {
  /// `stream_offset` value of a span whose content does not follow the
  /// store's block layout (snapshot overlays, ad-hoc test spans).
  static constexpr graph::EdgeCount kNoLayout = std::numeric_limits<graph::EdgeCount>::max();

  const graph::Edge* edges = nullptr;
  graph::EdgeCount edge_count = 0;
  /// Where edges[0] sits in the partition's base edge stream (the store's
  /// row of blocks): 0 for a full-partition span, the chunk's edge_begin for
  /// a GraphM base chunk. The engine intersects the span with the store's
  /// block boundaries to fan order-sensitive reductions out by destination
  /// block; kNoLayout streams the span serially.
  graph::EdgeCount stream_offset = kNoLayout;
  /// Address fed to the LLC simulator (the span's actual buffer address, so
  /// shared buffers hit the same simulated lines and private copies do not).
  std::uint64_t llc_base = 0;
  /// Index of this chunk within the partition's chunk table (or 0).
  std::uint32_t chunk_id = 0;
  /// Optional source-run index covering exactly [edges, edges+edge_count)
  /// (see graph::RunIndex). When present, the engine streams active runs and
  /// skips inactive sources' edges without reading them; nullptr falls back
  /// to the plain gated block scan. GraphM's chunks carry their chunk-table
  /// index; a bare full-partition span gets the engine's partition index.
  const graph::RunIndex* runs = nullptr;
};

struct PartitionView {
  std::uint32_t pid = 0;
  std::vector<ChunkSpan> chunks;
  graph::VertexId vertex_begin = 0;  // partition's source-vertex range
  graph::VertexId vertex_end = 0;
};

}  // namespace graphm::grid
