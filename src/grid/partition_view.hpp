// A loaded partition as the streaming engine sees it: an ordered list of
// chunk spans. Under the default loader the whole partition is one span;
// under GraphM each span is one labelled chunk (possibly redirected to a
// copy-on-write snapshot chunk), which is what makes chunk-grained
// synchronization (one end_chunk per span) and snapshot isolation possible.
// Either way a span's source-run index is a window onto the one the store
// wrote at preprocess (or, for a snapshot chunk, the copy's own index).
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
  /// Optional source-run index of the stream stream_offset is measured in:
  /// the store's index of the partition for a span on the layout, the
  /// span's own content for a kNoLayout overlay. The engine walks its
  /// window [stream_offset, stream_offset + edge_count) (from 0 for
  /// kNoLayout) and skips inactive sources' edges without reading them;
  /// nullptr falls back to the plain gated block scan.
  const graph::RunIndex* runs = nullptr;
  /// The runs of *runs that overlap the window, found by whoever cuts the
  /// span (GraphM when it labels its chunks) so streaming never searches.
  graph::RunWindow run_window;
};

struct PartitionView {
  std::uint32_t pid = 0;
  std::vector<ChunkSpan> chunks;
  graph::VertexId vertex_begin = 0;  // partition's source-vertex range
  graph::VertexId vertex_end = 0;
};

}  // namespace graphm::grid
