// The source-run skip index: one shape and one builder for every edge span
// the engines stream with run skipping (GraphM's chunk tables, snapshot
// overlays, the streaming engine's per-partition cache).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/types.hpp"

namespace graphm::graph {

/// A maximal run of consecutive edges sharing one source within an edge
/// stream. Run arrays are the engines' frontier skip index: streaming an
/// edge stream is bandwidth-bound, so the win from an inactive source is not
/// a cheaper test but never touching its edges at all — the run array (12
/// bytes per run, sequential) is scanned instead of the 12-bytes-per-edge
/// stream. `begin` is the run's first edge offset within the indexed span,
/// so a frontier jump (AtomicBitmap::next_set_in_range + binary search over
/// ascending-src runs) lands directly on the right edge range without
/// re-walking the skipped runs' counts. Valid for any edge order (begin is
/// always the stream position); src-grouped streams make runs long, and the
/// jump path works inside each ascending segment (sorted_run_segments).
struct SourceRun {
  VertexId src = 0;
  std::uint32_t begin = 0;  // first edge of the run within the indexed span
  std::uint32_t count = 0;

  friend bool operator==(const SourceRun&, const SourceRun&) = default;
};

/// The run index of one edge span: its runs in stream order (counts sum to
/// the span length) plus sorted_run_segments(runs), the boundaries of their
/// maximal ascending-source segments. A span inside one src-sorted grid
/// block is one segment; a span across several blocks has one per block,
/// because the source range restarts at every block. The engine
/// binary-searches for the next active source within a segment.
struct RunIndex {
  std::vector<SourceRun> runs;
  std::vector<std::uint32_t> segments;

  /// Bytes of the two arrays (what kChunkTables tracks for an index).
  [[nodiscard]] std::uint64_t footprint_bytes() const {
    return runs.size() * sizeof(SourceRun) + segments.size() * sizeof(std::uint32_t);
  }
};

/// Builds the run index of [edges, edges + count). The one builder: every
/// producer goes through it, so all skip indexes share one run granularity.
/// Spans larger than 4G edges would overflow SourceRun::begin; every indexed
/// span in the repository (chunk or partition) is far smaller.
[[nodiscard]] RunIndex index_runs(const Edge* edges, EdgeCount count);

/// Accounts one more edge from `src` into a run array under construction:
/// extends the trailing run or opens a new one (begin = edges seen so far).
void append_source_run(std::vector<SourceRun>& runs, VertexId src);

/// Boundaries of the maximal strictly-ascending-src segments of `runs`: the
/// result b has b.front() == 0, b.back() == runs.size(), and every
/// [b[i], b[i+1]) ascends strictly by source.
[[nodiscard]] std::vector<std::uint32_t> sorted_run_segments(const std::vector<SourceRun>& runs);

}  // namespace graphm::graph
