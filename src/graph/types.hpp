// Fundamental graph types shared by every engine in the repository.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

namespace graphm::graph {

using VertexId = std::uint32_t;
using EdgeCount = std::uint64_t;

inline constexpr VertexId kInvalidVertex = std::numeric_limits<VertexId>::max();

/// On-disk and in-memory edge record. 12 bytes, matching GridGraph's layout
/// (src, dst, weight); the weight is ignored by unweighted algorithms.
struct Edge {
  VertexId src = 0;
  VertexId dst = 0;
  float weight = 1.0f;

  friend bool operator==(const Edge&, const Edge&) = default;
};
static_assert(sizeof(Edge) == 12, "Edge must stay 12 bytes (grid file format)");

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

/// Accounts one more edge from `src` into a run array under construction:
/// extends the trailing run or opens a new one (begin = edges seen so far).
/// The single definition of run granularity — every producer (chunk
/// labelling, engine partition cache) must build through this so their skip
/// indexes stay consistent. Spans larger than 4G edges would overflow
/// `begin`; every indexed span in the repo (chunk or partition) is far
/// smaller.
template <typename RunVector>
inline void append_source_run(RunVector& runs, VertexId src) {
  if (!runs.empty() && runs.back().src == src) {
    ++runs.back().count;
  } else {
    const std::uint32_t begin =
        runs.empty() ? 0 : runs.back().begin + runs.back().count;
    runs.push_back({src, begin, 1});
  }
}

/// Boundaries of the maximal strictly-ascending-src segments of `runs`: the
/// result b has b.front() == 0, b.back() == runs.size(), and every
/// [b[i], b[i+1]) ascends strictly by source. A fully sorted index yields one
/// segment. Multi-block spans — a concatenation of per-block src-sorted
/// streams, where the source range restarts at every block — yield one
/// segment per block. Every run index is stored with these boundaries, and
/// the engine's binary-search frontier jump works inside one segment.
template <typename RunVector>
[[nodiscard]] inline std::vector<std::uint32_t> sorted_run_segments(const RunVector& runs) {
  std::vector<std::uint32_t> bounds;
  bounds.push_back(0);
  for (std::size_t i = 1; i < runs.size(); ++i) {
    if (runs[i].src <= runs[i - 1].src) bounds.push_back(static_cast<std::uint32_t>(i));
  }
  bounds.push_back(static_cast<std::uint32_t>(runs.size()));
  return bounds;
}

}  // namespace graphm::graph
