// The vertex-program contract every engine in this repository streams edges
// through. A job = one StreamingAlgorithm instance; all job-specific data
// (the paper's `S`) lives inside the instance, while the graph structure
// data (`G`) is owned by the engine/storage layer — the decoupling GraphM's
// Share-Synchronize mechanism relies on (Section 3.1).
//
// Execution protocol (driven by the engine):
//   init(n, out_degrees, tracker)
//   while (!done()):
//     iteration_start(iter)
//     for every streamed edge block [e0, e0+n):
//       process_edge_block(e0, n, active_vertices())  // relaxes edges whose
//                                                     // source is active
//     iteration_end()
//
// process_edge_block is the hot path: engines hand the algorithm whole chunk
// blocks and the algorithm runs a tight non-virtual inner loop (one virtual
// dispatch per block instead of per edge, frontier words loaded 64 sources at
// a time). The per-edge process_edge remains the semantic definition and the
// default block implementation falls back to it. See docs/streaming.md for
// the full contract, including the thread-safety rules parallel_safe()
// opts into.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/types.hpp"
#include "sim/memory_tracker.hpp"
#include "util/bitmap.hpp"

namespace graphm::algos {

/// The canonical gated block loop the built-in process_edge_block overrides
/// share: one cached-frontier-word test per edge, relax the active ones,
/// count them. `relax` is a functor taking (const graph::Edge&); with the
/// override calling this directly the functor inlines, keeping the loop
/// devirtualized. One definition keeps the gating/counting contract — which
/// the equivalence tests pin against the scalar fallback — in one place.
template <typename Relax>
graph::EdgeCount gated_block_loop(const graph::Edge* edges, graph::EdgeCount n,
                                  const util::AtomicBitmap& active, Relax&& relax) {
  util::WordCache active_words(active);
  graph::EdgeCount processed = 0;
  for (graph::EdgeCount i = 0; i < n; ++i) {
    const graph::Edge& e = edges[i];
    if (!active_words.test(e.src)) continue;
    relax(e);
    ++processed;
  }
  return processed;
}

class StreamingAlgorithm {
 public:
  virtual ~StreamingAlgorithm() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Allocates job-specific state; `tracker` (may be null) records it under
  /// MemoryCategory::kJobSpecific.
  virtual void init(graph::VertexId num_vertices, const std::vector<std::uint32_t>& out_degrees,
                    sim::MemoryTracker* tracker) = 0;

  virtual void iteration_start(std::uint64_t iteration) = 0;

  /// Source-side active set for the current iteration. Engines use it both
  /// for selective scheduling (skip partitions with no active sources) and to
  /// gate process_edge.
  [[nodiscard]] virtual const util::AtomicBitmap& active_vertices() const = 0;

  /// Relaxes one edge whose source is active. Must only touch job-local
  /// state — the graph buffer may be shared with other jobs.
  virtual void process_edge(const graph::Edge& e) = 0;

  /// Streams a block of `n` edges, relaxing every edge whose source bit is
  /// set in `active`; returns the number of edges relaxed. The default
  /// implementation gates each edge with active.get and calls process_edge —
  /// the scalar fallback the equivalence tests pin overrides against.
  /// Overrides must be observably identical to that fallback.
  ///
  /// When parallel_safe() is true, engines may invoke this concurrently from
  /// several worker threads within one iteration: on any disjoint blocks,
  /// or, when dst_disjoint_fan_out() is true, only on blocks whose
  /// destination sets are disjoint (see below).
  virtual graph::EdgeCount process_edge_block(const graph::Edge* edges, graph::EdgeCount n,
                                              const util::AtomicBitmap& active);

  /// True iff the engine may fan this job's relaxations across a thread pool
  /// without changing the result at any thread count. Two ways to qualify:
  ///
  ///  * dst_disjoint_fan_out() == false — concurrent process_edge_block /
  ///    process_edge calls on disjoint blocks are safe AND leave a state
  ///    independent of the interleaving (order-independent relaxations:
  ///    atomic min, idempotent writes).
  ///  * dst_disjoint_fan_out() == true — the engine fans out only over
  ///    destination-disjoint grid blocks, so an order-sensitive reduction
  ///    stays deterministic. See below.
  [[nodiscard]] virtual bool parallel_safe() const { return false; }

  // -------------------------------------------------------------------------
  // Destination-block accumulation — the deterministic parallel mode for
  // algorithms whose relaxation is an order-sensitive reduction (PageRank's
  // floating-point `next[dst] += contribution[src]`).
  //
  // Ownership rule: the store's 2-level grid puts the edges of row i whose
  // destinations lie in vertex_range(j) in block (i, j). The engine's
  // parallel work unit is the part of a streamed range that lies in one
  // block, streamed in stream order by one task, so two concurrent calls
  // never share a destination and a given destination's contributions
  // arrive in exactly the order the serial scan would deliver them — the
  // result is bit-identical to the serial block path at any thread count,
  // and every edge is handed to the kernel once. Ranges inside one block,
  // stores with one block per partition and spans whose content does not
  // follow the layout (snapshot overlays) run serially.
  //
  // Partition grouping: engines additionally announce each partition with
  // begin_partition() before streaming its chunks. Algorithms that
  // accumulate use it to keep one partial accumulator per partition and
  // merge them in ascending partition order at iteration_end — a fixed-shape
  // reduction keyed by the graph layout, not by arrival order — so the
  // result is also independent of the order partitions are visited in
  // (GraphM's scheduler reorders loads; mid-round attaches rotate a job's
  // traversal). Drivers that never call begin_partition (the engine-free
  // reference oracle, the job profiler) get the flat single-group behaviour.
  // -------------------------------------------------------------------------

  /// True iff concurrent process_edge_block calls must have disjoint
  /// destination sets (destination-block accumulation above); false (the
  /// default) lets the engine fan out over any disjoint edge blocks. Only
  /// consulted when parallel_safe(). Must be constant for the lifetime of
  /// the instance.
  [[nodiscard]] virtual bool dst_disjoint_fan_out() const { return false; }

  /// Announces that the edges streamed until the next begin_partition (or
  /// iteration end) belong to partition `pid` of `num_partitions`. Called by
  /// engines on the job's own thread, before the partition's first chunk,
  /// once per partition per iteration. Default: ignored.
  virtual void begin_partition(std::uint32_t pid, std::uint32_t num_partitions) {
    (void)pid;
    (void)num_partitions;
  }

  virtual void iteration_end() = 0;

  [[nodiscard]] virtual bool done() const = 0;

  /// The job-specific value array (for LLC modeling of `S` accesses and for
  /// result comparison). Second = bytes.
  [[nodiscard]] virtual std::pair<const void*, std::size_t> values_span() const = 0;

  /// Result vector as doubles, for cross-scheme equivalence checks.
  [[nodiscard]] virtual std::vector<double> result() const = 0;
};

}  // namespace graphm::algos
