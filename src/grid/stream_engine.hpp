// The GridGraph-like streaming-apply engine.
//
// One call to run_job() executes a complete iterative job: every iteration it
// derives the active partitions from the algorithm's frontier (GridGraph's
// `should_access_shard`), asks the PartitionLoader for partitions one by one
// (that seam is where GraphM plugs in, Figure 6), streams each loaded chunk
// through the algorithm's process_edge_block, and reports simulated LLC
// accesses, instructions and timings.
//
// The streaming hot path is block-batched: a chunk is cut into fixed-size
// edge blocks and each block goes through one virtual process_edge_block call
// whose override runs a tight devirtualized loop (word-at-a-time frontier
// tests). When the engine owns a thread pool and the algorithm declares
// parallel_safe(), the chunk fans out across the pool — the paper's intra-job
// `#threads == #cores` axis (Figure 20) — in one of two shapes: by edge block
// for order-independent relaxations, or by destination grid block for
// order-sensitive reductions (dst_disjoint_fan_out(), e.g. PageRank). Grid
// block (i, j) holds only destinations in vertex_range(j), so those tasks
// touch disjoint destinations, each edge is handed to the kernel once, and
// results stay bit-identical at any thread count. On a sparse frontier a span
// that carries a source-run index (ChunkSpan::runs, a window onto the index
// the store wrote at preprocess) is streamed run by run, so inactive sources'
// edges are never read; the engine builds no index of its own, and tracks
// the store's once under kChunkTables. The engine also announces each
// partition via begin_partition so accumulating algorithms can group
// contributions by the graph layout rather than visit order. All simulated
// metrics are issued from the calling thread after each chunk's blocks
// complete: LLC charges per chunk, in canonical chunk order, and instructions
// once per partition, so both are bit-identical at any thread count. An LLC
// charge only enqueues; the simulator's applier thread applies it in that
// order, and every stats read waits for it; see docs/streaming.md.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "algos/algorithm.hpp"
#include "grid/grid_store.hpp"
#include "grid/loader.hpp"
#include "sim/platform.hpp"
#include "util/thread_pool.hpp"

namespace graphm::grid {

struct StreamConfig {
  bool model_llc = true;  // feed buffers, hot metadata and values through the LLC sim
  /// false = legacy per-edge loop (one virtual call + one atomic bit test per
  /// edge). Kept as the measurable scalar baseline and as the oracle path for
  /// the block equivalence tests.
  bool use_blocks = true;
  /// Streaming workers per engine (1 = no pool). The pool is shared by every
  /// job running on the engine; a job's blocks are only fanned out when its
  /// algorithm is parallel_safe().
  std::size_t num_stream_threads = 1;
  /// Edges per process_edge_block dispatch (also the parallel work unit of
  /// order-independent algorithms; ranges this short always run serially).
  graph::EdgeCount block_edges = 16384;
  std::uint64_t max_iterations_guard = 100000;  // safety net against bugs
};

struct JobRunStats {
  std::uint64_t iterations = 0;
  std::uint64_t edges_streamed = 0;   // edges scanned (loaded chunks)
  std::uint64_t edges_processed = 0;  // edges whose source was active
  std::uint64_t partitions_loaded = 0;
  std::uint64_t compute_ns = 0;   // time inside the edge loops
  std::uint64_t io_stall_ns = 0;  // modeled disk stall attributed to this job
  std::uint64_t wall_ns = 0;      // end-to-end (includes suspension under -M)
  bool cancelled = false;         // stopped early via JobControl
};

/// Cooperative cancellation for long-running jobs (the service layer's
/// deadline aborts). The engine polls it at iteration and partition
/// boundaries only — never inside the edge loops — so cancellation latency is
/// bounded by one partition round and the hot path stays untouched. A
/// cancelled job detaches from its sharing group via the loader's
/// job_finished seam; its algorithm state is left mid-flight.
struct JobControl {
  /// Optional predicate (e.g. a deadline check against the service clock).
  /// Must be thread-safe and cheap.
  std::function<bool()> should_cancel;

  [[nodiscard]] bool cancel_requested() const { return should_cancel && should_cancel(); }
};

class StreamEngine {
 public:
  StreamEngine(const storage::PartitionedStore& store, sim::Platform& platform, StreamConfig config = {});

  /// Runs `algorithm` to completion as job `job_id`, loading partitions via
  /// `loader`. Thread-safe w.r.t. other jobs running on the same engine.
  /// `control` (optional) is polled at iteration/partition boundaries; when
  /// it requests cancellation the job stops early with stats.cancelled set.
  JobRunStats run_job(std::uint32_t job_id, algos::StreamingAlgorithm& algorithm,
                      PartitionLoader& loader, const JobControl* control = nullptr) const;

  /// Partitions with at least one active source vertex and at least one edge.
  [[nodiscard]] std::vector<std::uint32_t> active_partitions(
      const util::AtomicBitmap& active) const;

  [[nodiscard]] const storage::PartitionedStore& store() const { return store_; }
  [[nodiscard]] const std::vector<std::uint32_t>& out_degrees() const { return out_degrees_; }
  [[nodiscard]] sim::Platform& platform() const { return platform_; }
  [[nodiscard]] const StreamConfig& config() const { return config_; }
  /// Streaming workers available to one job (pool size, or 1 without a pool).
  [[nodiscard]] std::size_t stream_threads() const {
    return pool_ ? pool_->size() : 1;
  }

 private:
  /// Streams one chunk span through the algorithm (block-batched, optionally
  /// pool-parallel) and returns the number of edges relaxed. `dense` reports
  /// that every source in the partition's vertex range is active, which
  /// bypasses the source-run skip index (nothing to skip).
  std::uint64_t stream_chunk(algos::StreamingAlgorithm& algorithm, const ChunkSpan& span,
                             std::uint32_t pid, const util::AtomicBitmap& active,
                             bool fan_out, bool dense) const;

  /// Streams [begin, begin+len) of `span` (a chunk of partition `pid`) as
  /// block_edges-sized batches, serially or across the pool: by edge block,
  /// or by destination grid block for dst_disjoint_fan_out() algorithms.
  std::uint64_t stream_range(algos::StreamingAlgorithm& algorithm, const ChunkSpan& span,
                             std::uint32_t pid, graph::EdgeCount begin, graph::EdgeCount len,
                             const util::AtomicBitmap& active, bool fan_out) const;

  const storage::PartitionedStore& store_;
  sim::Platform& platform_;
  StreamConfig config_;
  std::vector<std::uint32_t> out_degrees_;
  /// Per row, each grid block's first edge in the partition's edge stream
  /// plus the row's end (blocks_per_partition + 1 entries per row), from
  /// meta.block_edges; empty with one block per partition. Immutable
  /// layout metadata, like out_degrees_.
  std::vector<graph::EdgeCount> block_starts_;
  std::unique_ptr<util::ThreadPool> pool_;  // present iff num_stream_threads > 1
  /// The store's source-run indexes, tracked once under kChunkTables.
  sim::TrackedAllocation runs_tracking_;
};

}  // namespace graphm::grid
