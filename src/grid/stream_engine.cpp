#include "grid/stream_engine.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>

#include "obs/trace.hpp"
#include "util/timer.hpp"

namespace graphm::grid {

namespace {

/// Per row, the start of each block in the partition's edge stream plus the
/// row's end: (blocks_per_partition + 1) entries per row. Empty for layouts
/// with one block per partition, which have no destination blocks to fan
/// out over.
std::vector<graph::EdgeCount> row_block_starts(const GridMeta& meta) {
  const std::uint32_t blocks = meta.blocks_per_partition;
  if (blocks <= 1) return {};
  const std::size_t stride = std::size_t{blocks} + 1;
  std::vector<graph::EdgeCount> starts(meta.num_partitions * stride);
  for (std::uint32_t i = 0; i < meta.num_partitions; ++i) {
    graph::EdgeCount at = 0;
    for (std::uint32_t j = 0; j < blocks; ++j) {
      starts[i * stride + j] = at;
      at += meta.block_edges[meta.block_index(i, j)];
    }
    starts[i * stride + blocks] = at;
  }
  return starts;
}

}  // namespace

StreamEngine::StreamEngine(const storage::PartitionedStore& store, sim::Platform& platform, StreamConfig config)
    : store_(store), platform_(platform), config_(config),
      out_degrees_(store.load_out_degrees()),
      block_starts_(row_block_starts(store.meta())),
      runs_tracking_(&platform.memory(), sim::MemoryCategory::kChunkTables,
                     store.meta().source_runs_bytes()) {
  if (config_.num_stream_threads > 1) {
    pool_ = std::make_unique<util::ThreadPool>(config_.num_stream_threads);
  }
}

std::vector<std::uint32_t> StreamEngine::active_partitions(
    const util::AtomicBitmap& active) const {
  const GridMeta& meta = store_.meta();
  std::vector<std::uint32_t> result;
  result.reserve(meta.num_partitions);
  for (std::uint32_t p = 0; p < meta.num_partitions; ++p) {
    if (meta.partition_edges(p) == 0) continue;
    const auto [begin, end] = meta.vertex_range(p);
    if (active.next_set_in_range(begin, end) != end) result.push_back(p);
  }
  return result;
}

std::uint64_t StreamEngine::stream_range(algos::StreamingAlgorithm& algorithm,
                                         const ChunkSpan& span, std::uint32_t pid,
                                         graph::EdgeCount begin, graph::EdgeCount len,
                                         const util::AtomicBitmap& active,
                                         bool fan_out) const {
  const graph::EdgeCount block = std::max<graph::EdgeCount>(1, config_.block_edges);
  const auto stream_serial = [&](graph::EdgeCount from, graph::EdgeCount count) {
    std::uint64_t processed = 0;
    for (graph::EdgeCount off = 0; off < count; off += block) {
      const graph::EdgeCount n = std::min(block, count - off);
      processed += algorithm.process_edge_block(span.edges + from + off, n, active);
    }
    return processed;
  };
  if (!fan_out || len <= block) return stream_serial(begin, len);

  if (algorithm.dst_disjoint_fan_out()) {
    // Destination-block fan-out (order-sensitive reductions, e.g. PageRank):
    // the work unit is the part of the range that lies in one grid block.
    // Block (pid, j) holds only destinations in vertex_range(j), so the tasks
    // touch disjoint destinations, and each streams its part in stream
    // order: every destination's contributions arrive in the serial order at
    // any thread count, and every edge is handed to the kernel once. A range
    // inside one block, a store with one block per partition (the shard
    // store) and content off the layout (snapshot overlays) run serially.
    if (block_starts_.empty() || span.stream_offset == ChunkSpan::kNoLayout) {
      return stream_serial(begin, len);
    }
    const std::uint32_t blocks = store_.meta().blocks_per_partition;
    const graph::EdgeCount* starts = block_starts_.data() + std::size_t{pid} * (blocks + 1);
    const graph::EdgeCount lo = span.stream_offset + begin;
    const graph::EdgeCount hi = lo + len;
    if (hi > starts[blocks]) return stream_serial(begin, len);  // not this row's layout
    // Blocks holding the range's first and last edge (empty blocks share
    // their successor's start, so upper_bound skips them).
    const auto block_of = [&](graph::EdgeCount edge) {
      return static_cast<std::uint32_t>(std::upper_bound(starts, starts + blocks, edge) -
                                        starts - 1);
    };
    const std::uint32_t first = block_of(lo);
    const std::uint32_t last = block_of(hi - 1);
    if (first == last) return stream_serial(begin, len);
    std::atomic<std::uint64_t> processed{0};
    pool_->parallel_for(last - first + 1, [&](std::size_t t) {
      const std::uint32_t j = first + static_cast<std::uint32_t>(t);
      const graph::EdgeCount from = std::max(lo, starts[j]);
      const graph::EdgeCount to = std::min(hi, starts[j + 1]);
      if (from < to) {
        processed.fetch_add(stream_serial(from - span.stream_offset, to - from),
                            std::memory_order_relaxed);
      }
    });
    return processed.load(std::memory_order_relaxed);
  }

  // Fan the range's blocks across the pool. The per-block relaxed counts are
  // reduced with an integer fetch_add — order-independent, so the total (and
  // every simulated metric derived from it) is identical at any thread count.
  const auto num_blocks = static_cast<std::size_t>((len + block - 1) / block);
  std::atomic<std::uint64_t> processed{0};
  pool_->parallel_for(num_blocks, [&](std::size_t b) {
    const graph::EdgeCount off = static_cast<graph::EdgeCount>(b) * block;
    const graph::EdgeCount n = std::min(block, len - off);
    processed.fetch_add(algorithm.process_edge_block(span.edges + begin + off, n, active),
                        std::memory_order_relaxed);
  });
  return processed.load(std::memory_order_relaxed);
}

std::uint64_t StreamEngine::stream_chunk(algos::StreamingAlgorithm& algorithm,
                                         const ChunkSpan& span, std::uint32_t pid,
                                         const util::AtomicBitmap& active,
                                         bool fan_out, bool dense) const {
  if (!config_.use_blocks) {
    // Legacy scalar baseline: one atomic bit test + one virtual call per edge.
    std::uint64_t processed = 0;
    for (graph::EdgeCount i = 0; i < span.edge_count; ++i) {
      const graph::Edge& e = span.edges[i];
      if (active.get(e.src)) {
        algorithm.process_edge(e);
        ++processed;
      }
    }
    return processed;
  }

  if (dense || span.runs == nullptr || span.runs->runs.empty()) {
    return stream_range(algorithm, span, pid, 0, span.edge_count, active, fan_out);
  }

  // Source-run skipping: streaming is bandwidth-bound, so the win on an
  // inactive source is never touching its edges. Walk the run index (one
  // frontier word covers up to 64 consecutive sorted sources), coalesce
  // active runs into segments, and only those segments' edges are read.
  // Short inactive gaps are absorbed into the surrounding segment — the
  // in-block word test filters them far cheaper than fragmenting the stream
  // into per-run dispatches — so skipping only kicks in for gaps long enough
  // to pay back. The segments cover, in stream order, every edge the gated
  // scan would relax; the per-edge gating inside process_edge_block does the
  // rest, so results stay bit-identical.
  //
  // Word-granular jumping: an inactive run doesn't start a linear scan — the
  // frontier bitmap names the next active source directly (next_set_in_range
  // skips 64 clear bits per word load) and a binary search inside the run's
  // ascending segment lands on the first run at or past it, so a genuinely
  // sparse frontier touches O(active log runs) index entries.
  //
  // The walk covers the span's window of the index (ChunkSpan::runs) in the
  // indexed stream's offsets. Only the window's first run can start before
  // it and only its last can end after it, so just the first segment's
  // start and the last segment's end are clipped.
  constexpr graph::EdgeCount kMinSkipEdges = 24;
  const graph::EdgeCount window_begin =
      span.stream_offset == ChunkSpan::kNoLayout ? 0 : span.stream_offset;
  const graph::RunWindow window = span.run_window;
  const graph::SourceRun* const runs = span.runs->runs.data();
  const std::uint32_t* const segments = span.runs->segments.data();
  std::uint64_t processed = 0;
  util::WordCache words(active);
  graph::EdgeCount segment_begin = 0;
  graph::EdgeCount segment_end = 0;  // segment = [segment_begin, segment_end)
  bool have_segment = false;
  std::uint32_t seg = 0;  // current entry of segments
  std::uint32_t r = window.first;
  while (r < window.last) {
    const graph::SourceRun run = runs[r];
    if (words.test(run.src)) {
      const graph::EdgeCount run_begin = run.begin;
      if (!have_segment) {
        segment_begin = std::max(run_begin, window_begin);
        have_segment = true;
      } else if (run_begin - segment_end >= kMinSkipEdges) {
        processed += stream_range(algorithm, span, pid, segment_begin - window_begin,
                                  segment_end - segment_begin, active, fan_out);
        segment_begin = run_begin;
      }
      // else: absorb the short gap [segment_end, run_begin).
      segment_end = run_begin + run.count;
      ++r;
      continue;
    }
    // Inactive run: jump inside the ascending segment it sits in.
    while (segments[seg + 1] <= r) ++seg;
    const std::uint32_t jump_end = std::min(segments[seg + 1], window.last);
    const std::size_t next_src = active.next_set_in_range(run.src + 1, active.size());
    if (next_src >= active.size()) {
      // The rest of this segment is inactive; later ones restart lower.
      r = jump_end;
      continue;
    }
    const graph::SourceRun* first = runs + r + 1;
    const graph::SourceRun* last = runs + jump_end;
    const graph::SourceRun* it =
        std::lower_bound(first, last, next_src,
                         [](const graph::SourceRun& a, std::size_t src) {
                           return a.src < src;
                         });
    r = static_cast<std::uint32_t>(it - runs);
  }
  if (have_segment) {
    segment_end = std::min(segment_end, window_begin + span.edge_count);
    processed += stream_range(algorithm, span, pid, segment_begin - window_begin,
                              segment_end - segment_begin, active, fan_out);
  }
  return processed;
}

JobRunStats StreamEngine::run_job(std::uint32_t job_id, algos::StreamingAlgorithm& algorithm,
                                  PartitionLoader& loader, const JobControl* control) const {
  JobRunStats stats;
  util::Timer wall;
  const std::uint64_t io_before = platform_.page_cache().job_stats(job_id).virtual_io_ns;

  algorithm.init(store_.meta().num_vertices, out_degrees_, &platform_.memory());
  const bool fan_out = pool_ != nullptr && config_.use_blocks && algorithm.parallel_safe();

  // Spans land on the calling thread's track: the service worker's job span
  // records on the same track, so iterations nest inside it in the viewer.
  obs::Tracer& tracer = obs::Tracer::global();
  const bool tracing = tracer.enabled();
  const std::uint32_t track = tracing ? tracer.thread_track() : obs::Tracer::kNoTrack;

  std::uint64_t iteration = 0;
  while (!algorithm.done() && iteration < config_.max_iterations_guard) {
    if (control != nullptr && control->cancel_requested()) {
      stats.cancelled = true;
      break;
    }
    const std::uint64_t iter_start_ns = tracing ? tracer.now_ns() : 0;
    algorithm.iteration_start(iteration);
    const util::AtomicBitmap& active = algorithm.active_vertices();
    loader.register_iteration(job_id, active_partitions(active));

    while (auto view = loader.acquire_next(job_id)) {
      const std::uint64_t part_start_ns = tracing ? tracer.now_ns() : 0;
      ++stats.partitions_loaded;
      // Partition-grouping seam of destination-block accumulation: every
      // engine path (legacy scalar, blocks, pooled) announces the partition
      // so accumulating algorithms group contributions identically — the
      // property that makes PageRank byte-identical across -S/-C/-M and any
      // partition visit order.
      algorithm.begin_partition(view->pid, store_.meta().num_partitions);
      const auto [values_ptr, values_bytes] = algorithm.values_span();
      // The run walk costs ~12 bytes of index bandwidth per run and only pays
      // when it actually skips edge reads. Dense-ish frontiers (PageRank/WCC
      // full scans, BFS wave peaks) skip almost nothing, so anything at or
      // above half-active streams plain blocks with the in-loop word test —
      // the run index is for genuinely sparse iterations.
      const graph::VertexId range =
          view->vertex_end > view->vertex_begin ? view->vertex_end - view->vertex_begin : 0;
      const bool dense =
          range == 0 ||
          2 * active.count_range(view->vertex_begin, view->vertex_end) >= range;
      const std::size_t num_chunks = view->chunks.size();
      std::uint64_t instructions = 0;
      for (std::size_t c = 0; c < num_chunks; ++c) {
        const ChunkSpan& span = view->chunks[c];
        util::Timer chunk_timer;
        const std::uint64_t active_edges =
            stream_chunk(algorithm, span, view->pid, active, fan_out, dense);
        const std::uint64_t elapsed = chunk_timer.elapsed_ns();

        stats.edges_streamed += span.edge_count;
        stats.edges_processed += active_edges;
        stats.compute_ns += elapsed;

        // Simulated metrics are issued from this (the job's) thread in chunk
        // order, never from pool workers, so LLC state transitions and
        // instruction counts stay deterministic at any thread count. The LLC
        // charges only enqueue: the simulator's applier thread replays them
        // in this order off the hot path.
        if (config_.model_llc && span.edge_count != 0) {
          // Structure data: the chunk's actual buffer address, so shared
          // buffers (-M) hit the same simulated lines while private copies
          // (-C) do not.
          platform_.llc().access_range(span.llc_base, span.edge_count * sizeof(graph::Edge),
                                       job_id);
          // Per-job hot metadata (frontier words, degree entries, engine
          // state) touched at every chunk. Alone or under -M's lock-step this
          // set stays LLC-resident; under -C the other jobs' private streams
          // flush it between chunks — the cache-interference LPI growth of
          // the paper's Figure 3(c). The addresses come from the platform's
          // reserved simulated region (kernel-half, bit 63 set), which can
          // never collide with a real buffer address.
          constexpr std::size_t kHotSetBytes = 1024;
          platform_.llc().access_range(sim::Platform::job_scratch_base(job_id),
                                       kHotSetBytes, job_id);
          if (values_bytes != 0 && c == 0 && store_.meta().num_vertices != 0) {
            // Job-specific data: under the grid's 2-level layout a partition
            // touches its own source-value slice plus similarly-sized
            // destination windows, so charge the job's value slice for the
            // partition's vertex range twice per partition (weight 2). This
            // keeps the paper's ratio: structure accesses dominate.
            const std::size_t bytes_per_vertex =
                std::max<std::size_t>(1, values_bytes / store_.meta().num_vertices);
            const std::uint64_t base = reinterpret_cast<std::uint64_t>(values_ptr) +
                                       std::uint64_t{view->vertex_begin} * bytes_per_vertex;
            const std::size_t len =
                (view->vertex_end - view->vertex_begin) * bytes_per_vertex;
            platform_.llc().access_range(base, std::max<std::size_t>(len, 64), job_id, 2);
          }
        }
        // "Instructions retired" proxy: one unit per scanned edge plus the
        // relaxation work for active edges.
        instructions += span.edge_count + 2 * active_edges;

        loader.end_chunk(job_id, view->pid, span.chunk_id);
      }
      platform_.add_instructions(job_id, instructions);
      loader.release(job_id, view->pid);
      if (tracing) {
        char name[32];
        std::snprintf(name, sizeof(name), "partition %u", view->pid);
        tracer.complete(track, name, part_start_ns, tracer.now_ns() - part_start_ns,
                        job_id, view->pid);
      }
      if (control != nullptr && control->cancel_requested()) {
        stats.cancelled = true;
        break;
      }
    }
    if (stats.cancelled) break;  // mid-iteration: skip iteration_end
    algorithm.iteration_end();
    if (tracing) {
      char name[32];
      std::snprintf(name, sizeof(name), "iteration %llu",
                    static_cast<unsigned long long>(iteration));
      tracer.complete(track, name, iter_start_ns, tracer.now_ns() - iter_start_ns,
                      job_id, iteration);
    }
    ++iteration;
  }

  // A cancelled job may leave partition needs unconsumed; job_finished tells
  // the loader (and, under -M, the sharing controller's detach seam) so the
  // group advances without it.
  loader.job_finished(job_id);
  stats.iterations = iteration;
  stats.wall_ns = wall.elapsed_ns();
  stats.io_stall_ns = platform_.page_cache().job_stats(job_id).virtual_io_ns - io_before;
  return stats;
}

}  // namespace graphm::grid
