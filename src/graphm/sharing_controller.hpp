// The graph sharing controller (Section 3.3) plus the consistent-snapshot
// machinery (Section 3.3.2) and the chunk-grained lock-step barrier of the
// fine-grained synchronization (Section 3.4.2).
//
// One SharingController serves all concurrent jobs of one graph:
//  * a global table maps each partition to the set of jobs that must process
//    it next; the loading order over that table comes from Section 4's
//    priority (Formula 5) or, without the strategy, ascending pid;
//  * exactly one partition is resident at a time in a single shared buffer
//    (Algorithm 2: the first arriving job loads, the rest attach); jobs that
//    do not need the current partition are suspended on a condition variable
//    and resumed when one of theirs becomes current;
//  * while a partition is shared, its participant jobs step through the
//    labelled chunks in lock-step (a generation barrier per chunk, in
//    end_chunk: Barrier() and Start() in one call), so each chunk is pulled
//    into the simulated LLC once and reused by every job;
//  * snapshots: *mutations* are chunk-grained copies private to one job;
//    *updates* are chunk-grained versions visible only to jobs submitted
//    later — earlier jobs keep resolving to the older version.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "graphm/chunk_table.hpp"
#include "util/annotations.hpp"
#include "graphm/scheduler.hpp"
#include "grid/grid_store.hpp"
#include "grid/partition_view.hpp"
#include "sim/platform.hpp"

namespace graphm::core {

struct GraphMOptions {
  bool use_scheduling = true;      // Section 4 strategy (Figure 18 ablation)
  std::size_t chunk_bytes_override = 0;  // 0 = Formula 1
  /// Open-loop service mode (Algorithm 2 taken to its limit): a job whose
  /// needs include the partition already resident in the shared buffer may
  /// attach to the round in flight instead of waiting for the next round.
  /// Late attachers free-run over the resident buffer (they join neither the
  /// chunk barrier nor its lock-step pacing) and hold the buffer until they
  /// release, so the group never reloads for them. Off by default: the
  /// closed-batch executor keeps the paper's strict round membership.
  bool allow_mid_round_attach = false;
};

/// Reserved job id for preprocessing-time I/O accounting.
inline constexpr std::uint32_t kPreprocessJobId = 255;

class SharingController {
 public:
  struct Stats {
    std::uint64_t partition_loads = 0;   // Load() executions (buffer fills)
    std::uint64_t attaches = 0;          // jobs served from the shared buffer
    std::uint64_t mid_round_attaches = 0;  // late joins to a round in flight
    std::uint64_t suspensions = 0;       // waits in acquire_next
    std::uint64_t chunk_barriers = 0;    // completed chunk barrier rounds
    std::uint64_t snapshot_copies = 0;   // COW chunk copies created
    std::uint64_t mid_round_detaches = 0;  // jobs detached from a live round
  };

  SharingController(const storage::PartitionedStore& store, sim::Platform& platform,
                    const std::vector<ChunkTable>* chunk_tables, GraphMOptions options);

  // --- job lifecycle -------------------------------------------------------
  /// Captures the job's snapshot version (updates applied later stay
  /// invisible to it).
  void register_job(JobId job);
  /// Ends the job: detaches it from any live round, frees its mutation
  /// copies and erases its entry (GCing update versions it kept alive).
  void job_finished(JobId job);

  // --- iteration protocol (the PartitionLoader seam) -----------------------
  void register_iteration(JobId job, const std::vector<PartitionId>& partitions);
  std::optional<grid::PartitionView> acquire_next(JobId job);
  void release(JobId job, PartitionId pid);
  void end_chunk(JobId job, PartitionId pid, std::uint32_t chunk_id);

  // --- snapshots (Section 3.3.2) -------------------------------------------
  /// Job-private modification of one chunk; other jobs keep the shared data.
  void apply_mutation(JobId job, PartitionId pid, std::uint32_t chunk_id,
                      std::vector<graph::Edge> new_edges);
  /// Graph update: visible to jobs registered *after* this call. Returns the
  /// new version number.
  std::uint64_t apply_update(PartitionId pid, std::uint32_t chunk_id,
                             std::vector<graph::Edge> new_edges);
  /// The chunk content the given job would observe (loads the base from disk
  /// if no overlay applies). For tests and the evolving-graph example.
  std::vector<graph::Edge> chunk_content(JobId job, PartitionId pid, std::uint32_t chunk_id);

  [[nodiscard]] Stats stats() const;
  /// Number of live (registered, unfinished) jobs.
  [[nodiscard]] std::size_t live_jobs() const;
  /// Currently retained snapshot chunk copies (after GC).
  [[nodiscard]] std::size_t snapshot_chunks_live() const;

 private:
  /// One entry per *live* job (job_finished erases — the service routes an
  /// unbounded job stream through one controller, and round assembly walks
  /// this map under the mutex).
  struct JobState {
    std::set<PartitionId> needs;
    std::uint64_t version = 0;
  };
  struct OverlayChunk {
    std::vector<graph::Edge> edges;
    graph::RunIndex runs;        // the replaced content's index (Set_c update)
    std::uint64_t version = 0;   // updates only
    sim::TrackedAllocation tracking;
  };
  using OverlayPtr = std::shared_ptr<OverlayChunk>;

  void advance_locked() REQUIRES(mutex_);
  [[nodiscard]] bool should_defer_locked() const REQUIRES(mutex_);
  [[nodiscard]] grid::PartitionView build_view_locked(JobId job, PartitionId pid)
      REQUIRES(mutex_);
  [[nodiscard]] const OverlayPtr* resolve_overlay_locked(JobId job, PartitionId pid,
                                                         std::uint32_t chunk_id) const
      REQUIRES(mutex_);
  void gc_updates_locked() REQUIRES(mutex_);
  OverlayPtr make_overlay_locked(PartitionId pid, std::uint32_t chunk_id,
                                 std::vector<graph::Edge> edges, std::uint64_t version)
      REQUIRES(mutex_);
  std::vector<graph::Edge> base_chunk_content_locked(PartitionId pid, std::uint32_t chunk_id,
                                                     JobId job) REQUIRES(mutex_);

  const storage::PartitionedStore& store_;
  sim::Platform& platform_;
  const std::vector<ChunkTable>* chunk_tables_;
  GraphMOptions options_;

  mutable Mutex mutex_;
  std::condition_variable round_cv_;   // round advance, buffer loads, registrations
  std::condition_variable barrier_cv_;  // chunk barrier (participants only)

  std::map<JobId, JobState> jobs_ GUARDED_BY(mutex_);
  std::uint64_t version_counter_ GUARDED_BY(mutex_) = 0;

  void detach_from_round_locked(JobId job) REQUIRES(mutex_);

  /// The sharing trace seam: every protocol transition goes through here
  /// and becomes an obs instant on this controller's "sharing #N" track when
  /// the global tracer is on.
  void trace_event(const char* name, JobId job, std::uint64_t detail) REQUIRES(mutex_);

  const std::uint32_t group_id_;  // distinguishes controllers' trace tracks
  std::uint32_t trace_track_ GUARDED_BY(mutex_) = 0xFFFFFFFFu;  // lazily interned

  // Serving state (Algorithm 2).
  std::int64_t current_pid_ GUARDED_BY(mutex_) = -1;
  std::set<JobId> current_unacquired_ GUARDED_BY(mutex_);
  std::set<JobId> current_unreleased_ GUARDED_BY(mutex_);
  /// Round participants subject to the chunk barrier. Late mid-round
  /// attachers appear in current_unreleased_ (they pin the buffer) but never
  /// here — they stream at their own pace.
  std::set<JobId> barrier_members_ GUARDED_BY(mutex_);
  std::vector<graph::Edge> shared_buffer_ GUARDED_BY(mutex_);
  bool buffer_loaded_ GUARDED_BY(mutex_) = false;
  bool buffer_loading_ GUARDED_BY(mutex_) = false;
  sim::TrackedAllocation buffer_tracking_ GUARDED_BY(mutex_);

  // Chunk barrier over barrier_members_.
  std::size_t barrier_arrived_ GUARDED_BY(mutex_) = 0;
  std::uint32_t barrier_chunk_ GUARDED_BY(mutex_) = 0;
  /// True while the current round has at most one barrier member; read
  /// without the mutex by end_chunk (a round cannot advance while one of its
  /// participants is streaming, and a detach only sets it).
  std::atomic<bool> solo_round_{true};

  // Snapshots: mutations keyed by (job, pid, chunk); updates keyed by
  // (pid, chunk) as a version-ascending list.
  std::map<std::tuple<JobId, PartitionId, std::uint32_t>, OverlayPtr> mutations_
      GUARDED_BY(mutex_);
  std::map<std::pair<PartitionId, std::uint32_t>, std::vector<OverlayPtr>> updates_
      GUARDED_BY(mutex_);

  Stats stats_ GUARDED_BY(mutex_);
};

}  // namespace graphm::core
