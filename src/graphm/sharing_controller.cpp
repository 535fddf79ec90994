#include "graphm/sharing_controller.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <stdexcept>

#include "obs/trace.hpp"
#include "util/logging.hpp"

namespace graphm::core {

namespace {
std::atomic<std::uint32_t> next_group_id{0};
}  // namespace

SharingController::SharingController(const storage::PartitionedStore& store, sim::Platform& platform,
                                     const std::vector<ChunkTable>* chunk_tables,
                                     GraphMOptions options)
    : store_(store), platform_(platform), chunk_tables_(chunk_tables), options_(options),
      group_id_(next_group_id.fetch_add(1, std::memory_order_relaxed)) {}

void SharingController::trace_event(const char* name, JobId job, std::uint64_t detail) {
  obs::Tracer& tracer = obs::Tracer::global();
  if (tracer.enabled()) {
    // Interned once per controller; every caller holds mutex_, which also
    // guards trace_track_.
    if (trace_track_ == obs::Tracer::kNoTrack) {
      trace_track_ = tracer.track("sharing #" + std::to_string(group_id_));
    }
    tracer.instant(trace_track_, name, tracer.now_ns(), job, detail);
  }
}

void SharingController::register_job(JobId job) {
  MutexLock lock(mutex_);
  jobs_[job].version = version_counter_;
}

void SharingController::detach_from_round_locked(JobId job) {
  // Mid-round detach: the job leaves a round it was assigned to (deadline
  // cancellation, early termination) without stalling the remaining
  // participants. Barrier bookkeeping shrinks with it, and if the job was the
  // last unreleased participant the round completes on its behalf.
  if (current_pid_ < 0) return;
  const bool was_assigned = current_unacquired_.erase(job) != 0;
  const bool was_unreleased = current_unreleased_.erase(job) != 0;
  if (barrier_members_.erase(job) != 0) {
    if (barrier_members_.size() <= 1) {
      // The survivors have nobody left to step in lock-step with.
      solo_round_.store(true, std::memory_order_release);
    }
    if (!barrier_members_.empty() && barrier_arrived_ >= barrier_members_.size()) {
      // Everyone still in the round had already arrived: the departing job
      // was the one the barrier was waiting for. Complete it.
      barrier_arrived_ = 0;
      ++barrier_chunk_;
      ++stats_.chunk_barriers;
    }
  }
  if (was_assigned || was_unreleased) ++stats_.mid_round_detaches;
  if (was_unreleased && current_unreleased_.empty()) {
    buffer_tracking_.release_now();
    buffer_loaded_ = false;
    current_pid_ = -1;
    advance_locked();
  }
  barrier_cv_.notify_all();
}

void SharingController::job_finished(JobId job) {
  MutexLock lock(mutex_);
  trace_event("job_finished", job, 0);
  detach_from_round_locked(job);
  // Drop the job's private mutation copies ("the copied chunks will be
  // released when the corresponding job is finished").
  for (auto m = mutations_.begin(); m != mutations_.end();) {
    if (std::get<0>(m->first) == job) {
      m = mutations_.erase(m);
    } else {
      ++m;
    }
  }
  // Erase rather than flag: a long-lived service routes an unbounded job
  // stream through one controller, and every round assembly walks jobs_
  // under the mutex — finished entries must not accumulate. (Snapshot GC
  // below only consults live jobs, so erasure is equivalent to the flag.)
  jobs_.erase(job);
  gc_updates_locked();
  round_cv_.notify_all();
}

void SharingController::register_iteration(JobId job, const std::vector<PartitionId>& partitions) {
  MutexLock lock(mutex_);
  trace_event("reg_iter", job, partitions.size());
  JobState& state = jobs_[job];
  state.needs = std::set<PartitionId>(partitions.begin(), partitions.end());
  round_cv_.notify_all();
}

bool SharingController::should_defer_locked() const {
  // A live job with no outstanding needs is at an iteration boundary (about
  // to call register_iteration) or about to finish. Starting the next
  // partition round without it would strand it for the whole round, so the
  // round waits — this is what keeps concurrent jobs traversing the graph
  // along the same path instead of drifting apart.
  for (const auto& [job, state] : jobs_) {
    if (state.needs.empty()) return true;
  }
  return false;
}

void SharingController::advance_locked() {
  current_pid_ = -1;
  if (should_defer_locked()) return;
  // Assemble the global table from every live job's outstanding needs.
  GlobalTable table;
  for (const auto& [job, state] : jobs_) {
    for (const PartitionId pid : state.needs) table[pid].insert(job);
  }
  if (table.empty()) {
    return;
  }
  const std::vector<PartitionId> order = loading_order(table, options_.use_scheduling);
  const PartitionId pid = order.front();
  trace_event("advance", 0, pid);

  current_pid_ = pid;
  current_unacquired_.clear();
  current_unreleased_.clear();
  barrier_members_.clear();
  for (const JobId job : table.at(pid)) {
    current_unacquired_.insert(job);
    current_unreleased_.insert(job);
    barrier_members_.insert(job);
  }
  buffer_loaded_ = false;
  buffer_loading_ = false;
  barrier_arrived_ = 0;
  barrier_chunk_ = 0;
  // Published for the lock-free end_chunk fast path. Stable while any
  // participant is streaming: the round cannot advance until every
  // participant has released.
  solo_round_.store(barrier_members_.size() <= 1, std::memory_order_release);
}

std::optional<grid::PartitionView> SharingController::acquire_next(JobId job) {
  MutexLock lock(mutex_);
  bool suspended = false;
  for (;;) {
    JobState& state = jobs_.at(job);
    if (state.needs.empty()) return std::nullopt;
    if (current_pid_ < 0) {
      advance_locked();
      if (current_pid_ >= 0) {
        round_cv_.notify_all();
        continue;
      }
      // Deferred: another live job is at its iteration boundary.
    } else if (current_unacquired_.count(job) != 0) {
      break;
    } else if (options_.allow_mid_round_attach && buffer_loaded_ &&
               state.needs.count(static_cast<PartitionId>(current_pid_)) != 0 &&
               current_unreleased_.count(job) == 0) {
      // Late attach (service mode): the partition this job needs is already
      // resident, so serve it from the shared buffer mid-round. The job pins
      // the buffer (current_unreleased_) but stays outside the chunk barrier
      // — it free-runs and the lock-step group never waits for it.
      //
      // The attacher may be a *former member* of this very round (it
      // released, started its next iteration, and needs the partition
      // again). Its member pass is over — a member can only release after
      // the round's final chunk barrier completed, so no member is waiting
      // on it — and its re-run must not arrive at the barrier again: strike
      // it from the roster so end_chunk sees a non-member.
      const auto pid = static_cast<PartitionId>(current_pid_);
      barrier_members_.erase(job);
      current_unreleased_.insert(job);
      ++stats_.attaches;
      ++stats_.mid_round_attaches;
      trace_event("mid_attach", job, pid);
      return build_view_locked(job, pid);
    }
    // The job does not participate in the current partition (or has already
    // acquired it, or the round is deferred): suspend until state changes.
    // Counted once per suspension, not per wakeup.
    if (!suspended) {
      suspended = true;
      ++stats_.suspensions;
    }
    trace_event("suspend", job, state.needs.size());
    lock.wait(round_cv_);
  }

  const auto pid = static_cast<PartitionId>(current_pid_);
  current_unacquired_.erase(job);

  if (!buffer_loaded_) {
    if (!buffer_loading_) {
      // First arrival: CreateMemory + Load (Algorithm 2 lines 9-10).
      // The disk read happens outside the mutex; the buffer is moved out and
      // back so no guarded member is touched unlocked (buffer_loading_ keeps
      // every other job off it, and the heap storage — the address the LLC
      // sim sees — is reused move-for-move).
      buffer_loading_ = true;
      std::vector<graph::Edge> loading = std::move(shared_buffer_);
      lock.unlock();
      store_.read_partition(pid, loading, platform_, job);
      lock.lock();
      shared_buffer_ = std::move(loading);
      buffer_tracking_ = sim::TrackedAllocation(&platform_.memory(),
                                                sim::MemoryCategory::kGraphStructure,
                                                shared_buffer_.size() * sizeof(graph::Edge));
      buffer_loaded_ = true;
      buffer_loading_ = false;
      ++stats_.partition_loads;
      trace_event("load", job, pid);
      round_cv_.notify_all();
    } else {
      while (!buffer_loaded_) lock.wait(round_cv_);
      ++stats_.attaches;  // Attach (Algorithm 2 line 12)
    }
  } else {
    ++stats_.attaches;
  }
  trace_event("acquire", job, pid);

  return build_view_locked(job, pid);
}

void SharingController::release(JobId job, PartitionId pid) {
  MutexLock lock(mutex_);
  trace_event("release", job, pid);
  current_unreleased_.erase(job);
  auto it = jobs_.find(job);
  if (it != jobs_.end()) it->second.needs.erase(pid);
  if (current_unreleased_.empty() && static_cast<std::int64_t>(pid) == current_pid_) {
    // Last participant out: drop the shared buffer and move on.
    buffer_tracking_.release_now();
    buffer_loaded_ = false;
    current_pid_ = -1;
    advance_locked();
  }
  round_cv_.notify_all();
  barrier_cv_.notify_all();
}

void SharingController::end_chunk(JobId job, PartitionId pid, std::uint32_t chunk_id) {
  // Solo fast path: a round with one participant has nobody to step in
  // lock-step with — skip the mutex entirely so the single job streams its
  // chunks back to back (and charges no modeled barrier wakeups).
  if (solo_round_.load(std::memory_order_acquire)) return;
  MutexLock lock(mutex_);
  if (static_cast<std::int64_t>(pid) != current_pid_) return;
  // Late mid-round attachers are not barrier members: they free-run over the
  // resident buffer instead of pacing (or corrupting) the lock-step group.
  if (barrier_members_.count(job) == 0) return;
  trace_event("end_chunk", job, chunk_id);
  if (++barrier_arrived_ == barrier_members_.size()) {
    barrier_arrived_ = 0;
    barrier_chunk_ = chunk_id + 1;
    ++stats_.chunk_barriers;
    barrier_cv_.notify_all();
    return;
  }
  while (static_cast<std::int64_t>(pid) == current_pid_ && barrier_chunk_ <= chunk_id) {
    lock.wait(barrier_cv_);
  }
}

const SharingController::OverlayPtr* SharingController::resolve_overlay_locked(
    JobId job, PartitionId pid, std::uint32_t chunk_id) const {
  // 1) job-private mutation wins;
  const auto m = mutations_.find({job, pid, chunk_id});
  if (m != mutations_.end()) return &m->second;
  // 2) latest update with version <= the job's snapshot version.
  const auto u = updates_.find({pid, chunk_id});
  if (u != updates_.end()) {
    const auto job_it = jobs_.find(job);
    const std::uint64_t job_version = job_it == jobs_.end() ? version_counter_
                                                            : job_it->second.version;
    const OverlayPtr* best = nullptr;
    for (const OverlayPtr& overlay : u->second) {
      if (overlay->version <= job_version) best = &overlay;
    }
    return best;
  }
  return nullptr;
}

grid::PartitionView SharingController::build_view_locked(JobId job, PartitionId pid) {
  grid::PartitionView view;
  view.pid = pid;
  const auto [vb, ve] = store_.meta().vertex_range(pid);
  view.vertex_begin = vb;
  view.vertex_end = ve;

  const ChunkTable& table = (*chunk_tables_)[pid];
  view.chunks.reserve(table.chunks.size());
  for (std::uint32_t c = 0; c < table.chunks.size(); ++c) {
    const ChunkInfo& info = table.chunks[c];
    grid::ChunkSpan span;
    span.chunk_id = c;
    if (const OverlayPtr* overlay = resolve_overlay_locked(job, pid, c)) {
      span.edges = (*overlay)->edges.data();
      span.edge_count = (*overlay)->edges.size();
      // Replaced content need not follow the grid's block layout (nor keep
      // the chunk's edge count), so the engine streams it serially.
      span.stream_offset = grid::ChunkSpan::kNoLayout;
      // Overlays are indexed when created, so their runs match the
      // replaced content.
      span.runs = &(*overlay)->runs;
      span.run_window = {0, static_cast<std::uint32_t>(span.runs->runs.size())};
    } else {
      span.edges = shared_buffer_.data() + info.edge_begin;
      span.edge_count = info.total_edges();
      span.stream_offset = info.edge_begin;
      // The store's partition index; the engine walks the chunk's window.
      span.runs = &store_.meta().source_runs[pid];
      span.run_window = info.run_window;
    }
    span.llc_base = reinterpret_cast<std::uint64_t>(span.edges);
    view.chunks.push_back(span);
  }
  return view;
}

std::vector<graph::Edge> SharingController::base_chunk_content_locked(PartitionId pid,
                                                                      std::uint32_t chunk_id,
                                                                      JobId job) {
  const ChunkInfo& info = (*chunk_tables_)[pid].chunks.at(chunk_id);
  std::vector<graph::Edge> edges(info.total_edges());
  store_.read_edges(pid, info.edge_begin, info.total_edges(), edges.data(), platform_, job);
  return edges;
}

SharingController::OverlayPtr SharingController::make_overlay_locked(
    PartitionId pid, std::uint32_t chunk_id, std::vector<graph::Edge> edges,
    std::uint64_t version) {
  // An overlay of a chunk the table does not have would never resolve.
  if (chunk_id >= (*chunk_tables_)[pid].chunks.size()) {
    throw std::out_of_range("SharingController: no such chunk");
  }
  auto overlay = std::make_shared<OverlayChunk>();
  overlay->runs = graph::index_runs(edges.data(), edges.size());
  overlay->version = version;
  overlay->tracking = sim::TrackedAllocation(&platform_.memory(),
                                             sim::MemoryCategory::kGraphStructure,
                                             edges.size() * sizeof(graph::Edge));
  overlay->edges = std::move(edges);
  ++stats_.snapshot_copies;
  return overlay;
}

void SharingController::apply_mutation(JobId job, PartitionId pid, std::uint32_t chunk_id,
                                       std::vector<graph::Edge> new_edges) {
  MutexLock lock(mutex_);
  mutations_[{job, pid, chunk_id}] =
      make_overlay_locked(pid, chunk_id, std::move(new_edges), 0);
}

std::uint64_t SharingController::apply_update(PartitionId pid, std::uint32_t chunk_id,
                                              std::vector<graph::Edge> new_edges) {
  MutexLock lock(mutex_);
  const std::uint64_t version = ++version_counter_;
  updates_[{pid, chunk_id}].push_back(
      make_overlay_locked(pid, chunk_id, std::move(new_edges), version));
  return version;
}

std::vector<graph::Edge> SharingController::chunk_content(JobId job, PartitionId pid,
                                                          std::uint32_t chunk_id) {
  MutexLock lock(mutex_);
  if (const OverlayPtr* overlay = resolve_overlay_locked(job, pid, chunk_id)) {
    return (*overlay)->edges;
  }
  return base_chunk_content_locked(pid, chunk_id, job);
}

void SharingController::gc_updates_locked() {
  // "when all previous jobs are completed, these copied chunks will be
  // released": an update version is dead once a newer version exists that is
  // visible to every live job.
  std::uint64_t min_live_version = version_counter_;
  for (const auto& [job, state] : jobs_) {
    min_live_version = std::min(min_live_version, state.version);
  }
  for (auto& [key, versions] : updates_) {
    // Keep the last version whose `version <= min_live_version` and
    // everything newer; drop older entries.
    std::size_t keep_from = 0;
    for (std::size_t i = 0; i < versions.size(); ++i) {
      if (versions[i]->version <= min_live_version) keep_from = i;
    }
    if (keep_from > 0) versions.erase(versions.begin(), versions.begin() + keep_from);
  }
}

SharingController::Stats SharingController::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

std::size_t SharingController::live_jobs() const {
  MutexLock lock(mutex_);
  return jobs_.size();  // finished jobs are erased on job_finished
}

std::size_t SharingController::snapshot_chunks_live() const {
  MutexLock lock(mutex_);
  std::size_t live = mutations_.size();
  for (const auto& [key, versions] : updates_) live += versions.size();
  return live;
}

}  // namespace graphm::core
