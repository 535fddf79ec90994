// The loading seam between the streaming engine and the storage layer.
//
// This is the paper's `Sharing(G, Load())` extension point (Figure 6): the
// engine is written against PartitionLoader; the default implementation is
// the engine's own private Load() (one buffer per job, job-local ordering),
// and GraphM substitutes a loader that shares buffers across jobs, imposes a
// common loading order and suspends jobs that do not need the partition
// currently in memory (Algorithm 2).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "grid/grid_store.hpp"
#include "grid/partition_view.hpp"
#include "sim/platform.hpp"
#include "util/bitmap.hpp"

namespace graphm::grid {

class PartitionLoader {
 public:
  virtual ~PartitionLoader() = default;

  /// Declares the partitions the job must process this iteration, derived
  /// from its active-vertex bitmap. Called once per iteration per job.
  virtual void register_iteration(std::uint32_t job_id,
                                  const std::vector<std::uint32_t>& active_partitions) = 0;

  /// Blocks until a partition this job registered for is available; returns
  /// the loaded view, or nullopt when the job's iteration is complete.
  /// A GraphM loader may suspend the calling job here.
  virtual std::optional<PartitionView> acquire_next(std::uint32_t job_id) = 0;

  /// Marks the job done with the partition it last acquired.
  virtual void release(std::uint32_t job_id, std::uint32_t pid) = 0;

  /// Called after each streamed chunk; returning permits the next one (the
  /// paper's Barrier() and Start() in one call: GraphM holds a round member
  /// here until every member has finished the chunk).
  virtual void end_chunk(std::uint32_t job_id, std::uint32_t pid, std::uint32_t chunk_id) {
    (void)job_id; (void)pid; (void)chunk_id;
  }

  /// Called when the job finishes entirely (all iterations done).
  virtual void job_finished(std::uint32_t job_id) { (void)job_id; }
};

/// The engine's original Load(): a private reusable buffer per job, partitions
/// visited in ascending pid order, each handed out as one span carrying the
/// store's source-run index of the partition. Used by the -S and -C schemes.
class DefaultLoader final : public PartitionLoader {
 public:
  DefaultLoader(const storage::PartitionedStore& store, sim::Platform& platform);
  ~DefaultLoader() override;

  void register_iteration(std::uint32_t job_id,
                          const std::vector<std::uint32_t>& active_partitions) override;
  std::optional<PartitionView> acquire_next(std::uint32_t job_id) override;
  void release(std::uint32_t job_id, std::uint32_t pid) override;

 private:
  const storage::PartitionedStore& store_;
  sim::Platform& platform_;
  std::vector<std::uint32_t> pending_;  // reversed: back() is next
  std::vector<Edge> buffer_;
  sim::TrackedAllocation buffer_tracking_;
};

}  // namespace graphm::grid
