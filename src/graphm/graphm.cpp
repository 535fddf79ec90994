#include "graphm/graphm.hpp"

#include <stdexcept>

#include "util/timer.hpp"

namespace graphm::core {

namespace {

/// The Sharing() adapter: implements the engine's PartitionLoader seam on top
/// of the sharing controller. Table 1's Barrier() and Start() are one call:
/// end_chunk after each shared chunk.
class SharedLoader final : public grid::PartitionLoader {
 public:
  SharedLoader(SharingController& controller, std::uint32_t job_id)
      : controller_(controller) {
    controller_.register_job(job_id);
  }

  void register_iteration(std::uint32_t job_id,
                          const std::vector<std::uint32_t>& active_partitions) override {
    controller_.register_iteration(job_id, active_partitions);
  }

  std::optional<grid::PartitionView> acquire_next(std::uint32_t job_id) override {
    return controller_.acquire_next(job_id);
  }

  void release(std::uint32_t job_id, std::uint32_t pid) override {
    controller_.release(job_id, pid);
  }

  void end_chunk(std::uint32_t job_id, std::uint32_t pid, std::uint32_t chunk_id) override {
    controller_.end_chunk(job_id, pid, chunk_id);
  }

  void job_finished(std::uint32_t job_id) override { controller_.job_finished(job_id); }

 private:
  SharingController& controller_;
};

}  // namespace

GraphM::GraphM(const storage::PartitionedStore& store, sim::Platform& platform, GraphMOptions options)
    : store_(store),
      platform_(platform),
      options_(options),
      controller_(store, platform, &chunk_tables_, options) {}

GraphM::~GraphM() = default;

std::uint64_t GraphM::init() {
  util::Timer timer;
  const auto& meta = store_.meta();
  if (meta.source_runs.size() != meta.num_partitions) {
    throw std::runtime_error("GraphM::init: the store has no source-run index");
  }

  chunk_bytes_ = options_.chunk_bytes_override != 0
                     ? options_.chunk_bytes_override
                     : chunk_size_bytes(platform_.config(), meta.num_edges * sizeof(graph::Edge),
                                        meta.num_vertices, kVertexValueBytes);

  // The chunk_tables' runs are the store's index; Algorithm 1 only cuts
  // chunk boundaries over it, with no read of the graph.
  chunk_tables_.clear();
  chunk_tables_.resize(meta.num_partitions);
  for (std::uint32_t pid = 0; pid < meta.num_partitions; ++pid) {
    chunk_tables_[pid] = label_partition(meta.source_runs[pid], chunk_bytes_);
  }
  // The index itself is tracked by the engines over the store.
  tables_tracking_ =
      sim::TrackedAllocation(&platform_.memory(), sim::MemoryCategory::kChunkTables,
                             metadata_bytes() - meta.source_runs_bytes());
  initialized_ = true;
  return timer.elapsed_ns();
}

std::uint64_t GraphM::metadata_bytes() const {
  std::uint64_t bytes = store_.meta().source_runs_bytes();
  for (const ChunkTable& table : chunk_tables_) bytes += table.footprint_bytes();
  return bytes;
}

std::unique_ptr<grid::PartitionLoader> GraphM::make_loader(std::uint32_t job_id) {
  if (!initialized_) throw std::logic_error("GraphM::make_loader before init()");
  return std::make_unique<SharedLoader>(controller_, job_id);
}

}  // namespace graphm::core
