// GraphM facade — the public storage-system API of the paper's Table 1.
//
//   GraphM graphm(store, platform, options);
//   graphm.init();                                  // Init(): label chunks
//   auto loader = graphm.make_loader();             // Sharing() plug-in
//   engine.run_job(job_id, algorithm, *loader);     // GetActiveVertices /
//                                                   // Barrier+Start (one call)
//                                                   // inside the loader seam
//
// The engine code is unchanged between the -S/-C and -M schemes except for
// which PartitionLoader it is handed — exactly the integration story of the
// paper's Figure 6.
#pragma once

#include <memory>

#include "graphm/sharing_controller.hpp"
#include "grid/loader.hpp"

namespace graphm::core {

class GraphM {
 public:
  GraphM(const storage::PartitionedStore& store, sim::Platform& platform, GraphMOptions options = {});
  ~GraphM();

  GraphM(const GraphM&) = delete;
  GraphM& operator=(const GraphM&) = delete;

  /// Init(): one labelling pass over the graph building every partition's
  /// chunk_table (Algorithm 1). Returns the labelling wall time in ns — the
  /// extra preprocessing cost Table 3 reports.
  std::uint64_t init();

  /// Chunk size chosen by Formula 1 for this graph/platform.
  [[nodiscard]] std::size_t chunk_bytes() const { return chunk_bytes_; }
  [[nodiscard]] const std::vector<ChunkTable>& chunk_tables() const { return chunk_tables_; }
  /// Extra storage GraphM's metadata occupies (Table 3 discussion).
  [[nodiscard]] std::uint64_t metadata_bytes() const;

  /// Registers a job and returns its Sharing() loader. One loader per job
  /// thread; the loader routes every PartitionLoader call, chunk boundaries
  /// included, to the sharing controller.
  std::unique_ptr<grid::PartitionLoader> make_loader(std::uint32_t job_id);

  [[nodiscard]] SharingController& controller() { return controller_; }
  [[nodiscard]] const SharingController& controller() const { return controller_; }

 private:
  const storage::PartitionedStore& store_;
  sim::Platform& platform_;
  GraphMOptions options_;
  std::size_t chunk_bytes_ = 0;
  std::vector<ChunkTable> chunk_tables_;
  sim::TrackedAllocation tables_tracking_;
  SharingController controller_;
  bool initialized_ = false;
};

}  // namespace graphm::core
