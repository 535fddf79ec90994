#include "grid/loader.hpp"

#include <algorithm>

namespace graphm::grid {

DefaultLoader::DefaultLoader(const storage::PartitionedStore& store, sim::Platform& platform)
    : store_(store), platform_(platform) {
  // GridGraph streams partitions through one reusable buffer sized for the
  // largest partition; that allocation is what multiplies under the -C
  // scheme (one per concurrent job).
  buffer_.reserve(store_.meta().max_partition_bytes() / sizeof(Edge));
  buffer_tracking_ = sim::TrackedAllocation(&platform_.memory(),
                                            sim::MemoryCategory::kGraphStructure,
                                            store_.meta().max_partition_bytes());
}

DefaultLoader::~DefaultLoader() = default;

void DefaultLoader::register_iteration(std::uint32_t /*job_id*/,
                                       const std::vector<std::uint32_t>& active_partitions) {
  pending_.assign(active_partitions.rbegin(), active_partitions.rend());
}

std::optional<PartitionView> DefaultLoader::acquire_next(std::uint32_t job_id) {
  if (pending_.empty()) return std::nullopt;
  const std::uint32_t pid = pending_.back();
  pending_.pop_back();

  store_.read_partition(pid, buffer_, platform_, job_id);

  PartitionView view;
  view.pid = pid;
  const auto [vb, ve] = store_.meta().vertex_range(pid);
  view.vertex_begin = vb;
  view.vertex_end = ve;
  ChunkSpan span;
  span.edges = buffer_.data();
  span.edge_count = buffer_.size();
  span.llc_base = reinterpret_cast<std::uint64_t>(buffer_.data());
  span.chunk_id = 0;
  span.stream_offset = 0;  // the whole row, in block order
  // No run index here: full-partition spans get theirs from the engine's
  // shared per-partition cache (immutable structure metadata, one copy per
  // engine rather than one per job).
  view.chunks.push_back(span);
  return view;
}

void DefaultLoader::release(std::uint32_t /*job_id*/, std::uint32_t /*pid*/) {}

}  // namespace graphm::grid
