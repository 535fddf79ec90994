#include "algos/pagerank.hpp"

#include <algorithm>

namespace graphm::algos {

void PageRank::init(graph::VertexId num_vertices, const std::vector<std::uint32_t>& out_degrees,
                    sim::MemoryTracker* tracker) {
  const double n = num_vertices == 0 ? 1.0 : static_cast<double>(num_vertices);
  rank_.assign(num_vertices, 1.0 / n);
  next_.assign(num_vertices, 0.0);
  contribution_.assign(num_vertices, 0.0);
  degrees_ref_ = &out_degrees;
  partials_.clear();
  partial_cur_ = next_.data();  // flat mode until an engine announces partitions
  active_ = util::AtomicBitmap(num_vertices);
  active_.set_all();
  tracker_ = tracker;
  partials_tracking_ = sim::TrackedAllocation();
  tracking_ = sim::TrackedAllocation(tracker, sim::MemoryCategory::kJobSpecific,
                                     3 * num_vertices * sizeof(double) + num_vertices / 8);
}

void PageRank::iteration_start(std::uint64_t /*iteration*/) {
  const auto& degrees = *degrees_ref_;
  for (std::size_t v = 0; v < rank_.size(); ++v) {
    contribution_[v] = degrees[v] == 0 ? 0.0 : rank_[v] / degrees[v];
    next_[v] = 0.0;
  }
  for (std::vector<double>& partial : partials_) {
    if (!partial.empty()) std::fill(partial.begin(), partial.end(), 0.0);
  }
}

void PageRank::begin_partition(std::uint32_t pid, std::uint32_t num_partitions) {
  if (num_partitions <= 1) {
    // One partition: partition grouping degenerates to the flat fold.
    partial_cur_ = next_.data();
    return;
  }
  if (partials_.empty()) partials_.resize(num_partitions);
  std::vector<double>& partial = partials_[pid];
  if (partial.empty()) {
    partial.assign(rank_.size(), 0.0);
    std::size_t allocated = 0;
    for (const std::vector<double>& p : partials_) allocated += p.size();
    partials_tracking_ = sim::TrackedAllocation(tracker_, sim::MemoryCategory::kJobSpecific,
                                                allocated * sizeof(double));
  }
  partial_cur_ = partial.data();
}

void PageRank::process_edge(const graph::Edge& e) { partial_cur_[e.dst] += contribution_[e.src]; }

graph::EdgeCount PageRank::process_edge_block(const graph::Edge* edges, graph::EdgeCount n,
                                              const util::AtomicBitmap& active) {
  const double* contribution = contribution_.data();
  double* next = partial_cur_;
  if (&active == &active_) {
    // Our own frontier is all-set by construction (PageRank touches every
    // vertex every iteration), so the gate is a tautology — drop it.
    for (graph::EdgeCount i = 0; i < n; ++i) {
      const graph::Edge& e = edges[i];
      next[e.dst] += contribution[e.src];
    }
    return n;
  }
  return gated_block_loop(edges, n, active, [contribution, next](const graph::Edge& e) {
    next[e.dst] += contribution[e.src];
  });
}

void PageRank::iteration_end() {
  // Fixed-shape merge: partials fold into next_ in ascending partition order
  // regardless of the order partitions were streamed in. Untouched entries
  // (empty-edge partitions, flat mode) contribute nothing.
  for (const std::vector<double>& partial : partials_) {
    if (partial.empty()) continue;
    for (std::size_t v = 0; v < next_.size(); ++v) next_[v] += partial[v];
  }
  const double n = rank_.empty() ? 1.0 : static_cast<double>(rank_.size());
  for (std::size_t v = 0; v < rank_.size(); ++v) {
    rank_[v] = (1.0 - damping_) / n + damping_ * next_[v];
  }
  ++iterations_done_;
}

}  // namespace graphm::algos
