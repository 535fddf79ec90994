// PageRank with configurable damping factor and iteration count — the
// paper's network-intensive workload (every iteration traverses the whole
// graph). Push-style: each edge adds rank[src]/deg[src] into the next sums.
//
// Deterministic parallel mode: PageRank's accumulation is order-sensitive
// floating point, so instead of edge-block fan-out it opts into destination-
// block accumulation (see algorithm.hpp): the engine hands concurrent tasks
// only the parts of a range that lie in different grid blocks, whose
// destinations are disjoint, each in stream order, and contributions
// accumulate into one partial array per partition, merged in ascending
// partition order at iteration_end. The per-destination summation order is
// then a pure function of the graph layout — independent of thread count, of
// which worker takes which block, and of the order partitions are visited in
// — so -S/-C/-M produce byte-identical values_span() at any stream-thread
// count.
#pragma once

#include "algos/algorithm.hpp"

namespace graphm::algos {

class PageRank final : public StreamingAlgorithm {
 public:
  PageRank(double damping, std::uint32_t max_iterations)
      : damping_(damping), max_iterations_(max_iterations) {}

  [[nodiscard]] std::string name() const override { return "PageRank"; }
  void init(graph::VertexId num_vertices, const std::vector<std::uint32_t>& out_degrees,
            sim::MemoryTracker* tracker) override;
  void iteration_start(std::uint64_t iteration) override;
  [[nodiscard]] const util::AtomicBitmap& active_vertices() const override { return active_; }
  void process_edge(const graph::Edge& e) override;
  graph::EdgeCount process_edge_block(const graph::Edge* edges, graph::EdgeCount n,
                                      const util::AtomicBitmap& active) override;
  [[nodiscard]] bool parallel_safe() const override { return true; }
  [[nodiscard]] bool dst_disjoint_fan_out() const override { return true; }
  void begin_partition(std::uint32_t pid, std::uint32_t num_partitions) override;
  void iteration_end() override;
  [[nodiscard]] bool done() const override { return iterations_done_ >= max_iterations_; }
  [[nodiscard]] std::pair<const void*, std::size_t> values_span() const override {
    return {rank_.data(), rank_.size() * sizeof(double)};
  }
  [[nodiscard]] std::vector<double> result() const override { return rank_; }

  [[nodiscard]] double damping() const { return damping_; }

 private:
  double damping_;
  std::uint32_t max_iterations_;
  std::uint32_t iterations_done_ = 0;
  std::vector<double> rank_;
  std::vector<double> next_;
  std::vector<double> contribution_;  // rank[v]/deg[v], frozen per iteration
  const std::vector<std::uint32_t>* degrees_ref_ = nullptr;
  /// Per-partition partial accumulators (allocated lazily on the first
  /// begin_partition of each partition; empty inner vector = untouched).
  /// iteration_end folds them into next_ in ascending partition order. With
  /// one partition (or no begin_partition calls at all — the engine-free
  /// oracle) accumulation goes straight into next_ and the merge is a no-op.
  std::vector<std::vector<double>> partials_;
  /// Accumulator the current partition's relaxations target: next_.data()
  /// in flat mode, partials_[pid].data() under engine partition grouping.
  double* partial_cur_ = nullptr;
  util::AtomicBitmap active_;
  sim::TrackedAllocation tracking_;
  sim::TrackedAllocation partials_tracking_;
  sim::MemoryTracker* tracker_ = nullptr;
};

}  // namespace graphm::algos
