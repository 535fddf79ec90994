#include "algos/algorithm.hpp"

namespace graphm::algos {

graph::EdgeCount StreamingAlgorithm::process_edge_block(const graph::Edge* edges,
                                                        graph::EdgeCount n,
                                                        const util::AtomicBitmap& active) {
  // Scalar fallback: one atomic bit test and one virtual dispatch per edge.
  // Overrides replace this with a devirtualized loop; the equivalence tests
  // assert both paths produce bit-identical job state.
  graph::EdgeCount processed = 0;
  for (graph::EdgeCount i = 0; i < n; ++i) {
    const graph::Edge& e = edges[i];
    if (active.get(e.src)) {
      process_edge(e);
      ++processed;
    }
  }
  return processed;
}

}  // namespace graphm::algos
