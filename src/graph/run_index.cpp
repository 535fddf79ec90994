#include "graph/run_index.hpp"

namespace graphm::graph {

void append_source_run(std::vector<SourceRun>& runs, VertexId src) {
  if (!runs.empty() && runs.back().src == src) {
    ++runs.back().count;
  } else {
    const std::uint32_t begin = runs.empty() ? 0 : runs.back().begin + runs.back().count;
    runs.push_back({src, begin, 1});
  }
}

std::vector<std::uint32_t> sorted_run_segments(const std::vector<SourceRun>& runs) {
  std::vector<std::uint32_t> bounds;
  bounds.push_back(0);
  for (std::size_t i = 1; i < runs.size(); ++i) {
    if (runs[i].src <= runs[i - 1].src) bounds.push_back(static_cast<std::uint32_t>(i));
  }
  bounds.push_back(static_cast<std::uint32_t>(runs.size()));
  return bounds;
}

RunIndex index_runs(const Edge* edges, EdgeCount count) {
  RunIndex index;
  for (EdgeCount i = 0; i < count; ++i) append_source_run(index.runs, edges[i].src);
  index.runs.shrink_to_fit();
  index.segments = sorted_run_segments(index.runs);
  return index;
}

}  // namespace graphm::graph
