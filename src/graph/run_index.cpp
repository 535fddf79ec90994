#include "graph/run_index.hpp"

#include <stdexcept>
#include <string>

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

RunIndex restore_run_index(std::vector<SourceRun> runs, EdgeCount edge_count,
                           VertexId num_vertices) {
  EdgeCount next = 0;
  for (std::size_t r = 0; r < runs.size(); ++r) {
    const SourceRun& run = runs[r];
    const char* fault = run.begin != next         ? "does not begin where the last one ended"
                        : run.count == 0          ? "is empty"
                        : run.src >= num_vertices ? "has a source beyond the vertex range"
                                                  : nullptr;
    if (fault != nullptr) throw std::runtime_error("run " + std::to_string(r) + " " + fault);
    next += run.count;
  }
  if (next != edge_count) {
    throw std::runtime_error("runs cover " + std::to_string(next) + " edges, not " +
                             std::to_string(edge_count));
  }
  RunIndex index;
  index.runs = std::move(runs);
  index.segments = sorted_run_segments(index.runs);
  return index;
}

RunWindow window_runs(const RunIndex& index, EdgeCount begin, EdgeCount end) {
  // Runs tile the stream, so both their starts and their ends ascend.
  const auto ends_by = [](const SourceRun& r, EdgeCount e) {
    return EdgeCount{r.begin} + r.count <= e;
  };
  const auto starts_before = [](const SourceRun& r, EdgeCount e) { return r.begin < e; };
  const std::vector<SourceRun>& runs = index.runs;
  const auto first = std::lower_bound(runs.begin(), runs.end(), begin, ends_by);
  const auto last = begin < end ? std::lower_bound(first, runs.end(), end, starts_before) : first;
  return {static_cast<std::uint32_t>(first - runs.begin()),
          static_cast<std::uint32_t>(last - runs.begin())};
}

}  // namespace graphm::graph
