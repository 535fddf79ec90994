// Fundamental graph types shared by every engine in the repository.
#pragma once

#include <cstdint>
#include <limits>

namespace graphm::graph {

using VertexId = std::uint32_t;
using EdgeCount = std::uint64_t;

inline constexpr VertexId kInvalidVertex = std::numeric_limits<VertexId>::max();

/// On-disk and in-memory edge record. 12 bytes, matching GridGraph's layout
/// (src, dst, weight); the weight is ignored by unweighted algorithms.
struct Edge {
  VertexId src = 0;
  VertexId dst = 0;
  float weight = 1.0f;

  friend bool operator==(const Edge&, const Edge&) = default;
};
static_assert(sizeof(Edge) == 12, "Edge must stay 12 bytes (grid file format)");

}  // namespace graphm::graph
