// Deterministic synthetic graph generators.
//
// The paper's public crawls (LiveJ, Orkut, Twitter, UK-union, Clueweb12) are
// not shippable. Scaled RMAT / Chung-Lu / Erdős–Rényi stand-ins (datasets.hpp,
// with the platform scaled alike in sim/cost_model.hpp) preserve the degree
// skew and the size relative to LLC/memory that GraphM's results depend on.
#pragma once

#include <cstdint>

#include "graph/edge_list.hpp"

namespace graphm::graph {

struct RmatParams {
  double a = 0.57;
  double b = 0.19;
  double c = 0.19;  // d = 1 - a - b - c
};

/// Recursive-matrix (Kronecker-like) generator: power-law out-degrees,
/// community structure. num_vertices is rounded up to a power of two
/// internally; emitted vertex ids stay < num_vertices.
EdgeList generate_rmat(VertexId num_vertices, EdgeCount num_edges, std::uint64_t seed,
                       const RmatParams& params = RmatParams{});

/// Uniform G(n, m) graph.
EdgeList generate_erdos_renyi(VertexId num_vertices, EdgeCount num_edges, std::uint64_t seed);

/// Chung–Lu graph with Zipf(exponent) expected degrees — a denser, less
/// skewed power-law than RMAT (our Orkut stand-in).
EdgeList generate_chung_lu(VertexId num_vertices, EdgeCount num_edges, double exponent,
                           std::uint64_t seed);

/// Directed cycle plus chords — a tiny deterministic graph for unit tests.
EdgeList generate_ring(VertexId num_vertices, VertexId chord_stride = 0);

/// Random weights in [lo, hi) for SSSP; deterministic given seed.
void randomize_weights(EdgeList& graph, float lo, float hi, std::uint64_t seed);

}  // namespace graphm::graph
