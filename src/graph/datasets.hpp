// Registry of the Table-2 dataset stand-ins, about 1000x smaller than the
// paper's graphs; sim/cost_model.hpp scales the simulated platform to match.
//
// Each dataset is generated deterministically on first use and cached as an
// edge-list binary under a cache directory, so every bench and test sees the
// exact same graphs. `scale` in (0, 1] shrinks vertices and edges together
// (used by the quick test configurations); scale 1 is the default bench size.
#pragma once

#include <string>
#include <vector>

#include "graph/edge_list.hpp"

namespace graphm::graph {

struct DatasetSpec {
  std::string name;          // e.g. "livej_s"
  std::string paper_name;    // e.g. "LiveJ (4.8M/69M)"
  VertexId num_vertices;
  EdgeCount num_edges;
  bool fits_in_memory;       // w.r.t. the simulated 32 MiB budget at scale 1
};

/// The five stand-ins, in the paper's Table 2 order.
const std::vector<DatasetSpec>& dataset_specs();

/// Spec lookup by name; throws on unknown name.
const DatasetSpec& dataset_spec(const std::string& name);

/// Directory where generated datasets are cached (honours GRAPHM_CACHE_DIR,
/// defaults to <tmp>/graphm_datasets). Created on demand.
std::string dataset_cache_dir();

/// Returns the dataset, generating and caching it if needed. Weights are
/// randomized in [1, 64) so SSSP is meaningful.
EdgeList load_dataset(const std::string& name, double scale = 1.0);

/// Path of the cached edge-list file for (name, scale); generates on miss.
std::string dataset_path(const std::string& name, double scale = 1.0);

/// Reads GRAPHM_SCALE from the environment (default 1.0, clamped to (0,1]).
double env_scale();

}  // namespace graphm::graph
