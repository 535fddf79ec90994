// Table 2: properties of the dataset stand-ins (graph/datasets.hpp maps each
// to the paper's graph; sim/cost_model.hpp explains the scaling).
#include "bench_support.hpp"

using namespace graphm;
using namespace graphm::bench;

int main() {
  const double scale = bench_scale();
  util::TablePrinter table("Table 2: graph datasets (stand-ins at scale " +
                           util::TablePrinter::fmt(scale, 2) + ")");
  table.set_header({"dataset", "paper analogue", "vertices", "edges", "size MB",
                    "max out-deg", "in sim-memory?"});

  const std::size_t memory_budget = bench_platform().memory_bytes;
  bool split_matches = true;
  for (const auto& spec : graph::dataset_specs()) {
    const auto g = graph::load_dataset(spec.name, scale);
    const double mb = static_cast<double>(g.data_bytes()) / 1e6;
    const bool fits = g.data_bytes() <= memory_budget;
    table.add_row({spec.name, spec.paper_name, std::to_string(g.num_vertices()),
                   std::to_string(g.num_edges()), util::TablePrinter::fmt(mb, 1),
                   std::to_string(g.max_out_degree()), fits ? "yes" : "no"});
    split_matches = split_matches && fits == spec.fits_in_memory;
  }
  table.print();
  std::printf("simulated memory budget: %.1f MB\n", memory_budget / 1e6);
  print_shape("in-memory/out-of-core split matches the paper's Table 2", split_matches);
  return 0;
}
