// Table 3: preprocessing time of GridGraph vs GridGraph-M (grid conversion
// plus GraphM's chunk labelling) and GraphM's extra space overhead.
// Paper: labelling adds ~4% (in-memory graphs) to ~16% (out-of-core), and
// chunk tables occupy 5.5%-19.2% of the original graph size. Here the
// chunk_tables' content is the store's source-run index, built over each
// sorted row during the conversion and written beside the grid, so it costs
// no second pass over the graph; GraphM's init only cuts chunk boundaries.
#include "bench_support.hpp"

#include "graphm/graphm.hpp"

using namespace graphm;
using namespace graphm::bench;

int main() {
  util::TablePrinter table("Table 3: preprocessing time (seconds) and GraphM space overhead");
  table.set_header({"dataset", "GridGraph", "GridGraph-M", "overhead %", "tables MB",
                    "space %"});

  bool overhead_small = true;
  bool space_in_band = true;
  for (const std::string& dataset : bench_datasets()) {
    const double scale = bench_scale();
    const grid::GridStore store = grid::open_dataset_grid(dataset, kPartitions, scale);
    const double graph_bytes =
        static_cast<double>(store.meta().num_edges) * sizeof(graph::Edge);

    // The paper's conversion runs against a 1 TB HDD: the original edges are
    // read and the P x P block streams written back, at seek-degraded
    // bandwidth. Our measured conversion is in-memory, so the disk part is
    // charged through the platform's cost model (sim/cost_model.hpp).
    // Note: since the block-batched streaming PR the measured conversion also
    // source-groups each block (GridStore::preprocess src_sort) — a real cost
    // of our grid format that the paper's GridGraph did not pay. It is a few
    // percent of the modeled disk term below, so the baseline row is not
    // materially inflated.
    const double kConversionDiskBw = 25.0 * 1024 * 1024;  // block-stream writes seek
    const double conv_disk_s =
        2.0 * graph_bytes / kConversionDiskBw;  // read original + write grid
    const double grid_s = seconds(store.meta().preprocess_ns) + conv_disk_s;

    // GridGraph-M adds the index's measured build and write
    // (meta.index_ns, excluded from preprocess_ns), its sequential write to
    // the modeled disk, and init's chunk cutting, which reads nothing.
    sim::Platform platform(bench_platform());
    core::GraphM graphm(store, platform);
    const double init_s = seconds(graphm.init());
    const double index_disk_s = static_cast<double>(store.meta().source_runs_bytes()) /
                                platform.config().disk_bandwidth_bytes_per_s;
    const double label_s = seconds(store.meta().index_ns) + index_disk_s + init_s;
    const double total_s = grid_s + label_s;

    const double graph_mb = graph_bytes / 1e6;
    const double tables_mb = static_cast<double>(graphm.metadata_bytes()) / 1e6;
    const double overhead_pct = 100.0 * label_s / std::max(grid_s, 1e-9);
    const double space_pct = 100.0 * tables_mb / graph_mb;

    table.add_row({dataset, util::TablePrinter::fmt(grid_s, 3),
                   util::TablePrinter::fmt(total_s, 3),
                   util::TablePrinter::fmt(overhead_pct, 1),
                   util::TablePrinter::fmt(tables_mb, 2),
                   util::TablePrinter::fmt(space_pct, 1)});
    overhead_small = overhead_small && overhead_pct < 35.0;
    space_in_band = space_in_band && space_pct > 1.0 && space_pct < 60.0;
  }
  table.print();
  print_shape("labelling adds <35% to preprocessing (paper: 4-16%)", overhead_small);
  print_shape("chunk-table space is a small fraction of the graph", space_in_band);
  return 0;
}
