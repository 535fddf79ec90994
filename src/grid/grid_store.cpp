#include "grid/grid_store.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

#include "graph/datasets.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"
#include "util/annotations.hpp"

namespace graphm::grid {

namespace fs = std::filesystem;

namespace {

constexpr std::uint32_t kMetaMagic = 0x47724431;  // "GrD1"

std::uint32_t next_file_id() {
  static std::atomic<std::uint32_t> counter{1};
  return counter.fetch_add(1);
}

// The simulated page cache keys pages by (file_id, page); file ids must be
// stable per path within a process so -S/-C/-M schemes contend for the same
// simulated pages.
std::uint32_t file_id_for_path(const std::string& path) {
  static graphm::Mutex mutex;
  static std::unordered_map<std::string, std::uint32_t> ids;
  graphm::MutexLock lock(mutex);
  auto [it, inserted] = ids.try_emplace(path, 0);
  if (inserted) it->second = next_file_id();
  return it->second;
}

}  // namespace

std::uint64_t GridStore::preprocess(const graph::EdgeList& graph, std::uint32_t num_partitions,
                                    const std::string& path, bool src_sort) {
  if (num_partitions == 0) throw std::invalid_argument("GridStore: num_partitions == 0");
  util::Timer timer;

  GridMeta meta;
  meta.num_vertices = graph.num_vertices();
  meta.num_edges = graph.num_edges();
  meta.num_partitions = num_partitions;
  meta.blocks_per_partition = num_partitions;  // P columns per row
  const std::size_t cells = static_cast<std::size_t>(num_partitions) * num_partitions;
  meta.block_offsets.assign(cells, 0);
  meta.block_edges.assign(cells, 0);

  // Counting pass.
  for (const Edge& e : graph.edges()) {
    const std::uint32_t i = meta.partition_of(e.src);
    const std::uint32_t j = meta.partition_of(e.dst);
    ++meta.block_edges[meta.block_index(i, j)];
  }
  std::uint64_t offset = 0;
  for (std::size_t c = 0; c < cells; ++c) {
    meta.block_offsets[c] = offset;
    offset += meta.block_edges[c] * sizeof(Edge);
  }

  // Bucketing pass (in memory, then one sequential write).
  std::vector<Edge> data(graph.num_edges());
  std::vector<std::uint64_t> cursor(meta.block_offsets.begin(), meta.block_offsets.end());
  for (const Edge& e : graph.edges()) {
    const std::uint32_t i = meta.partition_of(e.src);
    const std::uint32_t j = meta.partition_of(e.dst);
    std::uint64_t& cur = cursor[meta.block_index(i, j)];
    data[cur / sizeof(Edge)] = e;
    cur += sizeof(Edge);
  }
  // Group each block's edges by source (stable, so the dst-block structure
  // and the relative order of one source's edges survive). Source-grouped
  // blocks give the engines long source runs: a frontier word then covers 64
  // consecutive sources and an inactive source's edges are skipped without
  // being read.
  if (src_sort) {
    for (std::size_t c = 0; c < cells; ++c) {
      Edge* begin = data.data() + meta.block_offsets[c] / sizeof(Edge);
      std::stable_sort(begin, begin + meta.block_edges[c],
                       [](const Edge& a, const Edge& b) { return a.src < b.src; });
    }
  }

  // Persisting the grid is part of the conversion the paper's Table 3 times.
  {
    std::FILE* f = std::fopen((path + ".data").c_str(), "wb");
    if (f == nullptr) throw std::runtime_error("GridStore: cannot write " + path + ".data");
    if (!data.empty() && std::fwrite(data.data(), sizeof(Edge), data.size(), f) != data.size()) {
      std::fclose(f);
      throw std::runtime_error("GridStore: short write " + path + ".data");
    }
    std::fclose(f);
  }
  meta.preprocess_ns = timer.elapsed_ns();
  {
    std::FILE* f = std::fopen((path + ".meta").c_str(), "wb");
    if (f == nullptr) throw std::runtime_error("GridStore: cannot write " + path + ".meta");
    const std::uint32_t magic = kMetaMagic;
    std::fwrite(&magic, sizeof(magic), 1, f);
    std::fwrite(&meta.num_vertices, sizeof(meta.num_vertices), 1, f);
    std::fwrite(&meta.num_edges, sizeof(meta.num_edges), 1, f);
    std::fwrite(&meta.num_partitions, sizeof(meta.num_partitions), 1, f);
    std::fwrite(&meta.preprocess_ns, sizeof(meta.preprocess_ns), 1, f);
    std::fwrite(meta.block_offsets.data(), sizeof(std::uint64_t), cells, f);
    std::fwrite(meta.block_edges.data(), sizeof(std::uint64_t), cells, f);
    std::fclose(f);
  }
  {
    const auto degrees = graph.out_degrees();
    std::FILE* f = std::fopen((path + ".deg").c_str(), "wb");
    if (f == nullptr) throw std::runtime_error("GridStore: cannot write " + path + ".deg");
    if (!degrees.empty() &&
        std::fwrite(degrees.data(), sizeof(std::uint32_t), degrees.size(), f) != degrees.size()) {
      std::fclose(f);
      throw std::runtime_error("GridStore: short write " + path + ".deg");
    }
    std::fclose(f);
  }
  return meta.preprocess_ns;
}

GridStore GridStore::open(const std::string& path) {
  std::FILE* f = std::fopen((path + ".meta").c_str(), "rb");
  if (f == nullptr) throw std::runtime_error("GridStore: cannot open " + path + ".meta");
  GridMeta meta;
  std::uint32_t magic = 0;
  bool ok = std::fread(&magic, sizeof(magic), 1, f) == 1 && magic == kMetaMagic;
  ok = ok && std::fread(&meta.num_vertices, sizeof(meta.num_vertices), 1, f) == 1;
  ok = ok && std::fread(&meta.num_edges, sizeof(meta.num_edges), 1, f) == 1;
  ok = ok && std::fread(&meta.num_partitions, sizeof(meta.num_partitions), 1, f) == 1;
  ok = ok && std::fread(&meta.preprocess_ns, sizeof(meta.preprocess_ns), 1, f) == 1;
  if (ok) {
    meta.blocks_per_partition = meta.num_partitions;
    const std::size_t cells = static_cast<std::size_t>(meta.num_partitions) * meta.num_partitions;
    meta.block_offsets.resize(cells);
    meta.block_edges.resize(cells);
    ok = std::fread(meta.block_offsets.data(), sizeof(std::uint64_t), cells, f) == cells &&
         std::fread(meta.block_edges.data(), sizeof(std::uint64_t), cells, f) == cells;
  }
  std::fclose(f);
  if (!ok) throw std::runtime_error("GridStore: corrupt meta " + path);
  return GridStore(std::move(meta), path, file_id_for_path(path));
}

GridStore::GridStore(GridMeta meta, std::string path, std::uint32_t file_id)
    : meta_(std::move(meta)), path_(std::move(path)), file_id_(file_id) {
  data_file_ = std::make_shared<const storage::DataFile>(path_ + ".data");
}

std::uint64_t GridStore::read_partition(std::uint32_t i, std::vector<Edge>& out,
                                        sim::Platform& platform, std::uint32_t job_id) const {
  const EdgeCount count = meta_.partition_edges(i);
  out.resize(count);
  return read_edges(i, 0, count, out.data(), platform, job_id);
}

std::uint64_t GridStore::read_edges(std::uint32_t i, EdgeCount first_edge, EdgeCount count,
                                    Edge* out, sim::Platform& platform,
                                    std::uint32_t job_id) const {
  if (count == 0) return 0;
  const std::uint64_t offset = meta_.partition_offset(i) + first_edge * sizeof(Edge);
  const std::uint64_t bytes = count * sizeof(Edge);

  // Real read (the data must actually flow — algorithms consume it).
  if (!data_file_->read_at(offset, out, bytes)) {
    throw std::runtime_error("GridStore: read failed on " + path_);
  }

  // Simulated cost.
  return platform.page_cache().read(file_id_, offset, bytes, job_id);
}

std::vector<std::uint32_t> GridStore::load_out_degrees() const {
  std::vector<std::uint32_t> degrees(meta_.num_vertices, 0);
  std::FILE* f = std::fopen((path_ + ".deg").c_str(), "rb");
  if (f == nullptr) throw std::runtime_error("GridStore: cannot open " + path_ + ".deg");
  const std::size_t got = std::fread(degrees.data(), sizeof(std::uint32_t), degrees.size(), f);
  std::fclose(f);
  if (got != degrees.size()) throw std::runtime_error("GridStore: truncated " + path_ + ".deg");
  return degrees;
}

GridStore open_dataset_grid(const std::string& dataset, std::uint32_t num_partitions,
                            double scale) {
  const std::string edge_path = graph::dataset_path(dataset, scale);
  char suffix[64];
  std::snprintf(suffix, sizeof(suffix), "_%.4f_p%u.grid", scale, num_partitions);
  const std::string grid_path =
      (fs::path(graph::dataset_cache_dir()) / (dataset + std::string(suffix))).string();

  static graphm::Mutex mutex;
  graphm::MutexLock lock(mutex);
  if (!fs::exists(grid_path + ".meta") || !fs::exists(grid_path + ".data")) {
    GRAPHM_INFO("preprocessing grid for " << dataset << " P=" << num_partitions);
    GridStore::preprocess(graph::EdgeList::load(edge_path), num_partitions, grid_path);
  }
  return GridStore::open(grid_path);
}

}  // namespace graphm::grid
