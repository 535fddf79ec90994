#include "shard/shard_store.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

#include "graph/datasets.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"
#include "util/annotations.hpp"

namespace graphm::shard {

namespace fs = std::filesystem;
using graph::Edge;

namespace {

constexpr std::uint32_t kMetaMagic = 0x53684431;  // "ShD1"

std::uint32_t file_id_for_path(const std::string& path) {
  static graphm::Mutex mutex;
  static std::unordered_map<std::string, std::uint32_t> ids;
  static std::atomic<std::uint32_t> counter{10000};  // distinct from grid ids
  graphm::MutexLock lock(mutex);
  auto [it, inserted] = ids.try_emplace(path, 0);
  if (inserted) it->second = counter.fetch_add(1);
  return it->second;
}

}  // namespace

std::uint64_t ShardStore::preprocess(const graph::EdgeList& graph, std::uint32_t num_shards,
                                     const std::string& path) {
  if (num_shards == 0) throw std::invalid_argument("ShardStore: num_shards == 0");
  util::Timer timer;

  storage::StoreMeta meta;
  meta.num_vertices = graph.num_vertices();
  meta.num_edges = graph.num_edges();
  meta.num_partitions = num_shards;
  meta.blocks_per_partition = 1;
  meta.partitions_by_source = false;
  meta.block_offsets.assign(num_shards, 0);
  meta.block_edges.assign(num_shards, 0);

  const graph::VertexId per =
      (graph.num_vertices() + num_shards - 1) / std::max<std::uint32_t>(1, num_shards);
  auto interval_of = [&](graph::VertexId v) {
    return per == 0 ? 0u : std::min<std::uint32_t>(num_shards - 1, v / per);
  };

  for (const Edge& e : graph.edges()) ++meta.block_edges[interval_of(e.dst)];
  std::uint64_t offset = 0;
  for (std::uint32_t s = 0; s < num_shards; ++s) {
    meta.block_offsets[s] = offset;
    offset += meta.block_edges[s] * sizeof(Edge);
  }

  // Bucket, then sort each shard by source (GraphChi's invariant).
  std::vector<Edge> data(graph.num_edges());
  std::vector<std::uint64_t> cursor(meta.block_offsets.begin(), meta.block_offsets.end());
  for (const Edge& e : graph.edges()) {
    std::uint64_t& cur = cursor[interval_of(e.dst)];
    data[cur / sizeof(Edge)] = e;
    cur += sizeof(Edge);
  }
  for (std::uint32_t s = 0; s < num_shards; ++s) {
    Edge* begin = data.data() + meta.block_offsets[s] / sizeof(Edge);
    std::stable_sort(begin, begin + meta.block_edges[s],
                     [](const Edge& a, const Edge& b) { return a.src < b.src; });
  }

  {
    std::FILE* f = std::fopen((path + ".data").c_str(), "wb");
    if (f == nullptr) throw std::runtime_error("ShardStore: cannot write " + path + ".data");
    if (!data.empty() && std::fwrite(data.data(), sizeof(Edge), data.size(), f) != data.size()) {
      std::fclose(f);
      throw std::runtime_error("ShardStore: short write " + path + ".data");
    }
    std::fclose(f);
  }
  meta.preprocess_ns = timer.elapsed_ns();
  {
    std::FILE* f = std::fopen((path + ".meta").c_str(), "wb");
    if (f == nullptr) throw std::runtime_error("ShardStore: cannot write " + path + ".meta");
    const std::uint32_t magic = kMetaMagic;
    std::fwrite(&magic, sizeof(magic), 1, f);
    std::fwrite(&meta.num_vertices, sizeof(meta.num_vertices), 1, f);
    std::fwrite(&meta.num_edges, sizeof(meta.num_edges), 1, f);
    std::fwrite(&meta.num_partitions, sizeof(meta.num_partitions), 1, f);
    std::fwrite(&meta.preprocess_ns, sizeof(meta.preprocess_ns), 1, f);
    std::fwrite(meta.block_offsets.data(), sizeof(std::uint64_t), num_shards, f);
    std::fwrite(meta.block_edges.data(), sizeof(std::uint64_t), num_shards, f);
    std::fclose(f);
  }
  {
    const auto degrees = graph.out_degrees();
    std::FILE* f = std::fopen((path + ".deg").c_str(), "wb");
    if (f == nullptr) throw std::runtime_error("ShardStore: cannot write " + path + ".deg");
    if (!degrees.empty() &&
        std::fwrite(degrees.data(), sizeof(std::uint32_t), degrees.size(), f) != degrees.size()) {
      std::fclose(f);
      throw std::runtime_error("ShardStore: short write " + path + ".deg");
    }
    std::fclose(f);
  }
  return meta.preprocess_ns;
}

ShardStore ShardStore::open(const std::string& path) {
  std::FILE* f = std::fopen((path + ".meta").c_str(), "rb");
  if (f == nullptr) throw std::runtime_error("ShardStore: cannot open " + path + ".meta");
  storage::StoreMeta meta;
  meta.blocks_per_partition = 1;
  meta.partitions_by_source = false;
  std::uint32_t magic = 0;
  bool ok = std::fread(&magic, sizeof(magic), 1, f) == 1 && magic == kMetaMagic;
  ok = ok && std::fread(&meta.num_vertices, sizeof(meta.num_vertices), 1, f) == 1;
  ok = ok && std::fread(&meta.num_edges, sizeof(meta.num_edges), 1, f) == 1;
  ok = ok && std::fread(&meta.num_partitions, sizeof(meta.num_partitions), 1, f) == 1;
  ok = ok && std::fread(&meta.preprocess_ns, sizeof(meta.preprocess_ns), 1, f) == 1;
  if (ok) {
    meta.block_offsets.resize(meta.num_partitions);
    meta.block_edges.resize(meta.num_partitions);
    ok = std::fread(meta.block_offsets.data(), sizeof(std::uint64_t), meta.num_partitions, f) ==
             meta.num_partitions &&
         std::fread(meta.block_edges.data(), sizeof(std::uint64_t), meta.num_partitions, f) ==
             meta.num_partitions;
  }
  std::fclose(f);
  if (!ok) throw std::runtime_error("ShardStore: corrupt meta " + path);
  return ShardStore(std::move(meta), path, file_id_for_path(path));
}

ShardStore::ShardStore(storage::StoreMeta meta, std::string path, std::uint32_t file_id)
    : meta_(std::move(meta)), path_(std::move(path)), file_id_(file_id) {
  data_file_ = std::make_shared<const storage::DataFile>(path_ + ".data");
}

std::uint64_t ShardStore::read_partition(std::uint32_t i, std::vector<Edge>& out,
                                         sim::Platform& platform, std::uint32_t job_id) const {
  const graph::EdgeCount count = meta_.partition_edges(i);
  out.resize(count);
  return read_edges(i, 0, count, out.data(), platform, job_id);
}

std::uint64_t ShardStore::read_edges(std::uint32_t i, graph::EdgeCount first_edge,
                                     graph::EdgeCount count, Edge* out, sim::Platform& platform,
                                     std::uint32_t job_id) const {
  if (count == 0) return 0;
  const std::uint64_t offset = meta_.partition_offset(i) + first_edge * sizeof(Edge);
  const std::uint64_t bytes = count * sizeof(Edge);
  if (!data_file_->read_at(offset, out, bytes)) {
    throw std::runtime_error("ShardStore: read failed on " + path_);
  }
  return platform.page_cache().read(file_id_, offset, bytes, job_id);
}

std::vector<std::uint32_t> ShardStore::load_out_degrees() const {
  std::vector<std::uint32_t> degrees(meta_.num_vertices, 0);
  std::FILE* f = std::fopen((path_ + ".deg").c_str(), "rb");
  if (f == nullptr) throw std::runtime_error("ShardStore: cannot open " + path_ + ".deg");
  const std::size_t got = std::fread(degrees.data(), sizeof(std::uint32_t), degrees.size(), f);
  std::fclose(f);
  if (got != degrees.size()) throw std::runtime_error("ShardStore: truncated " + path_ + ".deg");
  return degrees;
}

ShardStore open_dataset_shards(const std::string& dataset, std::uint32_t num_shards,
                               double scale) {
  const std::string edge_path = graph::dataset_path(dataset, scale);
  char suffix[64];
  std::snprintf(suffix, sizeof(suffix), "_%.4f_s%u.shard", scale, num_shards);
  const std::string shard_path =
      (fs::path(graph::dataset_cache_dir()) / (dataset + std::string(suffix))).string();

  static graphm::Mutex mutex;
  graphm::MutexLock lock(mutex);
  if (!fs::exists(shard_path + ".meta") || !fs::exists(shard_path + ".data")) {
    GRAPHM_INFO("preprocessing shards for " << dataset << " P=" << num_shards);
    ShardStore::preprocess(graph::EdgeList::load(edge_path), num_shards, shard_path);
  }
  return ShardStore::open(shard_path);
}

}  // namespace graphm::shard
