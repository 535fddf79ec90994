#include "storage/store_files.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "graph/datasets.hpp"
#include "util/annotations.hpp"

namespace graphm::storage {

/// <path>.data opened read-only. `pread` takes its offset per call and never
/// moves a shared file position, so any number of jobs, on the same store or
/// on different ones, read partitions concurrently without a lock.
class DataFile {
 public:
  explicit DataFile(const std::string& name) : fd_(::open(name.c_str(), O_RDONLY | O_CLOEXEC)) {
    if (fd_ < 0) throw std::runtime_error("cannot open " + name);
  }
  DataFile(const DataFile&) = delete;
  DataFile& operator=(const DataFile&) = delete;
  ~DataFile() { ::close(fd_); }

  /// Reads exactly `bytes` bytes at `offset`, retrying short reads and
  /// EINTR. Returns false on a read error or when the file ends first.
  bool read_at(std::uint64_t offset, void* out, std::size_t bytes) const {
    for (auto* dst = static_cast<char*>(out); bytes != 0;) {
      const ssize_t got = ::pread(fd_, dst, bytes, static_cast<off_t>(offset));
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) return false;
      dst += got;
      offset += static_cast<std::uint64_t>(got);
      bytes -= static_cast<std::size_t>(got);
    }
    return true;
  }

 private:
  int fd_;
};

namespace {

/// A store file opened for writing or reading; every transfer must be
/// complete. A written file not closed successfully is removed, so no
/// truncated file is left for a later open to call corrupt.
class File {
 public:
  File(std::string name, bool writing)
      : name_(std::move(name)), writing_(writing),
        file_(std::fopen(name_.c_str(), writing ? "wb" : "rb")) {
    if (file_ == nullptr) fail(writing ? "cannot write" : "cannot open");
  }
  File(const File&) = delete;
  File& operator=(const File&) = delete;
  ~File() {
    if (file_ == nullptr) return;
    std::fclose(file_);
    if (writing_) std::remove(name_.c_str());
  }

  template <typename T>
  void put(const T* values, std::size_t count) {
    if (count != 0 && std::fwrite(values, sizeof(T), count, file_) != count) fail("short write to");
  }
  template <typename T>
  void put(const T& value) { put(&value, 1); }
  template <typename T>
  void put(const std::vector<T>& values) { put(values.data(), values.size()); }

  template <typename T>
  void get(T* values, std::size_t count) {
    if (count != 0 && std::fread(values, sizeof(T), count, file_) != count) fail("truncated");
  }
  template <typename T>
  T get() {
    T value{};
    get(&value, 1);
    return value;
  }

  /// A read file must end here; a written one is flushed here, which is
  /// where a full disk often shows.
  void close() {
    if (!writing_ && std::fgetc(file_) != EOF) fail("trailing bytes in");
    std::FILE* file = std::exchange(file_, nullptr);
    if (std::fclose(file) != 0 && writing_) {
      std::remove(name_.c_str());
      fail("cannot finish writing");
    }
  }

  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error(what + " " + name_);
  }

 private:
  std::string name_;
  bool writing_;
  std::FILE* file_;
};

// The simulated page cache keys pages by (file_id, page): ids are stable per
// path so -S/-C/-M schemes contend for the same simulated pages.
std::uint32_t file_id_for_path(const std::string& path) {
  static graphm::Mutex mutex;
  static std::unordered_map<std::string, std::uint32_t> ids;
  graphm::MutexLock lock(mutex);
  return ids.try_emplace(path, static_cast<std::uint32_t>(ids.size() + 1)).first->second;
}

}  // namespace

void write_store(const std::string& path, std::uint32_t magic, const graph::EdgeList& graph,
                 const std::vector<graph::Edge>& data, StoreMeta& meta,
                 const util::Timer& conversion) {
  File edges(path + ".data", true);
  edges.put(data);
  edges.close();
  // Persisting the stream is part of the conversion the paper's Table 3
  // times; the index is GraphM's extra preprocessing on top of it.
  meta.preprocess_ns = conversion.elapsed_ns();

  const util::Timer index_timer;
  File runs(path + ".runs", true);
  meta.source_runs.clear();
  for (std::uint32_t p = 0; p < meta.num_partitions; ++p) {
    const graph::Edge* first = data.data() + meta.partition_offset(p) / sizeof(graph::Edge);
    meta.source_runs.push_back(graph::index_runs(first, meta.partition_edges(p)));
    runs.put(static_cast<std::uint64_t>(meta.source_runs.back().runs.size()));
    runs.put(meta.source_runs.back().runs);
  }
  runs.close();
  meta.index_ns = index_timer.elapsed_ns();

  File header(path + ".meta", true);
  header.put(magic);
  header.put(meta.num_vertices);
  header.put(meta.num_edges);
  header.put(meta.num_partitions);
  header.put(meta.blocks_per_partition);
  header.put(static_cast<std::uint8_t>(meta.partitions_by_source));
  header.put(meta.preprocess_ns);
  header.put(meta.index_ns);
  header.put(meta.block_offsets);
  header.put(meta.block_edges);
  header.close();

  File degrees(path + ".deg", true);
  degrees.put(graph.out_degrees());
  degrees.close();
}

std::string cached_dataset_store(
    const std::string& dataset, double scale, const std::string& suffix,
    const std::function<void(const graph::EdgeList&, const std::string&)>& preprocess) {
  char scale_tag[32];
  std::snprintf(scale_tag, sizeof(scale_tag), "_%.4f", scale);
  const std::string path =
      (std::filesystem::path(graph::dataset_cache_dir()) / (dataset + scale_tag + suffix)).string();
  static graphm::Mutex mutex;
  graphm::MutexLock lock(mutex);
  for (const char* file : {".meta", ".data", ".runs", ".deg"}) {
    if (!std::filesystem::exists(path + file)) {
      preprocess(graph::EdgeList::load(graph::dataset_path(dataset, scale)), path);
      break;
    }
  }
  return path;
}

FileStore::FileStore(std::string path, std::uint32_t magic)
    : path_(std::move(path)), file_id_(file_id_for_path(path_)) {
  File header(path_ + ".meta", false);
  if (header.get<std::uint32_t>() != magic) header.fail("wrong format in");
  meta_.num_vertices = header.get<graph::VertexId>();
  meta_.num_edges = header.get<graph::EdgeCount>();
  meta_.num_partitions = header.get<std::uint32_t>();
  meta_.blocks_per_partition = header.get<std::uint32_t>();
  meta_.partitions_by_source = header.get<std::uint8_t>() != 0;
  meta_.preprocess_ns = header.get<std::uint64_t>();
  meta_.index_ns = header.get<std::uint64_t>();
  // Checked before sizing the arrays, against an absurd allocation.
  const std::uint64_t cells = std::uint64_t{meta_.num_partitions} * meta_.blocks_per_partition;
  if (cells == 0 || cells > std::filesystem::file_size(path_ + ".meta")) {
    header.fail("bad partition layout in");
  }
  meta_.block_offsets.resize(cells);
  meta_.block_edges.resize(cells);
  header.get(meta_.block_offsets.data(), cells);
  header.get(meta_.block_edges.data(), cells);
  header.close();
  graph::EdgeCount total = 0;
  for (const std::uint64_t count : meta_.block_edges) total += count;
  if (total != meta_.num_edges) header.fail("blocks do not add up to the edge count in");

  File runs(path_ + ".runs", false);
  for (std::uint32_t p = 0; p < meta_.num_partitions; ++p) {
    const graph::EdgeCount edges = meta_.partition_edges(p);
    const std::string where = "partition " + std::to_string(p) + " of";
    // Every run holds at least one edge.
    const auto count = runs.get<std::uint64_t>();
    if (count > edges) runs.fail("too many runs in " + where);
    std::vector<graph::SourceRun> stored(count);
    runs.get(stored.data(), count);
    try {
      meta_.source_runs.push_back(
          graph::restore_run_index(std::move(stored), edges, meta_.num_vertices));
    } catch (const std::runtime_error& e) {
      runs.fail(e.what() + (" in " + where));
    }
  }
  runs.close();
  data_file_ = std::make_shared<const DataFile>(path_ + ".data");
}

std::uint64_t FileStore::read_partition(std::uint32_t i, std::vector<graph::Edge>& out,
                                        sim::Platform& platform, std::uint32_t job_id) const {
  out.resize(meta_.partition_edges(i));
  return read_edges(i, 0, out.size(), out.data(), platform, job_id);
}

std::uint64_t FileStore::read_edges(std::uint32_t i, graph::EdgeCount first_edge,
                                    graph::EdgeCount count, graph::Edge* out,
                                    sim::Platform& platform, std::uint32_t job_id) const {
  if (count == 0) return 0;
  const std::uint64_t offset = meta_.partition_offset(i) + first_edge * sizeof(graph::Edge);
  const std::uint64_t bytes = count * sizeof(graph::Edge);
  // The real read (algorithms consume the data), then the simulated cost.
  if (!data_file_->read_at(offset, out, bytes)) {
    throw std::runtime_error("read failed on " + path_ + ".data");
  }
  return platform.page_cache().read(file_id_, offset, bytes, job_id);
}

std::vector<std::uint32_t> FileStore::load_out_degrees() const {
  std::vector<std::uint32_t> degrees(meta_.num_vertices, 0);
  File in(path_ + ".deg", false);
  in.get(degrees.data(), degrees.size());
  in.close();
  return degrees;
}

}  // namespace graphm::storage
