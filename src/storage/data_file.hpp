// A read-only data file read with positional reads.
//
// `pread` takes its offset per call and never moves a shared file position,
// so any number of jobs, on the same store or on different ones, read
// partitions concurrently without a lock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace graphm::storage {

class DataFile {
 public:
  /// Opens `path` read-only; throws std::runtime_error when it cannot.
  explicit DataFile(const std::string& path);
  ~DataFile();
  DataFile(const DataFile&) = delete;
  DataFile& operator=(const DataFile&) = delete;

  /// Reads exactly `bytes` bytes at `offset` into `out`, retrying short
  /// reads and EINTR. Returns false on a read error or when the file ends
  /// first.
  [[nodiscard]] bool read_at(std::uint64_t offset, void* out, std::size_t bytes) const;

 private:
  int fd_;
};

}  // namespace graphm::storage
