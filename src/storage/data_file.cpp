#include "storage/data_file.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <stdexcept>

namespace graphm::storage {

DataFile::DataFile(const std::string& path) : fd_(::open(path.c_str(), O_RDONLY | O_CLOEXEC)) {
  if (fd_ < 0) throw std::runtime_error("DataFile: cannot open " + path);
}

DataFile::~DataFile() { ::close(fd_); }

bool DataFile::read_at(std::uint64_t offset, void* out, std::size_t bytes) const {
  auto* dst = static_cast<char*>(out);
  while (bytes != 0) {
    const ssize_t got = ::pread(fd_, dst, bytes, static_cast<off_t>(offset));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return false;
    dst += got;
    offset += static_cast<std::uint64_t>(got);
    bytes -= static_cast<std::size_t>(got);
  }
  return true;
}

}  // namespace graphm::storage
