// Cost-model constants for the simulated platform.
//
// The paper evaluates on a 2-socket Xeon E5-2670 (2 x 20 MB LLC), 32 GB DRAM
// and a 1 TB HDD. Our synthetic datasets are ~1000x smaller than the paper's
// (see graph/datasets.hpp), so the simulated LLC and memory budget are scaled
// by the same factor to preserve the in-cache / in-memory / out-of-core splits
// that drive every result in the paper.
#pragma once

#include <cstddef>
#include <cstdint>

namespace graphm::sim {

struct PlatformConfig {
  // --- LLC model (scaled stand-in for 2 x 20 MB) ---
  std::size_t llc_bytes = 256 * 1024;
  std::size_t llc_ways = 16;
  std::size_t cache_line = 64;

  // --- Memory model (scaled stand-in for 32 GB) ---
  std::size_t memory_bytes = 32ull * 1024 * 1024;
  std::size_t page_bytes = 4096;

  // --- Disk model (HDD-like) ---
  double disk_bandwidth_bytes_per_s = 100.0 * 1024 * 1024;
  double disk_latency_s = 100e-6;

  // --- Network model (1-Gigabit Ethernet, for the simulated cluster) ---
  double net_bandwidth_bytes_per_s = 125.0 * 1024 * 1024;
  double net_latency_s = 50e-6;

  // --- Core model ---
  std::size_t num_cores = 16;

  // Space reserved in the LLC for code/stack/etc. (the `r` of Formula 1).
  std::size_t llc_reserved_bytes = 16 * 1024;
};

/// Virtual nanoseconds needed to move `bytes` over a channel with the given
/// bandwidth (bytes/s) and per-request latency (s).
inline std::uint64_t transfer_ns(std::size_t bytes, double bandwidth, double latency) {
  const double seconds = latency + static_cast<double>(bytes) / bandwidth;
  return static_cast<std::uint64_t>(seconds * 1e9);
}

}  // namespace graphm::sim
