// Shared helpers for the per-figure/table bench harnesses.
//
// Every bench prints the same rows/series the paper reports plus a SHAPE
// line: a PASS/FAIL check of the qualitative claim (who wins, by roughly what
// factor). EXPERIMENTS.md records paper-vs-measured for each one.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "graph/datasets.hpp"
#include "grid/grid_store.hpp"
#include "runtime/executor.hpp"
#include "runtime/workloads.hpp"
#include "util/table_printer.hpp"

namespace graphm::bench {

/// Bench-wide dataset scale. GRAPHM_SCALE overrides; the default keeps the
/// full suite within a few minutes while preserving every in-memory vs
/// out-of-core relationship (the simulated platform scales with it).
inline double bench_scale() {
  const char* env = std::getenv("GRAPHM_SCALE");
  if (env != nullptr) {
    const double v = std::atof(env);
    if (v > 0.0 && v <= 1.0) return v;
  }
  return 0.25;
}

/// Number of partitions used by every grid bench (GridGraph's P).
inline constexpr std::uint32_t kPartitions = 8;

/// The platform the benches simulate, scaled alongside bench_scale() so the
/// Table-2 split (3 in-memory graphs, 2 out-of-core) is preserved.
inline sim::PlatformConfig bench_platform() {
  sim::PlatformConfig config;
  // The simulated LLC and memory shrink with the dataset scale so that the
  // paper's in-memory (LiveJ/Orkut/Twitter) vs out-of-core (UK-union/
  // Clueweb12) split survives scaling (sim/cost_model.hpp, graph/datasets.hpp).
  const double s = bench_scale();
  config.llc_bytes = std::max<std::size_t>(
      16 * 1024, static_cast<std::size_t>(256.0 * 1024 * s));
  config.llc_reserved_bytes = config.llc_bytes / 16;
  config.memory_bytes = std::max<std::size_t>(
      1 << 20, static_cast<std::size_t>(32.0 * 1024 * 1024 * s));
  // N of Formula 1: chunks sized so a handful of them plus the jobs'
  // vertex-value slices fit the (scaled) LLC together.
  config.num_cores = 4;
  return config;
}

inline std::vector<std::string> bench_datasets() {
  return {"livej_s", "orkut_s", "twitter_s", "ukunion_s", "clueweb_s"};
}

/// Fewer iterations/jobs for the two big graphs keeps the suite fast without
/// touching the comparisons (all schemes see identical job sets).
inline std::size_t bench_jobs_for(const std::string& dataset, std::size_t requested) {
  if (dataset == "clueweb_s" || dataset == "ukunion_s") {
    return std::min<std::size_t>(requested, 8);
  }
  return requested;
}

inline void print_shape(const std::string& claim, bool pass) {
  std::printf("SHAPE %-60s %s\n", claim.c_str(), pass ? "PASS" : "FAIL");
}

inline double seconds(std::uint64_t ns) { return static_cast<double>(ns) / 1e9; }

}  // namespace graphm::bench
