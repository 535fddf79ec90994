// google-benchmark microbenchmarks of GraphM's core primitives: chunk
// labelling (Algorithm 1), the LLC/page-cache simulators, the Formula-5
// priority computation and raw edge streaming — plus the streaming-path
// comparison this repo's perf trajectory is tracked by: scalar per-edge vs
// block-batched vs block+pool streaming on a fig09-style 16-job concurrent
// mix, written to BENCH_stream.json (override the path with
// GRAPHM_BENCH_OUT).
//
// Run with no arguments to execute the stream comparison and emit the JSON;
// pass any google-benchmark flag (e.g. --benchmark_filter=.) to also run the
// registered microbenchmarks.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "graph/generators.hpp"
#include "graphm/chunk_table.hpp"
#include "graphm/scheduler.hpp"
#include "grid/grid_store.hpp"
#include "runtime/executor.hpp"
#include "runtime/workloads.hpp"
#include "sim/cache_sim.hpp"
#include "sim/page_cache.hpp"
#include "util/bitmap.hpp"

namespace {

using namespace graphm;

const graph::EdgeList& bench_graph() {
  static const graph::EdgeList g = graph::generate_rmat(1 << 14, 1 << 18, 99);
  return g;
}

void BM_LabelPartition(benchmark::State& state) {
  const auto& g = bench_graph();
  const std::size_t chunk_bytes = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto table = core::label_partition(g.edges().data(), g.num_edges(), chunk_bytes);
    benchmark::DoNotOptimize(table);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_edges()));
}
BENCHMARK(BM_LabelPartition)->Arg(4096)->Arg(65536)->Arg(1 << 20);

void BM_ActiveEdges(benchmark::State& state) {
  const auto& g = bench_graph();
  const auto table = core::label_partition(g.edges().data(), g.num_edges(), 16384);
  util::AtomicBitmap active(g.num_vertices());
  for (std::size_t v = 0; v < g.num_vertices(); v += 3) active.set(v);
  for (auto _ : state) {
    std::uint64_t total = 0;
    for (const auto& chunk : table.chunks) total += chunk.active_edges(active);
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_ActiveEdges);

void BM_CacheSimStream(benchmark::State& state) {
  sim::CacheSim cache(256 * 1024, 16, 64);
  const std::size_t bytes = 1 << 20;
  for (auto _ : state) {
    cache.access_range(0x100000, bytes, 0);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_CacheSimStream);

// The shape the engine charges under -M: every job of a sharing group charges
// the same chunk of the shared buffer plus its own 16-line hot set (frontier
// words and engine state, fixed per job). 4 jobs share each 240-line chunk on
// the default 256-set, 16-way LLC. The stats read waits for the applier, so
// the timed work is the model's (wall time, since it runs on the applier
// thread), and items/s is records applied per second.
void BM_CacheSimSharedChunks(benchmark::State& state) {
  constexpr std::uint32_t kJobs = 4;
  constexpr std::uint64_t kLine = 64;
  constexpr std::uint64_t kChunkBytes = 240 * kLine;
  constexpr std::uint64_t kHotBytes = 16 * kLine;
  constexpr std::uint64_t kBuffer = 0x10000000;
  constexpr std::uint64_t kBufferBytes = 64ULL << 20;
  constexpr std::uint64_t kHot = 0x40000000;
  constexpr std::uint64_t kHotStride = 1 << 20;
  sim::CacheSim cache(256 * 1024, 16, kLine);
  std::uint64_t offset = 0;
  for (auto _ : state) {
    for (std::uint32_t job = 0; job < kJobs; ++job) {
      cache.access_range(kBuffer + offset, kChunkBytes, job);
      cache.access_range(kHot + job * kHotStride, kHotBytes, job);
    }
    benchmark::DoNotOptimize(cache.total_stats());
    offset = (offset + kChunkBytes) % kBufferBytes;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 * kJobs);
}
BENCHMARK(BM_CacheSimSharedChunks)->UseRealTime();

void BM_PageCacheRead(benchmark::State& state) {
  sim::PageCacheSim cache(32 << 20, 4096, 100e6, 1e-4);
  std::uint64_t offset = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.read(1, offset, 1 << 16, 0));
    offset = (offset + (1 << 16)) % (64 << 20);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * (1 << 16));
}
BENCHMARK(BM_PageCacheRead);

void BM_LoadingOrder(benchmark::State& state) {
  core::GlobalTable table;
  for (core::PartitionId p = 0; p < 64; ++p) {
    for (core::JobId j = 0; j < 16; ++j) {
      if ((p + j) % 3 == 0) table[p].insert(j);
    }
  }
  for (auto _ : state) {
    auto order = core::loading_order(table, true);
    benchmark::DoNotOptimize(order);
  }
}
BENCHMARK(BM_LoadingOrder);

void BM_EdgeStreamGated(benchmark::State& state) {
  const auto& g = bench_graph();
  util::AtomicBitmap active(g.num_vertices());
  active.set_all();
  std::vector<double> sums(g.num_vertices(), 0.0);
  for (auto _ : state) {
    for (const auto& e : g.edges()) {
      if (active.get(e.src)) sums[e.dst] += e.weight;
    }
    benchmark::DoNotOptimize(sums.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_edges()));
}
BENCHMARK(BM_EdgeStreamGated);

void BM_EdgeStreamWordGated(benchmark::State& state) {
  // The block path's inner-loop idiom: one cached frontier word per 64
  // sources instead of one atomic bit test per edge.
  const auto& g = bench_graph();
  util::AtomicBitmap active(g.num_vertices());
  active.set_all();
  std::vector<double> sums(g.num_vertices(), 0.0);
  for (auto _ : state) {
    util::WordCache words(active);
    for (const auto& e : g.edges()) {
      if (words.test(e.src)) sums[e.dst] += e.weight;
    }
    benchmark::DoNotOptimize(sums.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_edges()));
}
BENCHMARK(BM_EdgeStreamWordGated);

// --------------------------------------------------------------------------
// Stream-path comparison -> BENCH_stream.json
// --------------------------------------------------------------------------

struct StreamMeasurement {
  double edges_per_sec = 0.0;
  double compute_s = 0.0;
  std::uint64_t edges_streamed = 0;
  std::uint64_t edges_processed = 0;
};

StreamMeasurement run_stream_mode(const grid::GridStore& store,
                                  const std::vector<algos::JobSpec>& jobs,
                                  runtime::Scheme scheme, bool use_blocks,
                                  std::size_t threads) {
  // Best-of-5: per-chunk wall timers are at the mercy of the host scheduler
  // (under the concurrent scheme especially), and the fastest repetition is
  // the closest to the loop's true cost.
  StreamMeasurement out;
  for (int rep = 0; rep < 5; ++rep) {
    runtime::ExecutorConfig config;
    config.stream.use_blocks = use_blocks;
    config.stream.num_stream_threads = threads;
    const auto metrics = runtime::run_jobs(scheme, store, jobs, config);
    StreamMeasurement sample;
    for (const auto& job : metrics.jobs) {
      sample.edges_streamed += job.stats.edges_streamed;
      sample.edges_processed += job.stats.edges_processed;
      sample.compute_s += static_cast<double>(job.stats.compute_ns) / 1e9;
    }
    sample.edges_per_sec =
        sample.compute_s == 0.0
            ? 0.0
            : static_cast<double>(sample.edges_streamed) / sample.compute_s;
    if (sample.edges_per_sec > out.edges_per_sec) out = sample;
  }
  return out;
}

int stream_comparison() {
  // The fig09 workload: 16 concurrent paper-mix jobs on one grid store under
  // the GridGraph-C scheme (every job streams privately, so the measured loop
  // time is pure streaming). The scalar baseline reproduces the seed
  // end-to-end: ungrouped block layout AND the per-edge virtual loop — the
  // configuration this PR replaced — so the speedups are the PR's perf
  // trajectory. Only compute_ns (time inside the edge loops) enters the
  // rates; simulated-platform bookkeeping runs outside the timers and is
  // identical across modes. A sequential-scheme pair is reported as well:
  // same loops, no 16-thread oversubscription jitter on the timers.
  const auto g = graph::generate_rmat(1 << 14, 1 << 18, 42);
  const char* tmp = std::getenv("TMPDIR");
  const std::string base = std::string(tmp != nullptr ? tmp : "/tmp");
  const std::string seed_path = base + "/graphm_bench_stream_seed";
  const std::string path = base + "/graphm_bench_stream_grid";
  grid::GridStore::preprocess(g, 8, seed_path, /*src_sort=*/false);
  grid::GridStore::preprocess(g, 8, path);
  const grid::GridStore seed_store = grid::GridStore::open(seed_path);
  const grid::GridStore store = grid::GridStore::open(path);
  const auto jobs = runtime::paper_mix(16, g.num_vertices(), 0x09);

  const std::size_t pool_threads =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const auto concurrent = runtime::Scheme::kConcurrent;
  const auto scalar = run_stream_mode(seed_store, jobs, concurrent, /*use_blocks=*/false, 1);
  const auto block = run_stream_mode(store, jobs, concurrent, /*use_blocks=*/true, 1);
  // With one hardware thread the engine creates no pool, so block+pool is the
  // same configuration as block — reuse the measurement instead of reporting
  // scheduler noise as a difference.
  const auto block_pool =
      pool_threads <= 1
          ? block
          : run_stream_mode(store, jobs, concurrent, /*use_blocks=*/true, pool_threads);

  const auto sequential = runtime::Scheme::kSequential;
  const auto scalar_seq =
      run_stream_mode(seed_store, jobs, sequential, /*use_blocks=*/false, 1);
  const auto block_pool_seq =
      run_stream_mode(store, jobs, sequential, /*use_blocks=*/true, pool_threads);

  // Deterministic parallel PageRank: the network-intensive headline workload
  // used to be serial-by-contract (fp summation order); destination-block
  // accumulation fans it out across the pool, one grid block per task, with
  // bit-identical results, so the multi-thread column below is the algorithm
  // the fig09 mix is heaviest on actually using the workers. Serial-path
  // measurement guards against regression from the fan-out itself (same
  // config as before the change, one thread, sequential scheme — clean
  // timers).
  const auto pagerank_jobs =
      runtime::uniform_mix(algos::AlgorithmKind::kPageRank, 4, g.num_vertices(), 7);
  const auto pagerank_serial =
      run_stream_mode(store, pagerank_jobs, sequential, /*use_blocks=*/true, 1);
  const auto pagerank_pool =
      pool_threads <= 1
          ? pagerank_serial
          : run_stream_mode(store, pagerank_jobs, sequential, /*use_blocks=*/true,
                            pool_threads);

  const auto speedup = [](const StreamMeasurement& a, const StreamMeasurement& b) {
    return a.edges_per_sec == 0.0 ? 0.0 : b.edges_per_sec / a.edges_per_sec;
  };

  const char* out_path = std::getenv("GRAPHM_BENCH_OUT");
  if (out_path == nullptr) out_path = "BENCH_stream.json";
  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  const auto emit = [f](const char* name, const StreamMeasurement& m, const char* tail) {
    std::fprintf(f,
                 "  \"%s\": {\"edges_per_sec\": %.0f, \"compute_s\": %.4f, "
                 "\"edges_streamed\": %llu, \"edges_processed\": %llu}%s\n",
                 name, m.edges_per_sec, m.compute_s,
                 static_cast<unsigned long long>(m.edges_streamed),
                 static_cast<unsigned long long>(m.edges_processed), tail);
  };
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"stream_throughput\",\n");
  std::fprintf(f,
               "  \"workload\": \"fig09: 16 concurrent paper-mix jobs, rmat "
               "16384v/262144e, 8 partitions, GridGraph-C\",\n");
  std::fprintf(f,
               "  \"baseline\": \"seed configuration: ungrouped grid layout + "
               "per-edge virtual dispatch + per-edge atomic frontier test, "
               "single-threaded\",\n");
  std::fprintf(f, "  \"pool_threads\": %zu,\n", pool_threads);
  emit("scalar", scalar, ",");
  emit("block", block, ",");
  emit("block_pool", block_pool, ",");
  emit("scalar_sequential", scalar_seq, ",");
  emit("block_pool_sequential", block_pool_seq, ",");
  emit("pagerank_serial", pagerank_serial, ",");
  emit("pagerank_pool", pagerank_pool, ",");
  std::fprintf(f, "  \"speedup_block_vs_scalar\": %.2f,\n", speedup(scalar, block));
  std::fprintf(f, "  \"speedup_block_pool_vs_scalar\": %.2f,\n",
               speedup(scalar, block_pool));
  std::fprintf(f, "  \"speedup_block_pool_vs_scalar_sequential\": %.2f,\n",
               speedup(scalar_seq, block_pool_seq));
  std::fprintf(f, "  \"speedup_pagerank_pool_vs_serial\": %.2f\n",
               speedup(pagerank_serial, pagerank_pool));
  std::fprintf(f, "}\n");
  if (std::fclose(f) != 0) {
    std::fprintf(stderr, "short write to %s\n", out_path);
    return 1;
  }

  std::printf("stream throughput (edges/sec): scalar %.3g, block %.3g (%.2fx), "
              "block+pool(%zu) %.3g (%.2fx); sequential-scheme pair %.3g -> %.3g "
              "(%.2fx); pagerank serial %.3g -> pool %.3g (%.2fx) -> %s\n",
              scalar.edges_per_sec, block.edges_per_sec, speedup(scalar, block),
              pool_threads, block_pool.edges_per_sec, speedup(scalar, block_pool),
              scalar_seq.edges_per_sec, block_pool_seq.edges_per_sec,
              speedup(scalar_seq, block_pool_seq), pagerank_serial.edges_per_sec,
              pagerank_pool.edges_per_sec, speedup(pagerank_serial, pagerank_pool),
              out_path);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const int rc = stream_comparison();
  if (rc != 0) return rc;
  if (argc > 1) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  return 0;
}
