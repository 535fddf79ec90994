// The central correctness property of a concurrent-job *storage* system:
// executing the same job set sequentially (-S), concurrently with private
// copies (-C) or concurrently through GraphM (-M) must not change any job's
// answer — GraphM reorders partition loads and interleaves jobs, but results
// stay the same (Section 4: "loading the partitions in different orders does
// not influence the correctness of the final results").
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <thread>

#include "algos/reference.hpp"
#include "graphm/graphm.hpp"
#include "shard/graphchi_engine.hpp"
#include "runtime/executor.hpp"
#include "runtime/workloads.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace graphm::runtime {
namespace {

void expect_same_results(const RunMetrics& a, const RunMetrics& b) {
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t j = 0; j < a.jobs.size(); ++j) {
    const auto& ra = a.jobs[j].result;
    const auto& rb = b.jobs[j].result;
    ASSERT_EQ(ra.size(), rb.size()) << a.scheme << " vs " << b.scheme << " job " << j;
    for (std::size_t v = 0; v < ra.size(); ++v) {
      // Bit-identical across schemes for every algorithm — including
      // PageRank, whose destination-block accumulation fixes the summation shape
      // regardless of partition visit order (no tolerance escape hatch).
      ASSERT_EQ(ra[v], rb[v])
          << a.scheme << " vs " << b.scheme << " job " << j << " ("
          << a.jobs[j].spec.label() << ") vertex " << v;
    }
  }
}

// gtest prints a value parameter without a PrintTo overload as its raw bytes,
// and CTest names each case after that print. The trailing member fills what
// would otherwise be uninitialised padding, so case names are the same in
// every build.
struct Params {
  std::size_t num_jobs;
  std::uint32_t partitions;
  bool scheduling;
  bool use_blocks;  // false = the engine's legacy per-edge loop
  std::uint16_t zero_fill = 0;
};
static_assert(sizeof(Params) == 16, "Params must have no padding bytes");

class SchemeEquivalence : public ::testing::TestWithParam<Params> {};

TEST_P(SchemeEquivalence, AllSchemesAgree) {
  const Params p = GetParam();
  const auto g = test::small_rmat(600, 8000, 21);
  const grid::GridStore store = test::make_grid(g, p.partitions);
  const auto jobs = paper_mix(p.num_jobs, g.num_vertices(), 77);

  ExecutorConfig config;
  config.record_results = true;
  config.graphm.use_scheduling = p.scheduling;
  config.stream.use_blocks = p.use_blocks;

  const auto s = run_jobs(Scheme::kSequential, store, jobs, config);
  const auto c = run_jobs(Scheme::kConcurrent, store, jobs, config);
  const auto m = run_jobs(Scheme::kShared, store, jobs, config);

  expect_same_results(s, c);
  expect_same_results(s, m);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, SchemeEquivalence,
    ::testing::Values(Params{1, 4, true, true}, Params{4, 4, true, true},
                      Params{4, 4, false, true}, Params{4, 4, true, false},
                      Params{8, 2, true, true}, Params{8, 8, true, true},
                      Params{6, 1, true, true}));

TEST(SchemeEquivalence, SharedModeWithManyIdenticalJobs) {
  // All jobs identical: maximal sharing; results must still be identical to a
  // solo sequential run.
  const auto g = test::small_rmat(400, 5000, 5);
  const grid::GridStore store = test::make_grid(g, 4);
  const auto jobs = uniform_mix(algos::AlgorithmKind::kSssp, 8, g.num_vertices(), 3);

  ExecutorConfig config;
  config.record_results = true;
  const auto s = run_jobs(Scheme::kSequential, store, jobs, config);
  const auto m = run_jobs(Scheme::kShared, store, jobs, config);
  expect_same_results(s, m);
}

// ---------------------------------------------------------------------------
// Block-vs-scalar oracle: every algorithm's process_edge_block override must
// be observably identical to the per-edge fallback — bit-identical result(),
// identical edges_processed — and the engine's simulated metrics must be
// deterministic at any worker-thread count (1/2/8).
// ---------------------------------------------------------------------------

/// Forwards every call to a wrapped algorithm, so the engine drives the
/// wrapped algorithm in its own mode (parallel_safe, dst_disjoint_fan_out).
class Forwarding : public algos::StreamingAlgorithm {
 public:
  explicit Forwarding(std::unique_ptr<algos::StreamingAlgorithm> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  void init(graph::VertexId n, const std::vector<std::uint32_t>& degrees,
            sim::MemoryTracker* tracker) override {
    inner_->init(n, degrees, tracker);
  }
  void iteration_start(std::uint64_t iteration) override { inner_->iteration_start(iteration); }
  [[nodiscard]] const util::AtomicBitmap& active_vertices() const override {
    return inner_->active_vertices();
  }
  void process_edge(const graph::Edge& e) override { inner_->process_edge(e); }
  graph::EdgeCount process_edge_block(const graph::Edge* edges, graph::EdgeCount n,
                                      const util::AtomicBitmap& active) override {
    return inner_->process_edge_block(edges, n, active);
  }
  [[nodiscard]] bool parallel_safe() const override { return inner_->parallel_safe(); }
  [[nodiscard]] bool dst_disjoint_fan_out() const override {
    return inner_->dst_disjoint_fan_out();
  }
  void begin_partition(std::uint32_t pid, std::uint32_t num_partitions) override {
    inner_->begin_partition(pid, num_partitions);
  }
  void iteration_end() override { inner_->iteration_end(); }
  [[nodiscard]] bool done() const override { return inner_->done(); }
  [[nodiscard]] std::pair<const void*, std::size_t> values_span() const override {
    return inner_->values_span();
  }
  [[nodiscard]] std::vector<double> result() const override { return inner_->result(); }

 private:
  std::unique_ptr<algos::StreamingAlgorithm> inner_;
};

/// Routes process_edge_block to the base-class scalar fallback (which loops
/// the wrapped algorithm's process_edge) instead of the algorithm's
/// devirtualized override. Under a pool the engine calls it concurrently —
/// on disjoint edge blocks, or on destination-disjoint grid blocks for
/// PageRank.
class ScalarFallback final : public Forwarding {
 public:
  using Forwarding::Forwarding;
  [[nodiscard]] std::string name() const override { return Forwarding::name() + "-fallback"; }
  graph::EdgeCount process_edge_block(const graph::Edge* edges, graph::EdgeCount n,
                                      const util::AtomicBitmap& active) override {
    return StreamingAlgorithm::process_edge_block(edges, n, active);
  }
};

/// Counts what the engine hands the kernel: the edges over all
/// process_edge_block calls, and, per partition, the calls made off the
/// job's own thread (by pool workers).
class EdgeCounter final : public Forwarding {
 public:
  EdgeCounter(std::unique_ptr<algos::StreamingAlgorithm> inner, std::uint32_t partitions)
      : Forwarding(std::move(inner)), pooled_calls_(partitions) {}

  void init(graph::VertexId n, const std::vector<std::uint32_t>& degrees,
            sim::MemoryTracker* tracker) override {
    job_thread_ = std::this_thread::get_id();  // engines call init on the job's thread
    Forwarding::init(n, degrees, tracker);
  }
  void begin_partition(std::uint32_t pid, std::uint32_t num_partitions) override {
    pid_.store(pid);
    Forwarding::begin_partition(pid, num_partitions);
  }
  graph::EdgeCount process_edge_block(const graph::Edge* edges, graph::EdgeCount n,
                                      const util::AtomicBitmap& active) override {
    edges_handed_.fetch_add(n);
    if (std::this_thread::get_id() != job_thread_) pooled_calls_[pid_.load()].fetch_add(1);
    return Forwarding::process_edge_block(edges, n, active);
  }

  [[nodiscard]] std::uint64_t edges_handed() const { return edges_handed_.load(); }
  [[nodiscard]] std::uint64_t pooled_calls(std::uint32_t pid) const {
    return pooled_calls_[pid].load();
  }

 private:
  std::thread::id job_thread_;
  std::atomic<std::uint32_t> pid_{0};
  std::atomic<std::uint64_t> edges_handed_{0};
  std::vector<std::atomic<std::uint64_t>> pooled_calls_;
};

struct EngineRun {
  std::vector<double> result;
  grid::JobRunStats stats;
  std::uint64_t instructions = 0;
};

/// kGraphM streams the block path through a GraphM loader whose partitions
/// are 700-edge labelled chunks carrying their own run indexes.
enum class Path { kLegacyScalar, kBlocks, kBlockFallback, kGraphM };

EngineRun run_single(const grid::GridStore& store, const algos::JobSpec& spec, Path path,
                     std::size_t threads) {
  sim::Platform platform;
  grid::StreamConfig config;
  config.use_blocks = path != Path::kLegacyScalar;
  config.num_stream_threads = threads;
  config.block_edges = 512;  // small blocks: several per chunk even on test graphs
  // LLC modeling feeds *real* buffer addresses through the cache simulator,
  // which vary run to run with the allocator; instruction counts are the
  // address-independent determinism witness compared below.
  config.model_llc = false;
  grid::StreamEngine engine(store, platform, config);
  std::unique_ptr<algos::StreamingAlgorithm> algorithm = algos::make_algorithm(spec);
  if (path == Path::kBlockFallback) {
    algorithm = std::make_unique<ScalarFallback>(std::move(algorithm));
  }
  std::unique_ptr<core::GraphM> graphm;
  std::unique_ptr<grid::PartitionLoader> loader;
  if (path == Path::kGraphM) {
    graphm = std::make_unique<core::GraphM>(
        store, platform, core::GraphMOptions{.chunk_bytes_override = 700 * sizeof(graph::Edge)});
    graphm->init();
    loader = graphm->make_loader(0);
  } else {
    loader = std::make_unique<grid::DefaultLoader>(store, platform);
  }
  EngineRun run;
  run.stats = engine.run_job(0, *algorithm, *loader);
  run.result = algorithm->result();
  run.instructions = platform.instructions(0);
  return run;
}

class BlockVsScalar : public ::testing::TestWithParam<algos::AlgorithmKind> {};

TEST_P(BlockVsScalar, BlockPathMatchesScalarOracleAtAnyThreadCount) {
  const auto g = test::small_rmat(700, 9000, 3);
  const grid::GridStore store = test::make_grid(g, 4);
  algos::JobSpec spec;
  spec.kind = GetParam();
  spec.damping = 0.85;
  spec.max_iterations = 6;
  spec.root = 1;

  // The oracle: the legacy per-edge loop (one virtual call + one atomic bit
  // test per edge), single-threaded — the seed's exact hot path.
  const EngineRun oracle = run_single(store, spec, Path::kLegacyScalar, 1);
  ASSERT_GT(oracle.stats.edges_processed, 0u);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    for (const Path path : {Path::kBlocks, Path::kBlockFallback}) {
      const EngineRun run = run_single(store, spec, path, threads);
      const char* label = path == Path::kBlocks ? "override" : "fallback";
      ASSERT_EQ(oracle.result, run.result)
          << label << " result not bit-identical at " << threads << " threads";
      EXPECT_EQ(oracle.stats.edges_processed, run.stats.edges_processed)
          << label << " at " << threads << " threads";
      EXPECT_EQ(oracle.stats.edges_streamed, run.stats.edges_streamed);
      EXPECT_EQ(oracle.stats.iterations, run.stats.iterations);
      // Simulated metrics must be deterministic: instruction counts derive
      // from per-chunk active-edge totals and are issued in canonical chunk
      // order regardless of how the blocks were fanned out.
      EXPECT_EQ(oracle.instructions, run.instructions)
          << label << " at " << threads << " threads";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, BlockVsScalar,
                         ::testing::Values(algos::AlgorithmKind::kPageRank,
                                           algos::AlgorithmKind::kWcc,
                                           algos::AlgorithmKind::kBfs,
                                           algos::AlgorithmKind::kSssp),
                         [](const auto& info) { return algos::to_string(info.param); });

TEST(BlockVsScalar, EngineAgreesWithEngineFreeStreamingOracle) {
  // reference::run_streaming drives the same algorithms per-edge over the raw
  // edge list — no engine, no grid, no blocks. Exact for the order-independent
  // algorithms; PageRank's engine runs group contributions per partition
  // (destination-block accumulation contract) while the engine-free oracle folds flat,
  // a different rounding shape — hence the (tiny) tolerance here. Cross-
  // scheme and cross-thread-count comparisons are exact; see
  // PageRankBitIdentical below.
  const auto g = test::small_rmat(500, 6000, 11);
  const grid::GridStore store = test::make_grid(g, 4);
  for (const auto kind : {algos::AlgorithmKind::kWcc, algos::AlgorithmKind::kBfs,
                          algos::AlgorithmKind::kSssp, algos::AlgorithmKind::kPageRank}) {
    algos::JobSpec spec;
    spec.kind = kind;
    spec.max_iterations = 8;
    spec.root = 2;
    auto algorithm = algos::make_algorithm(spec);
    const auto expected = algos::reference::run_streaming(g, *algorithm);
    const auto run = run_single(store, spec, Path::kBlocks, 2);
    ASSERT_EQ(expected.size(), run.result.size());
    const double tolerance = kind == algos::AlgorithmKind::kPageRank ? 1e-12 : 0.0;
    for (std::size_t v = 0; v < expected.size(); ++v) {
      ASSERT_NEAR(expected[v], run.result[v], tolerance)
          << algos::to_string(kind) << " vertex " << v;
    }
  }
}

TEST(BlockVsScalar, SortedRunJumpMatchesScalarOnSparseFrontiers) {
  // Word-granular run skipping: on a single-partition grid the engine's
  // partition run index is one src-sorted segment, so sparse iterations take
  // the next_set_in_range + binary-search jump path. BFS/SSSP frontiers go
  // from one vertex through a wave to a sparse tail — every segmentation edge
  // case (jump over long inactive stretches, short-gap absorption, trailing
  // segment) against the seed's per-edge scalar oracle. The GraphM path jumps
  // inside labelled chunks: one segment each at P=1, one per block crossed at P=4.
  const auto g = test::small_rmat(4096, 20000, 13);  // sparse: long inactive gaps
  for (const std::uint32_t partitions : {1u, 4u}) {
    const grid::GridStore store = test::make_grid(g, partitions);
    for (const auto kind : {algos::AlgorithmKind::kBfs, algos::AlgorithmKind::kSssp}) {
      algos::JobSpec spec;
      spec.kind = kind;
      spec.root = 17;
      const EngineRun oracle = run_single(store, spec, Path::kLegacyScalar, 1);
      for (const Path path : {Path::kBlocks, Path::kGraphM}) {
        const EngineRun run = run_single(store, spec, path, 1);
        const char* label = path == Path::kBlocks ? "partition spans" : "GraphM chunks";
        ASSERT_EQ(oracle.result, run.result)
            << algos::to_string(kind) << " P=" << partitions << " " << label;
        EXPECT_EQ(oracle.stats.edges_processed, run.stats.edges_processed)
            << algos::to_string(kind) << " P=" << partitions << " " << label;
        EXPECT_EQ(oracle.stats.iterations, run.stats.iterations);
        EXPECT_EQ(oracle.instructions, run.instructions);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// PageRank bit-identity: raw values_span() bytes (memcmp, not ASSERT_NEAR)
// must agree across stream-thread counts {1, 2, 4, 8}, across the -S/-C/-M
// loader schemes, and across adversarially permuted partition visit orders —
// the destination-block accumulation guarantee.
// ---------------------------------------------------------------------------

/// DefaultLoader-alike that serves a job's active partitions in a seeded
/// permutation that changes every iteration — the adversarial stand-in for
/// the sharing scheduler reordering loads and mid-round attaches rotating a
/// job's traversal.
class PermutedLoader final : public grid::PartitionLoader {
 public:
  PermutedLoader(const storage::PartitionedStore& store, sim::Platform& platform,
                 std::uint64_t seed)
      : store_(store), platform_(platform), rng_(seed) {}

  void register_iteration(std::uint32_t /*job_id*/,
                          const std::vector<std::uint32_t>& active_partitions) override {
    pending_.assign(active_partitions.begin(), active_partitions.end());
    for (std::size_t i = pending_.size(); i > 1; --i) {
      std::swap(pending_[i - 1], pending_[rng_.next_below(i)]);
    }
  }

  std::optional<grid::PartitionView> acquire_next(std::uint32_t job_id) override {
    if (pending_.empty()) return std::nullopt;
    const std::uint32_t pid = pending_.back();
    pending_.pop_back();
    store_.read_partition(pid, buffer_, platform_, job_id);
    grid::PartitionView view;
    view.pid = pid;
    const auto [vb, ve] = store_.meta().vertex_range(pid);
    view.vertex_begin = vb;
    view.vertex_end = ve;
    grid::ChunkSpan span;
    span.edges = buffer_.data();
    span.edge_count = buffer_.size();
    span.stream_offset = 0;  // a whole partition: fans out by destination block
    span.llc_base = reinterpret_cast<std::uint64_t>(buffer_.data());
    view.chunks.push_back(span);
    return view;
  }

  void release(std::uint32_t /*job_id*/, std::uint32_t /*pid*/) override {}

 private:
  const storage::PartitionedStore& store_;
  sim::Platform& platform_;
  util::SplitMix64 rng_;
  std::vector<std::uint32_t> pending_;
  std::vector<graph::Edge> buffer_;
};

enum class LoaderKind { kDefault, kPermuted, kShared };

/// Runs `num_jobs` copies of `spec` on one engine and returns each job's raw
/// values_span() bytes, captured straight off the algorithm instance.
std::vector<std::vector<unsigned char>> run_value_bytes(const grid::GridStore& store,
                                                        const algos::JobSpec& spec,
                                                        std::size_t num_jobs,
                                                        std::size_t threads,
                                                        LoaderKind kind) {
  sim::Platform platform;
  grid::StreamConfig config;
  config.num_stream_threads = threads;
  config.block_edges = 512;
  config.model_llc = false;
  grid::StreamEngine engine(store, platform, config);
  std::unique_ptr<core::GraphM> graphm;
  if (kind == LoaderKind::kShared) {
    graphm = std::make_unique<core::GraphM>(store, platform);
    graphm->init();
  }
  std::vector<std::unique_ptr<algos::StreamingAlgorithm>> algorithms;
  std::vector<std::unique_ptr<grid::PartitionLoader>> loaders;
  for (std::uint32_t j = 0; j < num_jobs; ++j) {
    algorithms.push_back(algos::make_algorithm(spec));
    switch (kind) {
      case LoaderKind::kDefault:
        loaders.push_back(std::make_unique<grid::DefaultLoader>(store, platform));
        break;
      case LoaderKind::kPermuted:
        loaders.push_back(std::make_unique<PermutedLoader>(store, platform, 1000 + j));
        break;
      case LoaderKind::kShared:
        loaders.push_back(graphm->make_loader(j));
        break;
    }
  }
  std::vector<std::thread> workers;
  for (std::uint32_t j = 0; j < num_jobs; ++j) {
    workers.emplace_back([&, j] { engine.run_job(j, *algorithms[j], *loaders[j]); });
  }
  for (auto& t : workers) t.join();
  std::vector<std::vector<unsigned char>> bytes;
  for (const auto& algorithm : algorithms) {
    const auto [ptr, len] = algorithm->values_span();
    const auto* p = static_cast<const unsigned char*>(ptr);
    bytes.emplace_back(p, p + len);
  }
  return bytes;
}

TEST(PageRankBitIdentical, AcrossThreadCountsSchemesAndPartitionOrder) {
  const auto g = test::small_rmat(700, 9000, 7);
  const grid::GridStore store = test::make_grid(g, 4);
  algos::JobSpec spec;
  spec.kind = algos::AlgorithmKind::kPageRank;
  spec.damping = 0.85;
  spec.max_iterations = 6;

  // The reference bytes: solo job, ascending partition order, one thread.
  const auto baseline = run_value_bytes(store, spec, 1, 1, LoaderKind::kDefault).front();
  ASSERT_FALSE(baseline.empty());

  const auto expect_bytes = [&](const std::vector<std::vector<unsigned char>>& runs,
                                const char* label, std::size_t threads) {
    for (std::size_t j = 0; j < runs.size(); ++j) {
      ASSERT_EQ(baseline.size(), runs[j].size()) << label << " job " << j;
      EXPECT_EQ(0, std::memcmp(baseline.data(), runs[j].data(), baseline.size()))
          << label << " job " << j << " at " << threads
          << " stream threads: values_span bytes differ";
    }
  };

  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    // -S: one job, private loader, ascending order.
    expect_bytes(run_value_bytes(store, spec, 1, threads, LoaderKind::kDefault),
                 "sequential", threads);
    // -C: three concurrent jobs with private loaders sharing the engine pool.
    expect_bytes(run_value_bytes(store, spec, 3, threads, LoaderKind::kDefault),
                 "concurrent", threads);
    // -M: three concurrent jobs through the GraphM sharing controller (its
    // scheduler chooses the loading order).
    expect_bytes(run_value_bytes(store, spec, 3, threads, LoaderKind::kShared),
                 "shared", threads);
    // Adversarial: partitions served in a per-iteration seeded permutation.
    expect_bytes(run_value_bytes(store, spec, 2, threads, LoaderKind::kPermuted),
                 "permuted", threads);
  }
}

// ---------------------------------------------------------------------------
// Destination-block fan-out: every edge is handed to the kernel once at any
// thread count, and spans off the grid layout take the serial fallback.
// ---------------------------------------------------------------------------

/// GraphM chunk size for the tests below: 700 edges, which is not aligned to
/// the grid's blocks, so chunks cut across block boundaries.
constexpr std::size_t kOddChunkBytes = 700 * sizeof(graph::Edge);

struct CountedRun {
  std::vector<unsigned char> bytes;  // raw values_span()
  grid::JobRunStats stats;
  std::uint64_t instructions = 0;
  std::uint64_t edges_handed = 0;
  std::vector<std::uint64_t> pooled_calls;  // per partition
};

/// Runs one PageRank job wrapped in an EdgeCounter through `engine`.
CountedRun run_counted(const grid::StreamEngine& engine, sim::Platform& platform,
                       grid::PartitionLoader& loader) {
  algos::JobSpec spec;
  spec.kind = algos::AlgorithmKind::kPageRank;
  spec.damping = 0.85;
  spec.max_iterations = 5;
  const std::uint32_t partitions = engine.store().meta().num_partitions;
  EdgeCounter counter(algos::make_algorithm(spec), partitions);
  CountedRun run;
  run.stats = engine.run_job(0, counter, loader);
  const auto [ptr, len] = counter.values_span();
  const auto* p = static_cast<const unsigned char*>(ptr);
  run.bytes.assign(p, p + len);
  run.instructions = platform.instructions(0);
  run.edges_handed = counter.edges_handed();
  for (std::uint32_t pid = 0; pid < partitions; ++pid) {
    run.pooled_calls.push_back(counter.pooled_calls(pid));
  }
  return run;
}

grid::StreamConfig counted_config(bool use_blocks, std::size_t threads) {
  grid::StreamConfig config;
  config.use_blocks = use_blocks;
  config.num_stream_threads = threads;
  config.block_edges = 64;  // far below a chunk, so chunk ranges fan out
  config.model_llc = false;
  return config;
}

void expect_same_run(const CountedRun& oracle, const CountedRun& run, const std::string& label) {
  EXPECT_EQ(oracle.bytes, run.bytes) << label << ": values_span bytes differ";
  EXPECT_EQ(oracle.stats.edges_processed, run.stats.edges_processed) << label;
  EXPECT_EQ(oracle.stats.edges_streamed, run.stats.edges_streamed) << label;
  EXPECT_EQ(oracle.instructions, run.instructions) << label;
}

TEST(DstBlockFanOut, EveryEdgeHandedOnceAtAnyThreadCount) {
  const auto g = test::small_rmat(700, 9000, 7);
  const grid::GridStore store = test::make_grid(g, 4);
  const storage::StoreMeta& meta = store.meta();

  // The GraphM chunks must really straddle block boundaries.
  {
    sim::Platform platform;
    core::GraphMOptions options;
    options.chunk_bytes_override = kOddChunkBytes;
    core::GraphM graphm(store, platform, options);
    graphm.init();
    std::size_t straddling = 0;
    for (std::uint32_t pid = 0; pid < meta.num_partitions; ++pid) {
      for (const core::ChunkInfo& chunk : graphm.chunk_tables()[pid].chunks) {
        graph::EdgeCount start = 0;
        for (std::uint32_t j = 1; j < meta.blocks_per_partition; ++j) {
          start += meta.block_edges[meta.block_index(pid, j - 1)];
          if (chunk.edge_begin < start && start < chunk.edge_end) {
            ++straddling;
            break;
          }
        }
      }
    }
    ASSERT_GT(straddling, 1u);
  }

  CountedRun oracle;
  {
    sim::Platform platform;
    const grid::StreamEngine engine(store, platform, counted_config(false, 1));
    grid::DefaultLoader loader(store, platform);
    oracle = run_counted(engine, platform, loader);
  }
  ASSERT_GT(oracle.stats.edges_streamed, 0u);

  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    for (const bool shared : {false, true}) {
      sim::Platform platform;
      const grid::StreamEngine engine(store, platform, counted_config(true, threads));
      core::GraphMOptions options;
      options.chunk_bytes_override = kOddChunkBytes;
      core::GraphM graphm(store, platform, options);
      std::unique_ptr<grid::PartitionLoader> loader;
      if (shared) {
        graphm.init();
        loader = graphm.make_loader(0);
      } else {
        loader = std::make_unique<grid::DefaultLoader>(store, platform);
      }
      const CountedRun run = run_counted(engine, platform, *loader);
      const std::string label = std::string(shared ? "GraphM chunks" : "default loader") +
                                " at " + std::to_string(threads) + " threads";
      EXPECT_EQ(run.edges_handed, run.stats.edges_streamed)
          << label << ": an edge was handed to the kernel more than once";
      expect_same_run(oracle, run, label);
    }
  }
}

/// Rewrites a chunk so its content no longer follows the grid layout: the
/// same edges in reverse order, so no block's edges sit where the layout
/// says.
std::vector<graph::Edge> reversed(std::vector<graph::Edge> edges) {
  std::reverse(edges.begin(), edges.end());
  return edges;
}

TEST(DstBlockFanOut, SnapshotOverlaysStreamSerially) {
  const auto g = test::small_rmat(700, 9000, 7);
  const grid::GridStore store = test::make_grid(g, 4);
  constexpr std::uint32_t kUpdated = 0;  // every chunk replaced by an update
  constexpr std::uint32_t kMutated = 1;  // every chunk replaced by a mutation

  const auto run = [&](bool use_blocks, std::size_t threads) {
    sim::Platform platform;
    const grid::StreamEngine engine(store, platform, counted_config(use_blocks, threads));
    core::GraphMOptions options;
    options.chunk_bytes_override = kOddChunkBytes;
    core::GraphM graphm(store, platform, options);
    graphm.init();
    core::SharingController& controller = graphm.controller();
    const auto base_content = [&](std::uint32_t pid, std::uint32_t chunk) {
      controller.register_job(99);
      auto content = controller.chunk_content(99, pid, chunk);
      controller.job_finished(99);
      return content;
    };
    const auto chunks = [&](std::uint32_t pid) {
      return static_cast<std::uint32_t>(graphm.chunk_tables()[pid].chunks.size());
    };
    for (std::uint32_t c = 0; c < chunks(kUpdated); ++c) {
      controller.apply_update(kUpdated, c, reversed(base_content(kUpdated, c)));
    }
    auto loader = graphm.make_loader(0);  // registers job 0 after the updates
    for (std::uint32_t c = 0; c < chunks(kMutated); ++c) {
      controller.apply_mutation(0, kMutated, c, reversed(base_content(kMutated, c)));
    }
    return run_counted(engine, platform, *loader);
  };

  // The oracle: the legacy per-edge loop over the same overlays.
  const CountedRun oracle = run(false, 1);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    const CountedRun pooled = run(true, threads);
    const std::string label = std::to_string(threads) + " threads";
    expect_same_run(oracle, pooled, label);
    EXPECT_EQ(pooled.edges_handed, pooled.stats.edges_streamed) << label;
    EXPECT_EQ(pooled.pooled_calls[kUpdated], 0u) << label << ": update overlay fanned out";
    EXPECT_EQ(pooled.pooled_calls[kMutated], 0u) << label << ": mutation overlay fanned out";
  }
}

TEST(DstBlockFanOut, ShardStoreStreamsSerially) {
  // One block per shard: no destination blocks to fan out over.
  const auto g = test::small_rmat(700, 9000, 7);
  const shard::ShardStore store = test::make_shards(g, 4);
  const auto run = [&](bool use_blocks, std::size_t threads) {
    sim::Platform platform;
    const shard::GraphChiEngine engine(store, platform, counted_config(use_blocks, threads));
    auto loader = engine.make_default_loader();
    return run_counted(engine.core(), platform, *loader);
  };
  const CountedRun oracle = run(false, 1);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    const CountedRun pooled = run(true, threads);
    const std::string label = std::to_string(threads) + " threads";
    expect_same_run(oracle, pooled, label);
    EXPECT_EQ(pooled.edges_handed, pooled.stats.edges_streamed) << label;
    for (std::uint32_t pid = 0; pid < store.meta().num_partitions; ++pid) {
      EXPECT_EQ(pooled.pooled_calls[pid], 0u) << label << " shard " << pid;
    }
  }
}

TEST(SchemeEquivalence, StaggeredArrivalsDoNotChangeResults) {
  const auto g = test::small_rmat(400, 5000, 9);
  const grid::GridStore store = test::make_grid(g, 4);
  const auto jobs = paper_mix(6, g.num_vertices(), 13);

  ExecutorConfig config;
  config.record_results = true;
  const auto s = run_jobs(Scheme::kSequential, store, jobs, config);

  ExecutorConfig staggered = config;
  staggered.arrival_offsets_ns.assign(jobs.size(), 0);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    staggered.arrival_offsets_ns[j] = j * 2'000'000;  // 2 ms apart
  }
  const auto m = run_jobs(Scheme::kShared, store, jobs, staggered);
  expect_same_results(s, m);
}

}  // namespace
}  // namespace graphm::runtime
