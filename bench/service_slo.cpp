// Open-loop service-level benchmark: the fig09-style mixed job stream
// submitted to the always-on JobService under three execution modes —
//   service   : GraphM sharing groups with dynamic mid-stream attach (-M,
//               open-loop);
//   isolated  : one private loader per job, all jobs concurrent (-C as a
//               service);
//   sequential: one worker, private loaders (-S as a service; queue wait
//               dominates under load).
// Every mode replays the *identical* arrival streams: a Poisson λ sweep
// (Figure 16's axis) and the synthesized Figure-2 week trace. Reported per
// mode: sustained throughput, p50/p95/p99 end-to-end latency (measured and
// modeled), queue wait, and the sharing economy (loads vs attaches vs
// mid-round attaches). Emits BENCH_service.json.
//
// GRAPHM_SERVICE_SMOKE=1 shrinks the graph and job counts to a few seconds
// (the CI smoke invocation). GRAPHM_BENCH_OUT overrides the output path.
// GRAPHM_TRACE=<path> turns the flight recorder on and writes a
// Perfetto-loadable Chrome trace of the week-trace service run there, plus a
// metrics snapshot next to it (<path>.metrics.json).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "grid/grid_store.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"
#include "runtime/job_queue.hpp"
#include "runtime/workloads.hpp"
#include "service/job_service.hpp"
#include "util/table_printer.hpp"

using namespace graphm;

namespace {

bool smoke() { return std::getenv("GRAPHM_SERVICE_SMOKE") != nullptr; }

struct ModeResult {
  std::string mode;
  service::ServiceStats stats;
  core::SharingController::Stats sharing;
};

/// Replays `offsets` (ns) open-loop against a fresh service and returns the
/// stats. The submitter thread paces submissions on the service clock.
ModeResult run_mode(const grid::GridStore& store, const std::vector<algos::JobSpec>& jobs,
                    const std::vector<std::uint64_t>& offsets, service::ExecMode mode,
                    std::size_t workers, const char* label) {
  service::ServiceConfig config;
  config.mode = mode;
  config.workers = workers;
  config.policy = service::AdmissionPolicy::kImmediate;
  service::JobService svc(store, config);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const std::uint64_t offset = j < offsets.size() ? offsets[j] : 0;
    while (svc.now_ns() < offset) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(
          std::min<std::uint64_t>(offset - svc.now_ns(), 200'000)));
    }
    svc.submit(jobs[j]);
  }
  svc.drain();
  ModeResult result;
  result.mode = label;
  result.stats = svc.stats();
  result.sharing = svc.sharing_stats();
  if (const char* trace_path = obs::trace_env_path();
      trace_path != nullptr && mode == service::ExecMode::kShared) {
    // Metrics snapshot next to the trace; each shared-mode run overwrites,
    // so the file ends up describing the final (week-trace) service run.
    const std::string metrics_path = std::string(trace_path) + ".metrics.json";
    std::FILE* mf = std::fopen(metrics_path.c_str(), "w");
    if (mf != nullptr) {
      const std::string json = svc.metrics_json();
      std::fwrite(json.data(), 1, json.size(), mf);
      std::fclose(mf);
    }
  }
  return result;
}

void emit_mode(std::FILE* f, const ModeResult& r, const char* tail) {
  const auto& s = r.stats;
  std::fprintf(f,
               "    \"%s\": {\"completed\": %llu, "
               "\"modeled_throughput_jobs_per_s\": %.3f, \"modeled_p50_ms\": %.3f, "
               "\"modeled_p95_ms\": %.3f, \"modeled_p99_ms\": %.3f, "
               "\"exec_modeled_p95_ms\": %.3f, \"wall_throughput_jobs_per_s\": %.3f, "
               "\"wall_p50_ms\": %.3f, \"wall_p95_ms\": %.3f, \"wall_p99_ms\": %.3f, "
               "\"queue_wait_p95_ms\": %.3f, \"peak_concurrency\": %u, "
               "\"loads\": %llu, \"attaches\": %llu, \"mid_round_attaches\": %llu}%s\n",
               r.mode.c_str(), static_cast<unsigned long long>(s.completed),
               s.modeled.sustained_jobs_per_s, s.modeled.e2e.p50_ns / 1e6,
               s.modeled.e2e.p95_ns / 1e6, s.modeled.e2e.p99_ns / 1e6,
               s.exec_modeled.p95_ns / 1e6, s.sustained_jobs_per_s, s.e2e.p50_ns / 1e6,
               s.e2e.p95_ns / 1e6, s.e2e.p99_ns / 1e6, s.queue_wait.p95_ns / 1e6,
               s.peak_concurrency,
               static_cast<unsigned long long>(r.sharing.partition_loads),
               static_cast<unsigned long long>(r.sharing.attaches),
               static_cast<unsigned long long>(r.sharing.mid_round_attaches), tail);
}

void print_rows(util::TablePrinter& table, const std::string& workload,
                const ModeResult& r) {
  const auto& s = r.stats;
  table.add_row({workload, r.mode,
                 util::TablePrinter::fmt(s.modeled.sustained_jobs_per_s, 1),
                 util::TablePrinter::fmt(s.modeled.e2e.p50_ns / 1e6, 2),
                 util::TablePrinter::fmt(s.modeled.e2e.p95_ns / 1e6, 2),
                 util::TablePrinter::fmt(s.sustained_jobs_per_s, 1),
                 util::TablePrinter::fmt(s.e2e.p95_ns / 1e6, 2),
                 util::TablePrinter::fmt(static_cast<double>(s.peak_concurrency), 0),
                 util::TablePrinter::fmt(static_cast<double>(r.sharing.partition_loads), 0),
                 util::TablePrinter::fmt(static_cast<double>(r.sharing.attaches), 0)});
}

void print_shape(const std::string& claim, bool pass) {
  std::printf("SHAPE %-60s %s\n", claim.c_str(), pass ? "PASS" : "FAIL");
}

}  // namespace

int main() {
  const bool tiny = smoke();
  const char* trace_path = obs::trace_env_path();
  if (trace_path != nullptr) obs::Tracer::global().set_enabled(true);
  // The graph must overflow the simulated LLC (256 KB) even in smoke mode:
  // sharing's DRAM-stall advantage — the modeled signal the SHAPE lines
  // check — only exists when streams don't fit the cache.
  const graph::VertexId vertices = tiny ? 1 << 12 : 1 << 13;
  const graph::EdgeCount edges = tiny ? 1 << 16 : 1 << 17;
  const std::size_t num_jobs = tiny ? 8 : 24;
  const std::size_t workers = 16;

  const auto g = graph::generate_rmat(vertices, edges, 42);
  const char* tmp = std::getenv("TMPDIR");
  const std::string path = std::string(tmp != nullptr ? tmp : "/tmp") +
                           "/graphm_bench_service_grid" + (tiny ? "_smoke" : "");
  grid::GridStore::preprocess(g, 8, path);
  const grid::GridStore store = grid::GridStore::open(path);
  const auto jobs = runtime::paper_mix(num_jobs, g.num_vertices(), 0x5E27);

  const std::vector<double> lambdas = tiny ? std::vector<double>{16.0}
                                           : std::vector<double>{4.0, 16.0, 32.0};
  // One "λ unit" of the paper's submission process mapped to ~2 ms of replay
  // time: λ=16 packs the whole stream into a few tens of milliseconds.
  constexpr std::uint64_t kMeanScaleNs = 2'000'000;

  // "model" columns: the measured arrival stream replayed against the
  // modeled per-job times ((wall + DRAM stall)/16 cores + disk stall) on the
  // worker count — the paper-machine view every fig bench reports. "wall"
  // columns are the raw host clock (noisy on small/oversubscribed hosts).
  util::TablePrinter table("service SLO: open-loop job streams, three execution modes");
  table.set_header({"workload", "mode", "jobs/s model", "p50 model", "p95 model",
                    "jobs/s wall", "p95 wall", "peak", "loads", "attaches"});

  const char* out_path = std::getenv("GRAPHM_BENCH_OUT");
  if (out_path == nullptr) out_path = "BENCH_service.json";
  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"service_slo\",\n");
  std::fprintf(f,
               "  \"workload\": \"paper mix, rmat %uv/%llue, 8 partitions, %zu jobs, "
               "open-loop\",\n",
               vertices, static_cast<unsigned long long>(edges), num_jobs);
  std::fprintf(f, "  \"modes\": \"service=shared+dynamic-attach, isolated=-C, "
                  "sequential=-S (1 worker)\",\n");

  bool service_wins_throughput = true;
  bool service_p95_not_worse = true;
  bool service_attaches = false;

  std::fprintf(f, "  \"lambda_sweep\": {\n");
  for (std::size_t li = 0; li < lambdas.size(); ++li) {
    const double lambda = lambdas[li];
    const auto offsets =
        runtime::poisson_arrivals(num_jobs, lambda, kMeanScaleNs, 0xFEED + li);
    const auto svc = run_mode(store, jobs, offsets, service::ExecMode::kShared, workers,
                              "service");
    const auto iso = run_mode(store, jobs, offsets, service::ExecMode::kIsolated, workers,
                              "isolated");
    const auto seq = run_mode(store, jobs, offsets, service::ExecMode::kIsolated, 1,
                              "sequential");
    const std::string workload = "lambda=" + util::TablePrinter::fmt(lambda, 0);
    print_rows(table, workload, svc);
    print_rows(table, workload, iso);
    print_rows(table, workload, seq);
    std::fprintf(f, "  \"lambda_%g\": {\n", lambda);
    emit_mode(f, svc, ",");
    emit_mode(f, iso, ",");
    emit_mode(f, seq, "");
    std::fprintf(f, "  }%s\n", li + 1 < lambdas.size() ? "," : "");
    // Both checks allow a 5% band: p95 at smoke scale is the single longest
    // job, and near-ties (933.7 vs 934.3 jobs/s) must not read as losses.
    service_wins_throughput = service_wins_throughput &&
                              svc.stats.modeled.sustained_jobs_per_s >=
                                  iso.stats.modeled.sustained_jobs_per_s * 0.95;
    service_p95_not_worse =
        service_p95_not_worse &&
        svc.stats.modeled.e2e.p95_ns <= iso.stats.modeled.e2e.p95_ns * 1.05;
    service_attaches = service_attaches || svc.sharing.attaches > 0;
  }
  std::fprintf(f, "  },\n");

  // Figure-2 week trace replay (compressed): the diurnal concurrency level
  // becomes the submission schedule.
  const auto trace = runtime::synthesize_week_trace(tiny ? 48 : 168, 7);
  const auto trace_offsets = runtime::trace_to_arrivals(
      trace, /*job_duration_hours=*/tiny ? 8.0 : 12.0, /*hour_ns=*/kMeanScaleNs / 2,
      num_jobs);
  // The exported trace covers exactly the week-trace service-mode run: drop
  // the sweep's events first, export right after.
  if (trace_path != nullptr) obs::Tracer::global().clear();
  const auto svc_trace = run_mode(store, jobs, trace_offsets, service::ExecMode::kShared,
                                  workers, "service");
  if (trace_path != nullptr) {
    if (obs::export_tracer(trace_path, obs::Tracer::global(),
                           "graphm service (live clock)")) {
      std::printf("wrote %s (%llu dropped)\n", trace_path,
                  static_cast<unsigned long long>(obs::Tracer::global().dropped()));
    } else {
      std::fprintf(stderr, "cannot write %s\n", trace_path);
      return 1;
    }
    obs::Tracer::global().set_enabled(false);
  }
  const auto iso_trace = run_mode(store, jobs, trace_offsets, service::ExecMode::kIsolated,
                                  workers, "isolated");
  const auto seq_trace = run_mode(store, jobs, trace_offsets, service::ExecMode::kIsolated,
                                  1, "sequential");
  print_rows(table, "week-trace", svc_trace);
  print_rows(table, "week-trace", iso_trace);
  print_rows(table, "week-trace", seq_trace);
  std::fprintf(f, "  \"week_trace\": {\n");
  emit_mode(f, svc_trace, ",");
  emit_mode(f, iso_trace, ",");
  emit_mode(f, seq_trace, "");
  std::fprintf(f, "  }\n}\n");
  if (std::fclose(f) != 0) {
    std::fprintf(stderr, "short write to %s\n", out_path);
    return 1;
  }

  table.print();
  print_shape("service mode attaches jobs to shared loads", service_attaches);
  print_shape("service modeled throughput >= isolated (all lambdas)",
              service_wins_throughput);
  print_shape("service modeled p95 latency <= isolated (all lambdas)",
              service_p95_not_worse);
  std::printf("wrote %s\n", out_path);
  return 0;
}
