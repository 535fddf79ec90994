#!/usr/bin/env python3
"""Self-test for tools/lint_invariants.py: each rule must fire on a minimal
violating fixture, stay quiet on a conforming twin, and the real tree must be
clean. Registered in ctest as `lint_invariants_selftest` (stdlib unittest, no
dependencies)."""

from __future__ import annotations

import pathlib
import sys
import tempfile
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import lint_invariants as lint  # noqa: E402

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


class FixtureTree:
    """A throwaway repo skeleton the rule checks run against."""

    def __init__(self) -> None:
        self._tmp = tempfile.TemporaryDirectory(prefix="lint_fixture_")
        self.root = pathlib.Path(self._tmp.name)

    def write(self, rel: str, content: str) -> None:
        path = self.root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content)

    def cleanup(self) -> None:
        self._tmp.cleanup()


class LintRuleTests(unittest.TestCase):
    def setUp(self) -> None:
        self.tree = FixtureTree()
        self.addCleanup(self.tree.cleanup)

    def rules_fired(self, violations):
        return {v.rule for v in violations}

    # -- wall-clock -----------------------------------------------------------

    def test_wall_clock_fires_in_des_dirs(self) -> None:
        self.tree.write("src/cluster/bad.cpp", """
            #include <chrono>
            std::uint64_t now() {
              return std::chrono::steady_clock::now().time_since_epoch().count();
            }
            std::uint64_t epoch() { return time(nullptr); }
        """)
        violations = lint.check_wall_clock(self.tree.root)
        self.assertEqual(self.rules_fired(violations), {"wall-clock"})
        self.assertEqual(len(violations), 2)

    def test_wall_clock_ignores_comments_and_non_des_code(self) -> None:
        self.tree.write("src/cluster/ok.cpp", """
            // std::chrono::steady_clock is banned here; the DES clock rules.
            std::uint64_t now(const EventLoop& loop) { return loop.now_ns(); }
        """)
        self.tree.write("src/obs/fine.cpp", """
            #include <chrono>
            auto t = std::chrono::steady_clock::now();  // live surface: allowed
        """)
        self.assertEqual(lint.check_wall_clock(self.tree.root), [])

    # -- rng ------------------------------------------------------------------

    def test_rng_fires_outside_util_rng(self) -> None:
        self.tree.write("src/cluster/bad.cpp", """
            #include <cstdlib>
            int jitter() { return rand() % 7; }
            std::random_device entropy;
        """)
        violations = lint.check_rng(self.tree.root)
        self.assertEqual(self.rules_fired(violations), {"rng"})
        self.assertEqual(len(violations), 2)

    def test_rng_exempts_util_rng_and_spares_identifiers(self) -> None:
        self.tree.write("src/util/rng.hpp", """
            #include <random>
            inline std::uint64_t entropy() { std::random_device rd; return rd(); }
        """)
        self.tree.write("src/graph/ok.cpp", """
            int operand(int x) { return x; }      // 'rand(' inside a word
            int y = my_rand(3);                   // not the libc rand()
        """)
        self.assertEqual(lint.check_rng(self.tree.root), [])

    # -- trace-codes ----------------------------------------------------------

    ENUM_HPP = """
        enum class TraceCode : int {
          kJobDispatched = 1,  // job handed to a backend
          kIngestDone = 2,
        };
    """

    def test_trace_codes_fires_on_missing_case(self) -> None:
        self.tree.write("src/cluster/event_loop.hpp", self.ENUM_HPP)
        self.tree.write("src/cluster/event_loop.cpp", """
            const char* trace_code_name(TraceCode code) {
              switch (code) {
                case TraceCode::kJobDispatched: return "dispatch";
              }
              return "?";
            }
        """)
        violations = lint.check_trace_codes(self.tree.root)
        self.assertEqual(self.rules_fired(violations), {"trace-codes"})
        self.assertIn("kIngestDone", violations[0].message)

    def test_trace_codes_quiet_when_covered(self) -> None:
        self.tree.write("src/cluster/event_loop.hpp", self.ENUM_HPP)
        self.tree.write("src/cluster/event_loop.cpp", """
            const char* trace_code_name(TraceCode code) {
              switch (code) {
                case TraceCode::kJobDispatched: return "dispatch";
                case TraceCode::kIngestDone: return "ingest-done";
              }
              return "?";
            }
        """)
        self.assertEqual(lint.check_trace_codes(self.tree.root), [])

    # -- metric-names ---------------------------------------------------------

    def test_metric_names_fires_on_bad_charset(self) -> None:
        self.tree.write("src/obs/bad.cpp", """
            registry.set_counter("graphm.Cluster.events", 1);
            registry.set_gauge("graphm.slo-state", 2);
        """)
        violations = lint.check_metric_names(self.tree.root)
        self.assertEqual(self.rules_fired(violations), {"metric-names"})
        self.assertEqual(len(violations), 2)

    def test_metric_names_accepts_valid_and_prefix_literals(self) -> None:
        self.tree.write("src/obs/ok.cpp", """
            registry.set_counter("graphm.cluster.events", 1);
            std::string prefix = "graphm.slo." + name;  // built-up prefix
        """)
        self.assertEqual(lint.check_metric_names(self.tree.root), [])

    # -- seed-derivation ------------------------------------------------------

    def test_seed_derivation_fires_on_raw_splitmix_and_arithmetic(self) -> None:
        self.tree.write("src/cluster/bad.cpp", """
            util::SplitMix64 rng(seed);
            util::SplitMix64 other(util::derive_stream_seed(seed ^ 17, 1));
        """)
        violations = lint.check_seed_derivation(self.tree.root)
        self.assertEqual(self.rules_fired(violations), {"seed-derivation"})
        self.assertEqual(len(violations), 2)  # raw ctor + seed ^ arithmetic

    def test_seed_derivation_quiet_on_derived_streams(self) -> None:
        self.tree.write("src/cluster/ok.cpp", """
            util::SplitMix64 rng(util::derive_stream_seed(seed, kJitterStream));
        """)
        self.assertEqual(lint.check_seed_derivation(self.tree.root), [])

    # -- getenv ---------------------------------------------------------------

    def test_getenv_fires_outside_allow_list(self) -> None:
        self.tree.write("src/graphm/bad.cpp", """
            #include <cstdlib>
            static const bool on = std::getenv("GRAPHM_TRACE_SHARING") != nullptr;
            const char* dir = ::getenv("HOME");
        """)
        violations = lint.check_getenv(self.tree.root)
        self.assertEqual(self.rules_fired(violations), {"getenv"})
        self.assertEqual(len(violations), 2)

    def test_getenv_allows_listed_files_and_ignores_comments(self) -> None:
        self.tree.write("src/graph/datasets.cpp", """
            const char* env = std::getenv("GRAPHM_SCALE");
        """)
        self.tree.write("src/obs/trace.cpp", """
            const char* trace_env_path() { return std::getenv("GRAPHM_TRACE"); }
        """)
        self.tree.write("src/obs/trace.hpp", """
            /// The check is one getenv per call.
            const char* name = "getenv(";
            const char* v = my_getenv("X");
        """)
        self.assertEqual(lint.check_getenv(self.tree.root), [])

    # -- sharing-trace-names --------------------------------------------------

    SHARING_CPP = """
        void SharingController::trace_event(const char* name, JobId job, std::uint64_t d) {}
        void SharingController::release(JobId job, PartitionId pid) {
          trace_event("release", job, pid);
          // trace_event("commented_out", job, 0);
        }
        void SharingController::end_chunk(JobId job, PartitionId pid, std::uint32_t c) {
          trace_event("end_chunk", job, c);
        }
    """

    @staticmethod
    def observability_doc(names: str) -> str:
        return f"""
            | track | what it shows |
            |---|---|
            | `job #N` | one span per job |
            | `sharing #G` | one instant per protocol transition: {names} (job argument) |
        """

    def test_sharing_trace_names_fires_on_undocumented_event(self) -> None:
        self.tree.write("src/graphm/sharing_controller.cpp", self.SHARING_CPP)
        self.tree.write("docs/observability.md", self.observability_doc("`release`"))
        violations = lint.check_sharing_trace_names(self.tree.root)
        self.assertEqual(self.rules_fired(violations), {"sharing-trace-names"})
        self.assertEqual(len(violations), 1)
        self.assertIn('"end_chunk"', violations[0].message)
        self.assertEqual(violations[0].path.as_posix(), "src/graphm/sharing_controller.cpp")
        self.assertEqual(violations[0].line, 8)

    def test_sharing_trace_names_fires_on_event_never_emitted(self) -> None:
        self.tree.write("src/graphm/sharing_controller.cpp", self.SHARING_CPP)
        self.tree.write("docs/observability.md", self.observability_doc(
            "`release`, `start_wait`, `end_chunk`"))
        violations = lint.check_sharing_trace_names(self.tree.root)
        self.assertEqual(self.rules_fired(violations), {"sharing-trace-names"})
        self.assertEqual(len(violations), 1)
        self.assertIn("`start_wait`", violations[0].message)
        self.assertEqual(violations[0].path.as_posix(), "docs/observability.md")

    def test_sharing_trace_names_quiet_when_sets_match(self) -> None:
        self.tree.write("src/graphm/sharing_controller.cpp", self.SHARING_CPP)
        self.tree.write("docs/observability.md",
                        self.observability_doc("`end_chunk`, `release`"))
        self.assertEqual(lint.check_sharing_trace_names(self.tree.root), [])

    # -- one-run-index-builder ------------------------------------------------

    def test_one_run_index_builder_fires_outside_builder(self) -> None:
        self.tree.write("src/grid/engine.cpp", """
            void build(std::vector<graph::SourceRun>& runs, const Edge* e, std::size_t n) {
              for (std::size_t i = 0; i < n; ++i) graph::append_source_run(runs, e[i].src);
              const auto bounds = graph::sorted_run_segments (runs);
            }
        """)
        violations = lint.check_one_run_index_builder(self.tree.root)
        self.assertEqual(self.rules_fired(violations), {"one-run-index-builder"})
        self.assertEqual([v.line for v in violations], [3, 4])

    def test_one_run_index_builder_allows_builder_and_ignores_comments(self) -> None:
        self.tree.write("src/graph/run_index.cpp", """
            RunIndex index_runs(const Edge* edges, EdgeCount count) {
              RunIndex index;
              for (EdgeCount i = 0; i < count; ++i) append_source_run(index.runs, edges[i].src);
              index.segments = sorted_run_segments(index.runs);
              return index;
            }
        """)
        self.tree.write("src/graphm/chunk_table.cpp", """
            // Windows graph::index_runs(...) output, never append_source_run(runs, src).
            const char* note = "sorted_run_segments(";
            const char* also = "index_runs(";
            my_append_source_run(x);
            my_index_runs(x);
        """)
        self.assertEqual(lint.check_one_run_index_builder(self.tree.root), [])

    def test_one_run_index_builder_fires_on_run_time_partition_index(self) -> None:
        self.tree.write("src/grid/stream_engine.cpp", """
const graph::RunIndex& StreamEngine::partition_runs(std::uint32_t pid,
                                                    const ChunkSpan& span) const {
  run_cache_[pid] = graph::index_runs(span.edges, span.edge_count);
  return run_cache_[pid];
}
""")
        self.tree.write("src/graphm/sharing_controller.cpp", """
SharingController::OverlayPtr SharingController::make_overlay_locked(PartitionId pid) {
  overlay->runs = graph::index_runs(edges.data(), edges.size());
}

grid::PartitionView SharingController::build_view_locked(JobId job, PartitionId pid) {
  span.runs = new graph::RunIndex(graph::index_runs(span.edges, span.edge_count));
}
""")
        self.tree.write("src/storage/store_files.cpp", """
StoreMeta read_store_meta(const std::string& path, std::uint32_t magic) {
  meta.source_runs.push_back(graph::index_runs(first, count));
}
""")
        violations = lint.check_one_run_index_builder(self.tree.root)
        self.assertEqual(self.rules_fired(violations), {"one-run-index-builder"})
        self.assertEqual(sorted((v.path.as_posix(), v.line) for v in violations),
                         [("src/graphm/sharing_controller.cpp", 7),
                          ("src/grid/stream_engine.cpp", 4),
                          ("src/storage/store_files.cpp", 3)])

    def test_one_run_index_builder_allows_store_writer_and_overlays(self) -> None:
        self.tree.write("src/storage/store_files.cpp", """
namespace {
void helper() {}
}  // namespace

void write_store(const std::string& path, std::uint32_t magic, StoreMeta& meta) {
  for (std::uint32_t p = 0; p < meta.num_partitions; ++p) {
    meta.source_runs.push_back(graph::index_runs(first, meta.partition_edges(p)));
  }
}
""")
        self.tree.write("src/graphm/sharing_controller.cpp", """
SharingController::OverlayPtr SharingController::make_overlay_locked(
    PartitionId pid, std::uint32_t chunk_id, std::vector<graph::Edge> edges) {
  overlay->runs = graph::index_runs(edges.data(), edges.size());
}
""")
        self.assertEqual(lint.check_one_run_index_builder(self.tree.root), [])

    # -- the real tree --------------------------------------------------------

    def test_real_tree_is_clean(self) -> None:
        violations = lint.run_all(REPO_ROOT)
        self.assertEqual(violations, [],
                         "\n".join(f"{v.path}:{v.line}: [{v.rule}] {v.message}"
                                   for v in violations))


if __name__ == "__main__":
    unittest.main()
