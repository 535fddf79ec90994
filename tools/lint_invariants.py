#!/usr/bin/env python3
"""Project invariant linter: mechanical checks for the contracts the test
suite can't see (docs/static-analysis.md).

Rules
-----
wall-clock        src/cluster/ and src/dist/ are discrete-event-simulated:
                  every timestamp must come from the DES clock. Any wall-clock
                  read (std::chrono::steady_clock / system_clock, time(),
                  gettimeofday, clock_gettime) would break the golden FNV
                  trace pins.
rng               rand()/srand() and raw std::random_device are banned
                  everywhere outside src/util/rng*: all randomness flows from
                  the seeded util::SplitMix64 streams so runs replay
                  bit-identically.
trace-codes       every cluster::TraceCode enumerator must have a case in
                  trace_code_name() — an unnamed code would export as "?" and
                  silently degrade the Perfetto timeline.
metric-names      every string literal that starts with "graphm." must match
                  graphm.[a-z0-9_.]+ — one flat lowercase dotted namespace,
                  so dashboards and validate_trace.py can rely on the charset.
seed-derivation   in src/cluster/ and src/dist/, util::derive_stream_seed is
                  the ONLY way to turn the root seed into a stream seed: a
                  SplitMix64 seeded any other way, or ad-hoc seed arithmetic
                  (seed ^ x, seed + x, ...), silently decorrelates streams
                  (docs/cluster.md, determinism contract).
getenv            environment reads in src/ are confined to an allow-list
                  (graph/datasets.cpp: GRAPHM_CACHE_DIR, GRAPHM_SCALE;
                  obs/trace.cpp: GRAPHM_TRACE). Behaviour switches belong in
                  config structs the caller sets, not in hidden environment
                  variables.
sharing-trace-names
                  the names passed as string literals to trace_event( in
                  src/graphm/sharing_controller.cpp are exactly the names the
                  `sharing #G` row of docs/observability.md lists: the trace
                  track's documentation can neither miss an emitted event nor
                  list one the code never emits.
one-run-index-builder
                  in src/, append_source_run( and sorted_run_segments( appear
                  only in the run-index builder's files (src/graph/run_index.*):
                  every source-run index is built by graph::index_runs, so
                  chunk tables, snapshot overlays and the engine's partition
                  index share one run granularity and one shape.

Exit status: 0 when clean, 1 when any rule fires. Output is one
`path:line: [rule] message` per violation — clickable in editors and CI logs.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys
from typing import Callable, List, NamedTuple

CXX_SUFFIXES = {".hpp", ".cpp", ".h", ".cc", ".cxx"}
DES_DIRS = ("src/cluster", "src/dist")
RNG_EXEMPT_PREFIX = "src/util/rng"

WALL_CLOCK_PATTERNS = [
    (re.compile(r"std::chrono::steady_clock"), "std::chrono::steady_clock"),
    (re.compile(r"std::chrono::system_clock"), "std::chrono::system_clock"),
    (re.compile(r"\bsteady_clock::now\b"), "steady_clock::now"),
    (re.compile(r"\bsystem_clock::now\b"), "system_clock::now"),
    (re.compile(r"\bgettimeofday\s*\("), "gettimeofday()"),
    (re.compile(r"\bclock_gettime\s*\("), "clock_gettime()"),
    (re.compile(r"(?<![\w:.])time\s*\(\s*(?:NULL|nullptr|0|\))"), "time()"),
]

RNG_PATTERNS = [
    (re.compile(r"(?<![\w:])s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"std::random_device"), "std::random_device"),
]

METRIC_LITERAL = re.compile(r'"(graphm\.[^"]*)"')
METRIC_NAME_OK = re.compile(r"graphm\.[a-z0-9_.]+\Z")

SEED_ARITHMETIC = re.compile(r"\b(?:root_)?seed\b\s*[\^+*%]|[\^+*%]\s*\b(?:root_)?seed\b")
SPLITMIX_CTOR = re.compile(r"\bSplitMix64\b(?:\s+\w+)?\s*[({]")

GETENV_CALL = re.compile(r"(?<![\w])getenv\s*\(")
GETENV_ALLOWED = {"src/graph/datasets.cpp", "src/obs/trace.cpp"}

SHARING_SOURCE = "src/graphm/sharing_controller.cpp"
OBSERVABILITY_DOC = "docs/observability.md"
TRACE_EVENT_NAME = re.compile(r'\btrace_event\(\s*"([^"]*)"')
SHARING_ROW = re.compile(r"^[ \t]*\|\s*`sharing #G`\s*\|(.*)$", re.MULTILINE)
BACKTICKED = re.compile(r"`([^`]+)`")

RUN_INDEX_PRIMITIVE = re.compile(r"(?<![\w])(append_source_run|sorted_run_segments)\s*\(")
RUN_INDEX_BUILDER = {"src/graph/run_index.hpp", "src/graph/run_index.cpp"}

ENUMERATOR = re.compile(r"^\s*(k[A-Za-z0-9]+)\s*=\s*\d+\s*,", re.MULTILINE)
CASE_LABEL = re.compile(r"case\s+TraceCode::(k[A-Za-z0-9]+)\s*:")


class Violation(NamedTuple):
    path: pathlib.Path
    line: int
    rule: str
    message: str


def strip_comments_and_strings(text: str, keep_strings: bool = False) -> str:
    """Blanks // and /* */ comments (and, unless keep_strings, string/char
    literals) while preserving every newline, so line numbers survive."""
    out: List[str] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif c == "/" and nxt == "*":
            i += 2
            while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                if text[i] == "\n":
                    out.append("\n")
                i += 1
            i += 2
        elif c in "\"'" and not keep_strings:
            quote = c
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    i += 1
                elif text[i] == "\n":
                    out.append("\n")
                i += 1
            i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def cxx_files(root: pathlib.Path, subdirs: List[str]) -> List[pathlib.Path]:
    files: List[pathlib.Path] = []
    for sub in subdirs:
        base = root / sub
        if not base.is_dir():
            continue
        files.extend(p for p in sorted(base.rglob("*")) if p.suffix in CXX_SUFFIXES)
    return files


def line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


def check_wall_clock(root: pathlib.Path) -> List[Violation]:
    violations: List[Violation] = []
    for path in cxx_files(root, list(DES_DIRS)):
        code = strip_comments_and_strings(path.read_text())
        flagged_lines = set()  # the patterns overlap; one finding per line
        for pattern, label in WALL_CLOCK_PATTERNS:
            for m in pattern.finditer(code):
                line = line_of(code, m.start())
                if line in flagged_lines:
                    continue
                flagged_lines.add(line)
                violations.append(Violation(
                    path.relative_to(root), line, "wall-clock",
                    f"{label} in DES code — all time must come from the simulated clock"))
    return violations


def check_rng(root: pathlib.Path) -> List[Violation]:
    violations: List[Violation] = []
    for path in cxx_files(root, ["src"]):
        rel = path.relative_to(root).as_posix()
        if rel.startswith(RNG_EXEMPT_PREFIX):
            continue
        code = strip_comments_and_strings(path.read_text())
        for pattern, label in RNG_PATTERNS:
            for m in pattern.finditer(code):
                violations.append(Violation(
                    path.relative_to(root), line_of(code, m.start()), "rng",
                    f"{label} — use the seeded util::SplitMix64 streams (util/rng.hpp)"))
    return violations


def check_trace_codes(root: pathlib.Path) -> List[Violation]:
    header = root / "src/cluster/event_loop.hpp"
    source = root / "src/cluster/event_loop.cpp"
    if not header.is_file() or not source.is_file():
        return []  # fixture trees without the cluster layer skip this rule
    header_text = header.read_text()
    enum_match = re.search(r"enum class TraceCode[^{]*\{(.*?)\};", header_text, re.DOTALL)
    if enum_match is None:
        return [Violation(header.relative_to(root), 1, "trace-codes",
                          "TraceCode enum not found")]
    enumerators = ENUMERATOR.findall(strip_comments_and_strings(enum_match.group(1)))
    cases = set(CASE_LABEL.findall(strip_comments_and_strings(source.read_text())))
    violations: List[Violation] = []
    for name in enumerators:
        if name not in cases:
            line = line_of(header_text, header_text.find(name))
            violations.append(Violation(
                header.relative_to(root), line, "trace-codes",
                f"TraceCode::{name} has no case in trace_code_name() "
                "(src/cluster/event_loop.cpp)"))
    return violations


def check_metric_names(root: pathlib.Path) -> List[Violation]:
    violations: List[Violation] = []
    for path in cxx_files(root, ["src"]):
        text = strip_comments_and_strings(path.read_text(), keep_strings=True)
        for m in METRIC_LITERAL.finditer(text):
            name = m.group(1)
            if not METRIC_NAME_OK.match(name):
                violations.append(Violation(
                    path.relative_to(root), line_of(text, m.start()), "metric-names",
                    f'metric literal "{name}" must match graphm.[a-z0-9_.]+'))
    return violations


def check_seed_derivation(root: pathlib.Path) -> List[Violation]:
    violations: List[Violation] = []
    for path in cxx_files(root, list(DES_DIRS)):
        code = strip_comments_and_strings(path.read_text())
        for m in SPLITMIX_CTOR.finditer(code):
            # The seed expression is everything up to the matching closer;
            # a statement-sized window is enough for the derive check.
            window = code[m.end():m.end() + 200].split(";", 1)[0]
            if "derive_stream_seed" not in window:
                violations.append(Violation(
                    path.relative_to(root), line_of(code, m.start()), "seed-derivation",
                    "SplitMix64 seeded without util::derive_stream_seed — named "
                    "streams are the only sanctioned root-seed derivation"))
        for m in SEED_ARITHMETIC.finditer(code):
            violations.append(Violation(
                path.relative_to(root), line_of(code, m.start()), "seed-derivation",
                "ad-hoc arithmetic on a seed — derive stream seeds with "
                "util::derive_stream_seed only"))
    return violations


def check_getenv(root: pathlib.Path) -> List[Violation]:
    violations: List[Violation] = []
    for path in cxx_files(root, ["src"]):
        rel = path.relative_to(root)
        if rel.as_posix() in GETENV_ALLOWED:
            continue
        code = strip_comments_and_strings(path.read_text())
        for m in GETENV_CALL.finditer(code):
            violations.append(Violation(
                rel, line_of(code, m.start()), "getenv",
                "environment read outside the allow-list — add a config field "
                "instead of an environment switch"))
    return violations


def check_sharing_trace_names(root: pathlib.Path) -> List[Violation]:
    source = root / SHARING_SOURCE
    doc = root / OBSERVABILITY_DOC
    if not source.is_file() or not doc.is_file():
        return []  # fixture trees without the sharing layer skip this rule
    code = strip_comments_and_strings(source.read_text(), keep_strings=True)
    emitted = {}  # name -> line of its first trace_event call
    for m in TRACE_EVENT_NAME.finditer(code):
        emitted.setdefault(m.group(1), line_of(code, m.start()))
    doc_text = doc.read_text()
    row = SHARING_ROW.search(doc_text)
    if row is None:
        return [Violation(doc.relative_to(root), 1, "sharing-trace-names",
                          "no `sharing #G` row listing the sharing trace events")]
    documented = set(BACKTICKED.findall(row.group(1)))
    row_line = line_of(doc_text, row.start())
    violations: List[Violation] = []
    for name in sorted(emitted.keys() - documented):
        violations.append(Violation(
            source.relative_to(root), emitted[name], "sharing-trace-names",
            f'trace_event("{name}") is missing from the `sharing #G` row of '
            f"{OBSERVABILITY_DOC}"))
    for name in sorted(documented - emitted.keys()):
        violations.append(Violation(
            doc.relative_to(root), row_line, "sharing-trace-names",
            f"`{name}` is listed in the `sharing #G` row but {SHARING_SOURCE} "
            "never emits it"))
    return violations


def check_one_run_index_builder(root: pathlib.Path) -> List[Violation]:
    violations: List[Violation] = []
    for path in cxx_files(root, ["src"]):
        rel = path.relative_to(root)
        if rel.as_posix() in RUN_INDEX_BUILDER:
            continue
        code = strip_comments_and_strings(path.read_text())
        for m in RUN_INDEX_PRIMITIVE.finditer(code):
            violations.append(Violation(
                rel, line_of(code, m.start()), "one-run-index-builder",
                f"{m.group(1)}() outside src/graph/run_index.* — build run "
                "indexes with graph::index_runs"))
    return violations


CHECKS: List[Callable[[pathlib.Path], List[Violation]]] = [
    check_wall_clock,
    check_rng,
    check_trace_codes,
    check_metric_names,
    check_seed_derivation,
    check_getenv,
    check_sharing_trace_names,
    check_one_run_index_builder,
]


def run_all(root: pathlib.Path) -> List[Violation]:
    violations: List[Violation] = []
    for check in CHECKS:
        violations.extend(check(root))
    return violations


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parent.parent,
                        help="repository root to lint (default: this repo)")
    args = parser.parse_args(argv)
    violations = run_all(args.root.resolve())
    for v in sorted(violations):
        print(f"{v.path}:{v.line}: [{v.rule}] {v.message}")
    if violations:
        print(f"lint_invariants: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    print("lint_invariants: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
