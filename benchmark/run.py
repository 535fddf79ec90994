#!/usr/bin/env python3
"""Builds graphm_bench and runs the wall-clock benchmark of GraphM's job service.

Usage (from the repository root):

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmark/run.py --seed 1            # every workload, untraced then traced

graphm_bench is configured from benchmark/CMakeLists.txt into build-benchmark/
and rebuilt incrementally on every call (build output goes to stderr). Each
workload prints its metrics as `name value unit` lines, then one JSON line:

    {"correct": true, "attempted": 48, "failed": 0, "metrics": {"name": {"value": v, "unit": u}}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 its
per-layer metrics, and writes build-benchmark/trace/<seed>/<workload>.trace.json
(checked with tools/validate_trace.py) and <workload>.layers.json.

Correctness: graphm_bench checks the first timed jobs against the reference
oracle and reports rejected or cancelled jobs. Here, the FNV-1a result hashes of
batch_shared and batch_isolated are compared job for job whenever both have run
with the same seed and the same graphm_bench binary (the cross-scheme
bit-identity contract),
and a traced run must split each job's stream time into kernel + store reads +
a non-negative unattributed rest. Any failure makes `correct` false and the
exit code 1. --record FILE appends each workload's result, with its name and
seed, as one JSON line for benchmark/compare.py.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, "build-benchmark")
BINARY = os.path.join(BUILD, "graphm_bench")
VALIDATE_TRACE = os.path.join(ROOT, "tools", "validate_trace.py")
RUN_TIMEOUT_S = 170
IDENTITY_TOLERANCE = 0.01

# Workloads that run the identical graph and job list under different schemes.
CROSS_SCHEME = {"batch_shared": "batch_isolated", "batch_isolated": "batch_shared"}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_config():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def build():
    steps = [["cmake", "--build", BUILD, "--target", "graphm_bench", "-j", "4"]]
    # Once configured, the build step re-runs CMake itself when a CMakeLists
    # or a source glob changes.
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise SystemExit(f"run.py: build step failed: {' '.join(cmd)}")


def binary_digest():
    digest = hashlib.sha256()
    with open(BINARY, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()[:16]


def cross_scheme_mismatches(workload, seed, hashes):
    """Saves this run's hashes; returns mismatches against the partner scheme.

    Hashes are kept per graphm_bench binary, so only runs of the same build
    are compared; those of earlier builds are deleted.
    """
    root = os.path.join(BUILD, "hashes")
    build_id = binary_digest()
    if os.path.isdir(root):
        for entry in os.listdir(root):
            if entry != build_id:
                shutil.rmtree(os.path.join(root, entry), ignore_errors=True)
    directory = os.path.join(root, build_id)
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, f"{workload}-{seed}.json"), "w", encoding="utf-8") as f:
        json.dump(hashes, f)
    partner = CROSS_SCHEME.get(workload)
    path = os.path.join(directory, f"{partner}-{seed}.json")
    if partner is None or not os.path.exists(path):
        return []
    with open(path, encoding="utf-8") as f:
        other = json.load(f)
    common = sorted(set(hashes) & set(other), key=int)
    log(f"[{workload}] cross-scheme check against {partner}: {len(common)} jobs")
    return [k for k in common if hashes[k] != other[k]]


def trace_problems(workload, trace_dir):
    problems = []
    trace = os.path.join(trace_dir, f"{workload}.trace.json")
    if os.path.exists(VALIDATE_TRACE):
        check = subprocess.run([sys.executable, VALIDATE_TRACE, trace],
                               stdout=sys.stderr, stderr=sys.stderr)
        if check.returncode != 0:
            problems.append("trace failed tools/validate_trace.py")
    with open(os.path.join(trace_dir, f"{workload}.layers.json"), encoding="utf-8") as f:
        identity = json.load(f)["identity"]
    parts = identity["kernel_s"] + identity["read_s"] + identity["unattributed_s"]
    if abs(parts - identity["stream_s"]) > IDENTITY_TOLERANCE * identity["stream_s"]:
        problems.append(f"stream time {identity['stream_s']} != parts {parts}")
    if identity["min_job_unattributed_s"] < 0:
        problems.append("a job's kernel + reads exceed its stream time")
    return problems


def run_workload(config, workload, seed, seconds, trace):
    metric_specs = config["per_layer" if trace else "end_to_end"]
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--data-dir", os.path.join(BUILD, "data")]
    trace_dir = os.path.join(BUILD, "trace", str(seed))
    if trace:
        cmd += ["--trace", trace_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"run.py: {workload} exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise SystemExit(f"run.py: graphm_bench exited with {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])

    problems = list(out["problems"])
    mismatches = cross_scheme_mismatches(workload, seed, out["hashes"])
    problems += [f"job {k} differs from {CROSS_SCHEME[workload]}" for k in mismatches]
    if trace:
        problems += trace_problems(workload, trace_dir)

    metrics = {}
    for spec in metric_specs:
        name = spec["name"]
        if name not in out["metrics"]:
            raise SystemExit(f"run.py: graphm_bench did not report {name}")
        value, unit = out["metrics"][name]
        if unit != spec["unit"]:
            raise SystemExit(f"run.py: {name} reported in {unit}, BENCHMARK.json says {spec['unit']}")
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name} {value!r} {unit}")

    failed = out["failed"] + len(mismatches)
    for p in problems:
        log(f"[{workload}] PROBLEM: {p}")
    return {
        "correct": failed == 0 and not problems,
        "attempted": out["attempted"],
        "failed": failed,
        "metrics": metrics,
    }


def main():
    config = load_config()
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", choices=names, help="default: every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=config["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="default: 0 with --workload, else both")
    parser.add_argument("--record", help="append each result as a JSON line to this file")
    args = parser.parse_args()

    if args.trace is not None:
        traces = [args.trace]
    else:
        traces = [0] if args.workload else [0, 1]

    build()
    all_correct = True
    for workload in [args.workload] if args.workload else names:
        for trace in traces:
            if not args.workload:
                print(f"# {workload} --trace {trace}")
            result = run_workload(config, workload, args.seed, args.seconds, trace == 1)
            if args.record:
                with open(args.record, "a", encoding="utf-8") as f:
                    record = {"workload": workload, "seed": args.seed, "trace": trace}
                    f.write(json.dumps({**record, **result}) + "\n")
            all_correct = all_correct and result["correct"]
            print(json.dumps(result), flush=True)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
