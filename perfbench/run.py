#!/usr/bin/env python3
"""Runs one workload of the PairUpLight end-to-end benchmark.

    python3 perfbench/run.py --workload grid6x6_f1_train --seed 1 \
        --seconds 40 --trace 0

Builds perfbench/ (which compiles the repository's src/ libraries from
source) into .bench_build/perfbench, runs the pairup_perfbench binary, and
prints its result record followed, as the last line, by

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1). Records and span files are kept under
.bench_build/perfbench/results. Exits non-zero without a result line when
the sources are missing, the build fails, or the run fails or times out.
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS_DIR = os.path.join(BUILD_DIR, "results")
BINARY = os.path.join(BUILD_DIR, "pairup_perfbench")
RUN_TIMEOUT_S = 170


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def source_sha256():
    """Hash of every file the benchmark binary is built from."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die(f"no src/CMakeLists.txt under {ROOT}: the benchmark builds the "
            "repository from source")
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            generator = "Ninja" if shutil.which("ninja") else "Unix Makefiles"
            configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-G", generator,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                die("cmake configure failed")
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        if subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                          stdout=sys.stderr).returncode != 0:
            die("build failed")


def expected_metrics(trace):
    """(name, unit) pairs BENCHMARK.json declares for this kind of run."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    section = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def check_traced_against_untraced(record, result):
    """The traced run must train exactly what the untraced run trained."""
    cache = os.path.join(RESULTS_DIR, f"{record['workload']}.untraced.json")
    if not os.path.isfile(cache):
        record["trace_consistency"] = "no untraced run of this build yet"
        return
    with open(cache) as f:
        untraced = json.load(f)
    if untraced.get("source_sha256") != record["source_sha256"]:
        record["trace_consistency"] = "untraced run was of another build"
        return
    same = untraced["eval_avg_wait_s"] == record["eval_avg_wait_s"]
    result["attempted"] += 1
    if not same:
        result["failed"] += 1
        record["failures"].append(
            f"traced eval_avg_wait_s {record['eval_avg_wait_s']} != untraced "
            f"{untraced['eval_avg_wait_s']}")
    record["trace_consistency"] = "same eval_avg_wait_s" if same else "differs"
    record["tracing_overhead_frac"] = record["iter_s"] / untraced["iter_s"] - 1.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        die("--seed must be >= 0 and --seconds > 0")

    build()
    os.makedirs(RESULTS_DIR, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = os.path.join(BUILD_DIR, "work", f"{stem}-{os.getpid()}")
    spans = os.path.join(RESULTS_DIR, stem + ".spans.jsonl")
    tree_sha = source_sha256()
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir, "--spans", spans,
               "--git-sha", git_sha(), "--source-sha", tree_sha]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if run.returncode != 0:
        die(f"pairup_perfbench exited with code {run.returncode}")

    lines = run.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-2])["perfbench_record"]
        result = json.loads(lines[-1])
    except (IndexError, KeyError, ValueError):
        die("pairup_perfbench printed no result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        die("result line has the wrong keys")
    expected = expected_metrics(args.trace)
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    if expected is not None and reported != expected:
        die(f"metrics {sorted(reported.items())} do not match BENCHMARK.json "
            f"{sorted(expected.items())}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            die(f"metric {name} is not a finite number")

    if args.trace:
        check_traced_against_untraced(record, result)
    else:
        with open(os.path.join(RESULTS_DIR, f"{args.workload}.untraced.json"), "w") as f:
            json.dump({key: record[key] for key in
                       ("source_sha256", "seed", "eval_avg_wait_s", "iter_s")}, f)
    result["correct"] = result["failed"] == 0
    record["correct"], record["attempted"], record["failed"] = (
        result["correct"], result["attempted"], result["failed"])
    if args.trace:
        record["spans_file"] = os.path.relpath(spans, ROOT)
    with open(os.path.join(RESULTS_DIR, stem + ".json"), "w") as f:
        json.dump(record, f, indent=1)

    print(json.dumps({"perfbench_record": record}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
