#!/usr/bin/env python3
"""Builds and runs the SuccinctEdge benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
engine and the benchmark program (Release) under $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; later runs only
rebuild what changed. The program's output is passed through; its last
line is the JSON result, which this script checks against the metric
names and units in BENCHMARK.json before exiting 0. Results and traced
spans are also written to --results-dir (default .bench_out).

Extra options for the self-test (perfbench/selftest.py): --tiny runs
the workload at a small size; --corrupt-expected perturbs one expected
answer, which must then show up as a failed operation.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("lubm-hot", "sensor-ingest", "serve-mixed", "dist-k4")
RUN_TIMEOUT_S = 175


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "database.h")):
        fail("engine sources (src/) not found next to perfbench/")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def source_digest():
    """sha256 over the engine and benchmark sources (paths and bytes)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result keys: %s" % sorted(result))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int):
        fail("failed must be a whole number")
    want = expected_metrics(trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        fail("metrics differ from BENCHMARK.json: missing %s extra %s unit %s"
             % (missing, extra, wrong))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--corrupt-expected", action="store_true")
    p.add_argument("--results-dir", default=os.path.join(ROOT, ".bench_out"))
    args = p.parse_args()

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", args.results_dir,
           "--source-sha", git_sha(), "--source-digest", source_digest()]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt_expected:
        cmd.append("--corrupt-expected")
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail("workload %s timed out" % args.workload)
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        fail("workload %s exited %d" % (args.workload, r.returncode))
    check_result(lines[-1], args.trace)
    sys.stdout.write(r.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
