#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at a tiny size through perfbench/run.py and asserts
that (1) the untraced run prints every end-to-end metric of
BENCHMARK.json with its unit and reports no failed operation, (2) the
traced run prints every per-layer metric with its unit, and (3) a run
with one deliberately wrong expected answer reports it as a failed
operation (correct: false) instead of crashing. Exits non-zero on the
first violated assertion. Takes about a minute after the build.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("lubm-hot", "sensor-ingest", "serve-mixed", "dist-k4")


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
           "--tiny", "--results-dir", os.path.join(ROOT, ".bench_out",
                                                   "selftest")] + list(extra)
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=600)
    if r.returncode != 0:
        sys.exit("FAIL %s trace=%d %s: exit %d\n%s" %
                 (workload, trace, extra, r.returncode, r.stderr[-2000:]))
    return json.loads(r.stdout.splitlines()[-1])


def expect(cond, msg):
    if not cond:
        sys.exit("FAIL " + msg)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res = run(workload, trace)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == want, "%s trace=%d: metric names or units differ"
                   % (workload, trace))
            expect(all(isinstance(v["value"], (int, float))
                       for v in res["metrics"].values()),
                   "%s trace=%d: non-numeric value" % (workload, trace))
            expect(res["correct"] and res["failed"] == 0,
                   "%s trace=%d: %d of %d operations failed"
                   % (workload, trace, res["failed"], res["attempted"]))
            if trace == 0:
                expect(all(v["value"] > 0 for v in res["metrics"].values()),
                       "%s: an end-to-end metric reads 0" % workload)
        bad = run(workload, 0, "--corrupt-expected")
        expect(not bad["correct"] and bad["failed"] >= 1,
               "%s: a wrong expected answer was not reported as failed"
               % workload)
        print("ok  %s" % workload)
    print("selftest passed")


if __name__ == "__main__":
    main()
