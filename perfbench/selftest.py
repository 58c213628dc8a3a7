#!/usr/bin/env python3
"""Self-tests of the halsim benchmark.

    python3 perfbench/selftest.py

Builds the benchmark, runs the C++ wrapper self-test (SampledRate
forwards exactly; RunResults are identical with and without it), then
runs every workload shortened (--scale) in both modes on two seeds and
checks that:
  - every run passes its output checks and ends with the result object;
  - every metric name matches [A-Za-z0-9_.-]+, has a unit, and the set
    printed equals the end_to_end / per_layer lists in BENCHMARK.json;
  - a different seed changes the simulated outputs (RunResult digest)
    but not the metric set.
Exits 0 when all hold.
"""

import json
import os
import re
import subprocess
import sys

import run

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
SCALE = "0.05"


def bench(workload, seed, trace):
    cmd = [run.binary("halsim_perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.01", "--trace", str(trace),
           "--scale", SCALE]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          preexec_fn=run.fixed_layout)
    lines = proc.stdout.splitlines()
    digests = [l for l in lines if l.startswith("digest ")]
    return proc.returncode, json.loads(lines[-1]), digests


def main():
    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    run.build()
    code = subprocess.run([run.binary("perfbench_selftest")]).returncode
    expect(code == 0, "wrapper self-test")

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}

    for w in run.WORKLOADS:
        for trace in (0, 1):
            seen = {}
            for seed in (1, 2):
                code, res, digests = bench(w, seed, trace)
                tag = "%s trace=%d seed=%d" % (w, trace, seed)
                expect(code == 0 and res["correct"] and res["failed"] == 0
                       and res["attempted"] >= 1, tag + ": checks pass")
                metrics = res["metrics"]
                expect(all(NAME.match(n) and m["unit"]
                           for n, m in metrics.items()),
                       tag + ": names and units well formed")
                expect({n: m["unit"] for n, m in metrics.items()}
                       == declared[trace],
                       tag + ": metric set matches BENCHMARK.json")
                seen[seed] = (set(metrics), digests[0].split()[4])
            expect(seen[1][0] == seen[2][0],
                   "%s trace=%d: metric set independent of seed" % (w, trace))
            expect(seen[1][1] != seen[2][1],
                   "%s trace=%d: seed changes the RunResult" % (w, trace))

    print("%s: %d failure(s)" % ("FAILED" if failures else "passed",
                                 len(failures)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
