#!/usr/bin/env python3
"""halsim end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the simulator and the benchmark program from source (CMake, the
repository's default RelWithDebInfo build type) into .bench_build/ at
the repository root, then runs one workload on one thread. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1 (which also writes a Chrome trace
under .bench_build/traces/). `--workload all` runs every workload in
turn, each in its own process, and ends with one combined object whose
metric names are prefixed by the workload.

Exits non-zero without a result when the build fails or an output
check fails.
"""

import argparse
import ctypes
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ["hal_nat_60g", "hal_rem_40g", "hal_kvs_diurnal", "fleet_crash"]


def fixed_layout():
    """Child-process hook: turn address-space randomisation off.

    Heap and stack placement moves halsim_perfbench's set-up time by up to 2x
    between otherwise identical processes; with randomisation off every
    run gets the same layout. Where the kernel refuses, runs proceed
    with randomisation on.
    """
    addr_no_randomize = 0x0040000
    libc = ctypes.CDLL(None, use_errno=True)
    current = libc.personality(0xFFFFFFFF)
    if current != -1:
        libc.personality(current | addr_no_randomize)


def build():
    """Configure (once) and build; compiler output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def binary(name):
    return os.path.join(BUILD, name)


def run_one(workload, seed, seconds, trace, capture=False):
    cmd = [binary("halsim_perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%d.json" % (workload, seed))]
    sys.stdout.flush()
    if not capture:
        return subprocess.run(cmd, preexec_fn=fixed_layout).returncode, None
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          preexec_fn=fixed_layout)
    return proc.returncode, proc.stdout


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    build()
    if args.workload != "all":
        code, _ = run_one(args.workload, args.seed, args.seconds, args.trace)
        return code

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for w in WORKLOADS:
        code, out = run_one(w, args.seed, args.seconds, args.trace,
                            capture=True)
        lines = out.splitlines()
        for line in lines[:-1]:
            print(line)
        worst = max(worst, code)
        if code or not lines:
            print("perfbench: %s exited %d" % (w, code), file=sys.stderr)
            continue
        res = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            combined["metrics"]["%s.%s" % (w, name)] = m
    if worst:
        return worst
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
