#!/usr/bin/env python3
"""HolMS benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the library and the benchmark binary from source (CMake, Release) into
.bench_build/ at the root of the checkout, runs one workload, and prints the
binary's report.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  With --trace 0 the metrics
are the end_to_end metrics of BENCHMARK.json; with --trace 1 they are its
per_layer metrics, and the recorded spans are written to
.bench_build/spans-<workload>-<seed>.jsonl.

Workloads, metrics and the layer map are described in perfbench/README.md.
The exit code is 0 only when the build succeeded, every output check passed
and the metric names match BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "holms_perfbench")
WORKLOADS = ("explore_farm", "serve_mixed", "serve_fgs", "analyze_buffer")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"library sources not found under {ROOT}/src")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", BUILD, "--target", "holms_perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")


def expected_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode (None if absent)."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans",
                os.path.join(BUILD, f"spans-{args.workload}-{args.seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("holms_perfbench printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result line has the wrong keys")
    expected = expected_metrics(args.trace)
    if expected is not None:
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != expected:
            missing = sorted(set(expected) - set(got))
            extra = sorted(set(got) - set(expected))
            fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
                 f"unexpected {extra} (or a unit differs)")
    print(lines[-1])
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
