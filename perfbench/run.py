#!/usr/bin/env python3
"""Builds and runs the repository benchmark (perfbench/vampbench.cc).

Run from the root of a checkout:

    python3 perfbench/run.py --workload kv_steady --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds an optimized binary in .bench_build/
(runtime library from src/ plus the benchmark program); later calls only rebuild what
changed. Build output goes to stderr, so the last stdout line is the
benchmark's JSON result. --selftest runs the counter-determinism gate and
then checks that every workload prints exactly the metric names
BENCHMARK.json declares, and that perfbench/expectations.json maps each
per-layer metric.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "vampbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: runtime sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", BUILD, "-j4", "--target", "vampbench"],
        stdout=sys.stderr, check=True)


def check_metric_names():
    """Every workload must print exactly the metrics BENCHMARK.json lists."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {0: [m["name"] for m in spec["end_to_end"]],
            1: [m["name"] for m in spec["per_layer"]]}
    with open(os.path.join(ROOT, "perfbench", "expectations.json")) as f:
        mapped = set(json.load(f)["per_layer_moves"])
    bad = int(mapped != set(want[1]))
    if bad:
        print("expectations.json per_layer_moves does not match per_layer: "
              f"{sorted(mapped ^ set(want[1]))}")
    for w in spec["workloads"]:
        for trace in (0, 1):
            out = subprocess.run(
                [BINARY, "--workload", w["name"], "--seed", "1",
                 "--seconds", "1", "--trace", str(trace),
                 "--trace-dir", os.path.join(BUILD, "traces")],
                stdout=subprocess.PIPE, text=True, check=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            got = list(result["metrics"])
            ok = got == want[trace] and result["correct"]
            bad += not ok
            print(f"metric names {w['name']} trace={trace}: "
                  f"{'ok' if ok else 'MISMATCH'}")
            if got != want[trace]:
                print(f"  missing {sorted(set(want[trace]) - set(got))}, "
                      f"extra {sorted(set(got) - set(want[trace]))}")
    return bad


def main():
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit(f"run.py: build failed: {e}")
    args = sys.argv[1:]
    if args == ["--selftest"]:
        rc = subprocess.run([BINARY, "--selftest"]).returncode
        sys.exit(rc or check_metric_names())
    if "--trace-dir" not in args:
        args += ["--trace-dir", os.path.join(BUILD, "traces")]
    sys.exit(subprocess.run([BINARY] + args).returncode)


if __name__ == "__main__":
    main()
