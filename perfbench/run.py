#!/usr/bin/env python3
"""End-to-end benchmark of the WET pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload build|interactive|analysis|bounded \
        --seed N --seconds S --trace 0|1

The first run in a checkout configures and builds perfbench/ (which
compiles the libraries under src/) into $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench. Serving workloads then run a
preparation child (artifact build, seeded query lists, reference
answers) before the measuring process. Every metric is printed on its
own line with its unit and sample count; the last line of stdout is
the result JSON. With --trace 1 the run also records spans around each
layer call and reports the per-layer metrics instead.
"""

import argparse
import json
import os
import subprocess
import sys
import time

WORKLOADS = ("build", "interactive", "analysis", "bounded")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(bench_dir, build_dir):
    """Configure once, then bring the binary up to date."""
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", bench_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "wetperf"])
    with open(log_path, "w") as log:
        for cmd in steps:
            left = deadline - time.monotonic()
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=max(left, 1)).returncode
            except subprocess.TimeoutExpired:
                rc = -1
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(build_dir, "wetperf")


def check_result(line, trace):
    """The result line must name exactly the metrics BENCHMARK.json
    lists for this kind of run, with the same units."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result line has unexpected keys")
    if not os.path.exists("BENCHMARK.json"):
        return
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail(f"result metrics differ from BENCHMARK.json: {got} vs {want}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    if not os.path.exists(os.path.join(bench_dir, "..", "src",
                                       "CMakeLists.txt")):
        fail("no WET sources next to perfbench/ (expected ../src)")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(target, "perfbench"))
    work = os.path.abspath(os.path.join(target, "work"))
    os.makedirs(work, exist_ok=True)
    binary = build(bench_dir, build_dir)

    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--trace", str(args.trace), "--work", work]
    deadline = time.monotonic() + RUN_TIMEOUT_S
    if args.workload != "build":
        try:
            prep = subprocess.run([binary, "prep"] + common,
                                  capture_output=True, text=True,
                                  timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("preparation timed out")
        sys.stdout.write(prep.stdout)
        sys.stderr.write(prep.stderr)
        if prep.returncode != 0:
            fail(f"preparation failed with code {prep.returncode}")
    try:
        run = subprocess.run([binary, "measure", "--seconds",
                              str(args.seconds)] + common,
                             capture_output=True, text=True,
                             timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        fail("measurement timed out")
    sys.stderr.write(run.stderr)
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0 or not lines[-1].startswith("{"):
        sys.stdout.write(run.stdout)
        fail(f"measurement failed with code {run.returncode}")
    check_result(lines[-1], args.trace)
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
