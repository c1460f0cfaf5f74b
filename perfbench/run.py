#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload at one seed.

    python3 perfbench/run.py --workload maint_storm --seed 1988 --seconds 15 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The build lives in .bench_build/ (CMake,
RelWithDebInfo, the repository's default build type); trace files and
spill scratch go to .bench_build/out/. The last line of standard output
is the benchmark's JSON result; build logs and per-job lines go to
standard error. See perfbench/README.md.
"""
import argparse
import glob
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
OUT = os.path.join(BUILD, "out")
DEFAULT_SEED = 1988
HELD_OUT_SEED = 7919
RUN_TIMEOUT_S = 170
# Runnable workloads that BENCHMARK.json leaves out (README.md says why).
BY_HAND = ["storm_sharded", "ring_million"]


def build(targets):
    """Configures (once) and builds; returns False with the log on stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", CMAKE_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", CMAKE_DIR, "-j", jobs, "--target"] + targets)
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
        except OSError as e:
            print(f"perfbench: cannot run {cmd[0]}: {e}", file=sys.stderr)
            return False
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            print("perfbench: build failed", file=sys.stderr)
            return False
    return True


def run_bench(args, capture=False):
    """Runs the benchmark binary; returns (exit code, stdout or None)."""
    cmd = [os.path.join(CMAKE_DIR, "perfbench")] + args + ["--out", OUT]
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S, text=True,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, None
    return done.returncode, done.stdout


def merge_traces():
    """Joins the per-workload Chrome traces (one process each) into one file."""
    events = []
    for path in sorted(glob.glob(os.path.join(OUT, "*.trace.json"))):
        with open(path) as f:
            events += json.load(f)["traceEvents"]
    with open(os.path.join(OUT, "all_workloads.json"), "w") as f:
        json.dump({"displayTimeUnit": "ms", "traceEvents": events}, f)


def selftest():
    if not build(["perfbench", "perfbench_selftest"]):
        return 1
    if subprocess.run([os.path.join(CMAKE_DIR, "perfbench_selftest")], cwd=ROOT).returncode:
        return 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[section]}
        for w in [w["name"] for w in spec["workloads"]] + BY_HAND:
            code, out = run_bench(["--workload", w, "--seed", str(DEFAULT_SEED), "--seconds",
                                   "0.05", "--trace", str(trace), "--toy"], capture=True)
            result = json.loads(out.strip().splitlines()[-1]) if code == 0 and out else {}
            got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
            ok = (sorted(result) == ["attempted", "correct", "failed", "metrics"]
                  and result["correct"] and result["failed"] == 0 and got == want)
            print(f"{'ok  ' if ok else 'FAIL'} {w} --trace {trace}: every {section} metric "
                  f"with its unit, failed = {result.get('failed')}")
            failures += not ok
    print("perfbench selftest", "FAILED" if failures else "passed")
    return 1 if failures else 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload",
                   help="a workload of BENCHMARK.json, or one of " + ", ".join(BY_HAND))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"input seed (default {DEFAULT_SEED}; held out for claims: "
                        f"{HELD_OUT_SEED})")
    p.add_argument("--seconds", type=float, default=36)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true")
    a = p.parse_args()
    if a.selftest:
        return selftest()
    if a.workload is None:
        p.error("--workload is required")
    if a.seed < 0 or a.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if not build(["perfbench"]):
        return 1
    code, _ = run_bench(["--workload", a.workload, "--seed", str(a.seed),
                         "--seconds", str(a.seconds), "--trace", str(a.trace)])
    if code == 0 and a.trace:
        try:
            merge_traces()
        except (OSError, ValueError, KeyError) as e:
            print(f"perfbench: could not merge traces: {e}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
