#!/usr/bin/env python3
"""Build and run the pnats end-to-end benchmark for one workload and seed.

Run from the repository root:

  python3 perfbench/run.py --workload paper60-grep --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --self-test

The simulator and the benchmark are built from source with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); files the
runs write go to .../perfbench-out. The benchmark binary prints
human-readable lines and, last, one JSON object with the result. This
script checks that object against BENCHMARK.json (every declared metric of
the mode, with its unit, and nothing else) before passing it on, so a
printed result always has the declared shape. Exit code 0 iff the build,
the run and every check succeeded.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_root():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           os.path.join(ROOT, ".bench_build"))


def build(bdir):
    """Configures (once) and builds the benchmark; returns True on success."""
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", bdir, "--target", "perfbench", "perfbench_test",
           "-j", str(min(3, os.cpu_count() or 1))]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def check_result(line, trace):
    """Returns a list of problems with the result line (empty if none)."""
    try:
        res = json.loads(line)
    except ValueError:
        return ["last line is not JSON"]
    problems = []
    if not isinstance(res, dict) or set(res) != {"correct", "attempted",
                                                  "failed", "metrics"}:
        return ["result keys are not correct/attempted/failed/metrics"]
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        problems.append("attempted is not a whole number >= 1")
    if not isinstance(res["failed"], int) or res["failed"] < 0:
        problems.append("failed is not a whole number")
    want = declared_metrics(trace)
    got = res["metrics"]
    for name in sorted(set(want) - set(got)):
        problems.append(f"metric {name} missing")
    for name in sorted(set(got) - set(want)):
        problems.append(f"metric {name} not declared in BENCHMARK.json")
    for name in sorted(set(want) & set(got)):
        if got[name].get("unit") != want[name]:
            problems.append(f"metric {name} unit {got[name].get('unit')!r} "
                            f"!= declared {want[name]!r}")
        if not isinstance(got[name].get("value"), (int, float)):
            problems.append(f"metric {name} has no numeric value")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()
    if not args.self_test and None in (args.workload, args.seed,
                                       args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    bdir = os.path.join(build_root(), "perfbench")
    if not build(bdir):
        log("build failed")
        return 1
    if args.self_test:
        return subprocess.run([os.path.join(bdir, "perfbench_test")],
                              cwd=bdir).returncode

    out_dir = os.path.join(build_root(), "perfbench-out")
    cmd = [os.path.join(bdir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--out-dir", out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.rstrip("\n").splitlines()
    for line in lines[:-1]:
        print(line)
    problems = check_result(lines[-1], args.trace) if lines else ["no output"]
    if problems:
        for p in problems:
            log(p)
        log(f"benchmark exited with {proc.returncode}; no valid result")
        return proc.returncode or 1
    # A run whose checks failed still reports them: correct is false.
    print(lines[-1], flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
