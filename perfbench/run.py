#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 perfbench/run.py --workload lookup|store|flap --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds
perfbench/ (and the library it links) under $CARGO_TARGET_DIR, default
.bench_build; later runs reuse that build. The benchmark's standard output
is passed through. Its last line is one JSON object with the keys correct,
attempted, failed and metrics; this script checks that object against the
metric lists in BENCHMARK.json and exits non-zero if it does not match, if
a check inside the benchmark failed, or if the build failed.
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


def build(build_dir):
    """Configure and build perfbench; build output goes to stderr."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", "4"], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def validate(line, trace):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys differ from correct/attempted/failed/metrics"
    if result["correct"] is not True:
        return "the benchmark's output checks failed"
    want = expected_metrics(trace)
    got = result["metrics"]
    if set(got) != set(want):
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        return f"metric set differs: missing {missing}, extra {extra}"
    for name, unit in want.items():
        if got[name]["unit"] != unit:
            return f"metric {name} has unit {got[name]['unit']}, want {unit}"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["lookup", "store", "flap"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        log(f"no library sources next to {HERE}; nothing to benchmark")
        return 2

    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target_dir, "perfbench")
    try:
        binary = build(build_dir)
    except subprocess.CalledProcessError as e:
        log(f"build failed: {e}")
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(ROOT, target_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 3
    lines = proc.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n" if len(lines) > 1 else "")
    if proc.returncode != 0:
        log(f"benchmark exited with code {proc.returncode}")
        sys.stdout.write(lines[-1] + "\n")
        return 1
    try:
        problem = validate(lines[-1], args.trace == 1)
    except (ValueError, KeyError, TypeError) as e:
        problem = f"unreadable result line: {e}"
    if problem:
        log(problem)
        return 1
    sys.stdout.write(lines[-1] + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
