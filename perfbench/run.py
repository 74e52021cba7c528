#!/usr/bin/env python3
"""Builds and runs the ntrace benchmark.

    python3 perfbench/run.py --workload study|outofcore|whatif \
        [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout. The first call configures and builds
perfbench/ (and with it the library in src/) under the build root, which is
$CARGO_TARGET_DIR if set, else .bench_build, relative to the checkout root.
Later calls only re-run the incremental build. Build output goes to stderr;
stdout ends with the run descriptor and then the result object, which this
script checks against BENCHMARK.json before printing it last. Any failure
exits non-zero without printing a result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEEDS = {"study": 1999, "outofcore": 1999, "whatif": 7}
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_root():
    root = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return root if root.is_absolute() else ROOT / root


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("cmake configure failed")
    if subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return build_dir / "perfbench_ntrace"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(DEFAULT_SEEDS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    if seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        fail(f"no ntrace sources under {ROOT}")

    root = build_root()
    exe = build(root / "perfbench")
    work_dir = root / "work" / args.workload
    command = [str(exe), "--workload", args.workload, "--seed", str(seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--work-dir", str(work_dir)]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if run.returncode != 0:
        fail(f"benchmark exited with {run.returncode}")
    lines = run.stdout.strip().splitlines()
    if len(lines) < 2:
        fail("benchmark printed no result")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")
    mismatch = expected_metrics(args.trace) ^ set(result["metrics"])
    if mismatch:
        fail(f"metrics differ from BENCHMARK.json: {sorted(mismatch)}")
    print(lines[-2])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
