#!/usr/bin/env python3
"""Benchmark entry point: builds the driver from source, runs one workload
and prints one JSON result line.

    python3 perfbench/run.py --workload dense-msdt-o4 --seed 1 --seconds 30 --trace 0

--trace 0 reports the end-to-end metrics of an untraced run, --trace 1 the
per-layer metrics of a traced run (see perfbench/README.md). Run from the
repository root. --out FILE also saves the full result (metrics, raw
record, machine fingerprint) as JSON; name it *.result.json.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import metrics  # noqa: E402

BUILD = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD / "perfbench_driver"
DRIVER_TIMEOUT_S = 170
# What perfbench/CMakeLists.txt always compiles with.
BUILD_FLAGS = "-O3 -march=native -DNDEBUG"


def build():
    """Configure and build the driver; returns False (with the log on
    stderr) when the sources are missing or do not compile."""
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD)])
    steps.append(["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1)])
    with open(log, "w") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode:
                f.flush()
                sys.stderr.write(log.read_text()[-4000:])
                return False
    return True


def fingerprint():
    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return "unknown"

    cpu = "unknown"
    for line in read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True).stdout.strip()
    except OSError:
        commit = ""
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "l3": read("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "build_flags": BUILD_FLAGS,
        "commit": commit or "unknown",
        "omp_threads_main": 1,
        "threads_per_rank": 1,
        "python": platform.python_version(),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also save the full result here")
    args = ap.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [str(DRIVER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if args.trace:
        trace_file = BUILD / ("%s-seed%d.trace.json" % (args.workload, args.seed))
        cmd += ["--trace", str(trace_file)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: driver timed out", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print("perfbench: driver exited with %d" % proc.returncode, file=sys.stderr)
        return 1
    raw = json.loads(proc.stdout.strip().splitlines()[-1])

    if args.trace:
        values, problems = metrics.per_layer(raw)
        units = metrics.PER_LAYER_UNITS
        attempted, failed = 1, 1 if problems else 0
    else:
        values, attempted, failed, problems = metrics.end_to_end(raw)
        units = metrics.END_TO_END_UNITS
    for p in problems:
        print("perfbench: check failed: " + p, file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    if args.out:
        full = dict(result, workload=args.workload, seed=args.seed,
                    trace=args.trace, problems=problems,
                    fingerprint=fingerprint(), raw=raw)
        Path(args.out).write_text(json.dumps(full, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
