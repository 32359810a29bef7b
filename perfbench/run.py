#!/usr/bin/env python3
"""Builds and runs the layered benchmark of the encrypted store.

    python3 perfbench/run.py --workload ingest|search|durable_churn \
        --seed N --seconds S --trace 0|1 [--small]

Configures and builds perfbench/ (which compiles the library from the
repository's sources) under .bench_build/, then runs the benchmark binary.
Build output goes to stderr; the binary's stdout passes through, so the last
line printed is the run's JSON result. Result files and span dumps are
written to perfbench/out/; durable_churn data directories live under
.bench_build/ and are removed by the binary after use.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


BUILD_DIR = ROOT / ".bench_build" / "perfbench"
DATA_ROOT = ROOT / ".bench_build" / "perfbench-data"


def build(build_dir=BUILD_DIR, defines=()):
    """Builds the benchmark binary in build_dir, configuring it first with
    the given NAME=VALUE CMake definitions; returns the binary's path."""
    cache = build_dir / "CMakeCache.txt"
    if cache.exists() and (f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n"
                           not in cache.read_text()):
        # A build tree configured for another checkout: CMake refuses it.
        shutil.rmtree(build_dir)
    if not cache.exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        configure += ["-D" + d for d in defines]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "essdds_perfbench", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return build_dir / "essdds_perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--small", action="store_true",
                        help="shrink every corpus ~20x (for quick checks)")
    args = parser.parse_args()

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace,
           "--out-dir", str(HERE / "out"),
           "--data-root", str(DATA_ROOT)]
    if args.small:
        cmd.append("--small")
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
