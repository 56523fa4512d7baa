#!/usr/bin/env python3
"""Build and run the verdict benchmark on one workload.

    python3 verdict_bench/run.py --workload symbolic --seed 1 --seconds 55 --trace 0

Run from the root of a checkout.  The first run configures and builds the
library and the benchmark from source into $CARGO_TARGET_DIR (default
.bench_build) with the repository's shipped configuration; later runs only
check that the build is current.  Build output goes to standard error.  The
benchmark prints every metric by name with its unit, and its last line of
standard output is the JSON result.  Exits non-zero without a result when the
library sources are missing, the build fails, or any verdict is wrong.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("symbolic", "explicit")
# Pinned build: the repository's default configuration as shipped.
CONFIGURE = [
    "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
    "-DICTL_OBS=ON",
    "-DICTL_FAILPOINTS=ON",
]
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def source_revision():
    """The git revision when there is one, else a digest of the sources."""
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if rev.returncode == 0:
                return rev.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt", *sorted((ROOT / "src").rglob("*"))]
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"library sources not found under {ROOT}")
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "verdict_bench"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(build_dir), *CONFIGURE],
        ["cmake", "--build", str(build_dir), "--target", "verdict_bench", "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return build_dir / "verdict_bench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--trip-every", type=int,
                        help="run every K-th query under a 1 ns deadline")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--revision", source_revision()]
    if args.trip_every is not None:
        cmd += ["--trip-every", str(args.trip_every)]
    try:
        result = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
