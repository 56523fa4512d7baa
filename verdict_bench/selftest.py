#!/usr/bin/env python3
"""The verdict benchmark's own test.

    python3 verdict_bench/selftest.py

Run from the root of a checkout (it builds through run.py).  It checks:
  * budget trips: with every second query under a 1 ns deadline the run goes
    on, failed_ratio > 0, and the queries right after a failure still return
    their known answers;
  * determinism: one seed gives one query list (same digest), another seed a
    different one, and every count metric of the traced run (unit count or
    ratio) repeats exactly between two runs with the same seed.
Exits non-zero on the first failed check.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("symbolic", "explicit")


def bench(workload, seed, trace, *extra):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), *extra]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        sys.exit(f"FAIL: {' '.join(cmd)} exited {done.returncode}\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    digest = re.search(r"digest=([0-9a-f]+)", done.stdout).group(1)
    return json.loads(lines[-1]), digest, done.stdout


def check(condition, message):
    if not condition:
        sys.exit("FAIL: " + message)
    print("ok:", message)


def test_budget_trips():
    for workload in WORKLOADS:
        result, _, out = bench(workload, 5, 0, "--trip-every", "2")
        recovered = int(re.search(r"right after a failure: (\d+)", out).group(1))
        check(result["correct"] and result["failed"] > 0,
              f"{workload}: a 1 ns deadline fails queries "
              f"(failed_ratio {result['failed']}/{result['attempted']})")
        check(result["attempted"] > result["failed"] and recovered >= 1,
              f"{workload}: the run goes on and {recovered} queries right after "
              "a trip return their known answers")


def test_determinism():
    for workload in WORKLOADS:
        first, digest1, _ = bench(workload, 9, 1)
        second, digest2, _ = bench(workload, 9, 1)
        _, digest_other, _ = bench(workload, 10, 0)
        check(digest1 == digest2, f"{workload}: seed 9 gives one query list ({digest1})")
        check(digest1 != digest_other, f"{workload}: seed 10 gives another query list")
        counts = {name: m["value"] for name, m in first["metrics"].items()
                  if m["unit"] in ("count", "ratio")}
        again = {name: second["metrics"][name]["value"] for name in counts}
        check(counts == again,
              f"{workload}: {len(counts)} count metrics repeat exactly "
              f"(bdd.peak_nodes {counts['bdd.peak_nodes']:.0f}, "
              f"bdd.cache_evictions {counts['bdd.cache_evictions']:.0f})")


if __name__ == "__main__":
    test_budget_trips()
    test_determinism()
    print("all checks passed")
