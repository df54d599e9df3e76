"""Exact-count check: two traced runs with one seed must agree exactly.

Runs ``run.py --trace 1`` twice for each named workload and compares the
counts in tracing.EXACT_COUNTS. Exits 1 if any differs.

Usage (from the root of a checkout):

    python3 perfbench/check_counts.py --seed 1 sweep trajectories sampling
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent


def traced_counts(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, check=True,
    ).stdout
    metrics = json.loads(out.strip().splitlines()[-1])["metrics"]
    return {name: metrics[name]["value"] for name in tracing.EXACT_COUNTS}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("workload", nargs="+", choices=workloads.WORKLOADS)
    args = ap.parse_args(argv)
    ok = True
    for workload in args.workload:
        first, second = (traced_counts(workload, args.seed) for _ in range(2))
        for name in tracing.EXACT_COUNTS:
            same = first[name] == second[name]
            ok = ok and same
            print(f"{workload:12s} {name:32s} {first[name]!r:>24} "
                  f"{second[name]!r:>24} {'same' if same else 'DIFFERENT'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
