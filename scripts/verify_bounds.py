"""Run the full non-sweep verification battery and summarize per check.

Covers the sampled growth/Lyapunov suites, the normal-expectation lower
bound ladder, the variance identity plus normality test, and the two solver
consistency checks (conjugated-route equivalence, first variation vs flow
differences). The consistency checks run on the quadratic member with
width-1 bump supports; on the default narrow supports their discrepancy is
dominated by the O(dt) Euler quadrature error of the steep bump derivative
and no honest tolerance this tight would hold.

Usage: python scripts/verify_bounds.py [--trials 100000] [--check-paths 100000]
Exit code 0 iff every battery passed.
"""

from __future__ import annotations

import argparse
import sys

from sde_lab import cli

GENTLE = ["--n", "2", "--tau", "1.0", "--T", "2.0"]

def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trials", type=int, default=100_000)
    ap.add_argument("--check-paths", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=None)
    ns = ap.parse_args()

    seed = [] if ns.seed is None else ["--seed", str(ns.seed)]
    batteries = [
        ["verify-bounds", "--trials", str(ns.trials)],
        ["lemma21"],
        ["stdnorm-check", "--check-paths", str(ns.check_paths)],
        ["transform-check", *GENTLE, "--dt", str(1.0 / 4096)],
        ["variation-check", *GENTLE, "--dt", str(2.0 / 32768)],
    ]
    failures = 0
    for argv in batteries:
        print(f"==> sde-lab {' '.join(argv)}")
        failures += cli.main(argv + seed) != 0
    print(f"{len(batteries) - failures}/{len(batteries)} batteries passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
