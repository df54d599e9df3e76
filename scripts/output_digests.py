"""Output digests of small CLI runs, one JSON line per config.

Runs a fixed list of small ``sde-lab`` configs, covering every subcommand
and both solvers (among them a one-start cascade ``simulate`` and Euler
sweeps with a general v and delta at d = 7, tamed and untamed, with two
threads, and at d = 9 with m = 2, and a d = 7 ``verify-bounds`` whose
trials end in a one-row tail of the sampled checks' row blocks, and
``stdnorm-check`` at a tau past T/2 and with a one-path tail, and
``transform-check`` at d = 9 with m = 2 and on one path, and
``variation-check`` on 769 steps, one past three windows of 256) and
models other than the default (the gentle n = 2 model on width-1 supports,
and narrow supports at tau = 0.2, T = 0.6), so the bump normalizations and
kappa_t in ``sweep_summary.json`` are compared too. Each runs
in a fresh process with one BLAS thread and its own output directory. For
each it prints the exit code and the sha256 of stdout and of every file
the run wrote. Run it on two checkouts and diff the outputs to see whether
a change moves any output bit.

Usage:

    python scripts/output_digests.py > a.jsonl
    python scripts/output_digests.py --root ../other-checkout > b.jsonl
    diff a.jsonl b.jsonl
    python scripts/output_digests.py --only simulate-cascade,lemma21

--root is the checkout whose ``src`` is run (default: the one holding this
script). --only runs the named configs alone, in list order. Exit code 0
unless a run ended with an exit code outside 0, 1 and 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

_V7 = ["--d", "7", "--v", "0.4,-0.3,0.2,0.1,-0.5,0.3,0.6",
       "--delta", "0.7,0.2,-0.4,0.3,0.1,-0.2,0.5"]
_V9 = ["--d", "9", "--m", "2", "--v", "0.2,0.1,-0.3,0.4,0.0,-0.1,0.3,0.2,-0.4",
       "--delta", "0.3,-0.5,0.2,0.1,0.6,0.2,-0.3,0.4,0.1"]
_DT512 = ["--dt", "0.001953125"]
_GENTLE = ["--n", "2", "--tau", "1", "--T", "2"]
_NARROW = ["--tau", "0.2", "--T", "0.6", "--dt", "0.0005"]

CONFIGS = {
    "verify-bounds": ["verify-bounds", "--trials", "2000"],
    "lemma21": ["lemma21"],
    "stdnorm-check": ["stdnorm-check", "--check-paths", "2000"],
    "simulate-cascade": ["simulate", "--path-index", "3"],
    "simulate-cascade-d7": ["simulate", "--path-index", "3", *_V7],
    "simulate-em-d7": ["simulate", "--solver", "em", "--path-index", "3", *_V7],
    "sweep-cascade": ["sweep", "--n-paths", "600", "--threads", "2"],
    "sweep-cascade-d7": ["sweep", "--n-paths", "1025", *_V7],
    "sweep-em-dt512": ["sweep", "--solver", "em", "--n-paths", "600", *_DT512],
    "sweep-em-d7-tamed": ["sweep", "--solver", "em", "--taming", "--n-paths", "1025", *_V7],
    "sweep-em-d7-untamed-threads2": ["sweep", "--solver", "em", "--no-taming", "--n-paths",
                                     "1025", "--threads", "2", *_V7],
    "sweep-em-d9-m2": ["sweep", "--solver", "em", "--n-paths", "300", *_V9],
    "sweep-em-eps-list": ["sweep", "--solver", "em", "--n-paths", "300", "--eps",
                          "0.3,0.05,0.001", *_DT512],
    "transform-check-d7": ["transform-check", "--paths", "8", *_V7],
    "transform-check-d9-m2": ["transform-check", "--paths", "4", *_V9],
    # one path runs the Euler loop as two equal rows
    "transform-check-paths1": ["transform-check", "--paths", "1", *_V7],
    "variation-check": ["variation-check", "--paths", "4", "--dt", "0.000244140625"],
    # 769 = 3 * 256 + 1 steps: the last window of 256 steps leaves a one-step tail
    "variation-check-odd-steps": ["variation-check", "--paths", "3", "--dt", "0.0013003901170351106"],
    "verify-bounds-gentle": ["verify-bounds", "--trials", "2000", *_GENTLE],
    # two full blocks of the sampled checks and a one-row tail
    "verify-bounds-d7": ["verify-bounds", "--trials", "8193", *_V7],
    "stdnorm-check-gentle": ["stdnorm-check", "--check-paths", "2000", *_GENTLE],
    # X3(tau) past T/2 reads the sines of the Box-Muller pairs
    "stdnorm-check-late-tau": ["stdnorm-check", "--check-paths", "2000", "--tau", "0.8"],
    # one block of stdnorm-check's paths and a one-path tail
    "stdnorm-check-tail": ["stdnorm-check", "--check-paths", "4097"],
    "sweep-cascade-gentle": ["sweep", "--n-paths", "600", "--t-eval", "1.8", *_GENTLE],
    "sweep-cascade-narrow": ["sweep", "--n-paths", "600", "--t-eval", "0.5", *_NARROW],
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_config(root: Path, argv: list) -> dict:
    """Exit code and sha256 of stdout and of each output file of one CLI run."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), **{var: "1" for var in _THREAD_VARS})
    with tempfile.TemporaryDirectory() as outdir:
        proc = subprocess.run(
            [sys.executable, "-m", "sde_lab.cli", *argv, "--output", outdir],
            capture_output=True, cwd=outdir, env=env,
        )
        files = {
            str(path.relative_to(outdir)): _sha256(path.read_bytes())
            for path in sorted(Path(outdir).rglob("*")) if path.is_file()
        }
    return {"exit": proc.returncode, "stdout": _sha256(proc.stdout), "files": files}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=str(Path(__file__).resolve().parents[1]))
    ap.add_argument("--only", help="comma-separated config names")
    args = ap.parse_args(argv)
    names = list(CONFIGS)
    if args.only:
        unknown = set(args.only.split(",")) - set(names)
        if unknown:
            ap.error(f"unknown configs {sorted(unknown)}, choose from {names}")
        names = [name for name in names if name in args.only.split(",")]

    root = Path(args.root).resolve()
    broken = False
    for name in names:
        rec = run_config(root, CONFIGS[name])
        broken |= rec["exit"] not in (0, 1, 2)
        print(json.dumps({"config": name, "argv": CONFIGS[name], **rec}), flush=True)
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
