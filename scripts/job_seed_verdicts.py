"""Verdicts of benchmark jobs, one JSON line per job seed, outside any timing.

For every workload seed in --seeds and job index in --jobs, builds the job
that ``perfbench/run.py --workload W --seed S`` runs as job i (its job seed
and its argv come from perfbench's own ``workloads.job_seed`` and
``workloads.make_job``), runs it with perfbench's ``worker.run_job`` in
this single-threaded process, and prints its exit codes, failure reasons
and output sha256. Run it on two checkouts and compare the lines to see
whether a change moves any verdict or any output bit, whichever jobs a
timed run happens to reach.

Usage:

    python scripts/job_seed_verdicts.py --workload trajectories --seeds 1-5 --jobs 0-3
    python scripts/job_seed_verdicts.py --root ../other-checkout --workload sweep --seeds 3 --jobs 1

--root is the checkout whose ``src``, ``tests`` and ``perfbench`` are used
(default: the one holding this script). Ranges are inclusive: ``1-5``,
``7`` or ``1,3,8-9``. Exit code 0 unless a job's output broke the CLI's
contract (a failure of kind "output").
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _int_ranges(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=str(Path(__file__).resolve().parents[1]))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=_int_ranges, required=True, help="workload seeds")
    ap.add_argument("--jobs", type=_int_ranges, required=True, help="job indices")
    args = ap.parse_args(argv)

    # as perfbench's worker runs: one BLAS thread, the checkout's code first
    os.environ.update({var: "1" for var in _THREAD_VARS})
    root = Path(args.root).resolve()
    for sub in ("tests", "src", "perfbench"):
        sys.path.insert(0, str(root / sub))
    import worker
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}, choose from {workloads.WORKLOADS}")
    lab = worker.load_lab(root)
    broken = False
    for seed in args.seeds:
        for index in args.jobs:
            jseed = workloads.job_seed(args.workload, seed, index)
            with tempfile.TemporaryDirectory() as outdir:
                job = workloads.make_job(args.workload, jseed, outdir)
                rec = worker.run_job(lab, job, Path(outdir))
            broken |= any(f["kind"] == "output" for f in rec["failures"])
            print(json.dumps({
                "workload": args.workload, "seed": seed, "job": index, "job_seed": jseed,
                "exit": rec["exit"], "failures": rec["failures"],
                "sha256": rec["sha256"],
            }), flush=True)
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
