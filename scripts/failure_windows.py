"""Failure share of a timed benchmark run, by the number of jobs it holds.

A run of ``perfbench/run.py --seconds S`` runs jobs 0, 1, ... and stops at
the first job that ends at or past S seconds, so with jobs of about
``job_s`` seconds it holds N jobs when job_s lies in [S/N, S/(N-1)). Job i's
seed depends on i alone, so a faster change reads the verdicts of more job
seeds. For each (workload, seed) of one ``scripts/job_seed_verdicts.py``
output, this prints, for N = 1 up to the longest run of consecutive jobs
from 0 in the file, the failed/attempted share a run of N jobs reads and
the job_s window that yields N jobs. A job fails when it has failures, as
perfbench counts them.

Usage:

    python scripts/job_seed_verdicts.py --workload sweep --seeds 1 --jobs 0-40 > v.jsonl
    python scripts/failure_windows.py v.jsonl --seconds 10

Uses the standard library only. Exit code 2 if the file cannot be read or
repeats a (workload, seed, job).
"""

from __future__ import annotations

import argparse
import json
import sys


def _load(path: str) -> dict:
    """{(workload, seed): {job: failed}} from verdict lines."""
    runs = {}
    with open(path, encoding="utf-8") as fh:
        for number, text in enumerate(fh, 1):
            if not text.strip():
                continue
            try:
                rec = json.loads(text)
                key, job, failed = (rec["workload"], rec["seed"]), rec["job"], bool(rec["failures"])
            except (ValueError, KeyError, TypeError) as exc:
                raise ValueError(f"{path}:{number}: not a verdict line ({exc})") from None
            jobs = runs.setdefault(key, {})
            if job in jobs:
                raise ValueError(f"{path}:{number}: repeats job {job} of {key}")
            jobs[job] = failed
    return runs


def windows(jobs: dict, seconds: float) -> list[dict]:
    """One row per job count N over the consecutive jobs 0..N-1 in jobs."""
    rows, failed, n = [], 0, 0
    while n in jobs:
        failed += jobs[n]
        n += 1
        rows.append({
            "jobs": n,
            "failed": failed,
            "share": failed / n,
            "job_s_from": seconds / n,
            "job_s_below": seconds / (n - 1) if n > 1 else float("inf"),
        })
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("verdicts", help="output of scripts/job_seed_verdicts.py")
    ap.add_argument("--seconds", type=float, required=True, help="the runs' --seconds")
    args = ap.parse_args(argv)
    try:
        runs = _load(args.verdicts)
    except (OSError, ValueError) as exc:
        print(f"failure_windows: {exc}", file=sys.stderr)
        return 2
    for (workload, seed), jobs in sorted(runs.items()):
        failing = ", ".join(str(j) for j in sorted(jobs) if jobs[j]) or "none"
        print(f"{workload} seed {seed}: failing jobs {failing} of {len(jobs)} jobs in the file")
        print("  jobs  failed  share  job_s window")
        for row in windows(jobs, args.seconds):
            window = f"[{row['job_s_from']:.3f}, {row['job_s_below']:.3f}) s"
            print(f"  {row['jobs']:4d}  {row['failed']:2d}/{row['jobs']:<3d} {row['share']:.3f}  {window}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
