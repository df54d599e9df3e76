"""sde-lab benchmark: one workload, one run, one JSON line of metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

The workload runs in its own single-threaded worker process (worker.py),
which calls ``sde_lab.cli.main`` with arguments generated from ``--seed``
and checks every job's outputs. Set-up time is measured separately, in
fresh processes (setup_probe.py). With ``--trace 0`` the last line of
stdout carries the end-to-end metrics; with ``--trace 1`` the worker also
re-runs job 0 under a span tracer and the line carries the per-layer
metrics. A run record (seeds, argv, versions, output hashes) and, when
traced, the spans are written under ``.bench_runs/`` in the checkout.

Exits 1 without printing a result if the checkout lacks the program or a
process does not finish in time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 3
DEADLINE_S = 170.0  # every run must exit within 180 s
UNITS = {"job_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


def _single_thread_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    paths = [str(ROOT / "src"), str(ROOT / "tests")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _pin_to_one_cpu() -> None:
    """Keep this process and its children on the last CPU it may use.

    On a shared 2-CPU guest, unpinned runs of one job split into a fast and
    a slow group, depending on where the scheduler put the worker; pinning
    makes every run time the same CPU.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _git_commit() -> str:
    """HEAD of the checkout if it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _run_child(cmd, env, deadline) -> subprocess.CompletedProcess:
    return subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()), check=True,
    )


def measure_setup(models, env, deadline) -> list:
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(ROOT), json.dumps(models)]
    return [
        json.loads(_run_child(cmd, env, deadline).stdout.strip().splitlines()[-1])["setup_s"]
        for _ in range(SETUP_PROBES)
    ]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="sde-lab benchmark")
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    _pin_to_one_cpu()
    for needed in ("src/sde_lab/cli.py", "tests/oracles.py"):
        if not (ROOT / needed).is_file():
            print(f"perfbench: {needed} not found under {ROOT}", file=sys.stderr)
            return 1

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = ROOT / ".bench_runs" / tag
    run_dir.mkdir(parents=True, exist_ok=True)
    env = _single_thread_env()
    try:
        setup = []
        if not args.trace:
            models = workloads.make_job(
                args.workload, workloads.job_seed(args.workload, args.seed, 0), "."
            ).models
            setup = measure_setup(models, env, deadline)
        result_file = run_dir / "worker.json"
        _run_child(
            [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--root", str(ROOT),
             "--run-dir", str(run_dir), "--result", str(result_file)],
            env, deadline,
        )
        worker = json.loads(result_file.read_text())
    except subprocess.TimeoutExpired as exc:
        print(f"perfbench: {exc.cmd[1]} did not finish in time", file=sys.stderr)
        return 1
    except subprocess.CalledProcessError as exc:
        print(f"perfbench: {exc.cmd[1]} failed:\n{exc.stderr}", file=sys.stderr)
        return 1

    jobs = worker["jobs"]
    failed = sum(1 for j in jobs if j["failures"])
    correct = not any(f["kind"] == "output" for j in jobs for f in j["failures"])
    timed = [j["seconds"] for j in jobs if not j["traced"]]
    if args.trace:
        metrics = worker["layers"]
        units = {name: tracing.layer_unit(name) for name in metrics}
    else:
        metrics = {
            "job_s": statistics.median(timed),
            "setup_s": statistics.median(setup),
            "peak_rss_mib": worker["peak_rss_mib"],
        }
        units = UNITS

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": _git_commit(), "cpu_count": os.cpu_count(),
        "versions": worker["versions"], "setup_s": setup, "jobs": jobs,
        "metrics": metrics,
    }
    (run_dir / "record.json").write_text(json.dumps(record, indent=1))

    for j in jobs:
        state = "FAILED " + "; ".join(f["reason"] for f in j["failures"]) if j["failures"] else "ok"
        kind = "traced" if j["traced"] else "timed"
        print(f"job {j['job']} ({kind}, seed {j['job_seed']}): {j['seconds']:.3f} s, {state}")
    print(f"{len(timed)} timed jobs; failed_frac {failed / len(jobs):.3f} "
          f"({failed} failed / {len(jobs)} attempted); "
          f"setup probes {[round(s, 4) for s in setup]}; record {run_dir / 'record.json'}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
