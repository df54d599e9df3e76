"""Runs one workload's jobs in this (fresh, single-threaded) process.

Started by run.py with the checkout's ``src`` and ``tests`` directories on
PYTHONPATH and every BLAS/OpenMP thread count set to 1. Calls
``sde_lab.cli.main(argv)`` with generated arguments, times each job, checks
its outputs, hashes them, and writes one JSON result file. With ``--trace
1`` it then runs job 0 once more under a Tracer and adds the per-layer
metrics and the span file.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import importlib
import io
import json
import resource
import shutil
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import tracing  # perfbench/tracing.py: the script directory leads sys.path
import workloads

TRACED_MODULES = (
    "paths", "solvers", "model", "bumps", "quadrature", "bounds", "montecarlo", "cli",
)


def load_lab(root: Path) -> SimpleNamespace:
    """Import the package modules and the test oracles from ``root``."""
    import sde_lab

    src = (root / "src").resolve()
    if src not in Path(sde_lab.__file__).resolve().parents:
        raise RuntimeError(f"sde_lab imported from {sde_lab.__file__}, not {src}")
    mods = {name: importlib.import_module(f"sde_lab.{name}") for name in TRACED_MODULES}
    mods["oracles"] = importlib.import_module("oracles")
    return SimpleNamespace(package=sde_lab, modules=mods, **mods)


def traced_modules(lab) -> dict:
    return dict(lab.modules, sde_lab=lab.package)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _call_cli(lab, argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = lab.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a traceback escaping the CLI's contract
            code, error = None, f"{type(exc).__name__}: {exc}"
    return {"argv": argv, "exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue(), "error": error}


def _report_failure(call: dict) -> tuple[str, str] | None:
    """(kind, reason) if this CLI call failed, else None.

    Exit 1 with a report saying passed=false is the CLI's own check failing
    (kind "gate"); anything else off the CLI's contract is kind "output".
    """
    code, stdout = call["exit"], call["stdout"]
    if code not in (0, 1):
        return "output", f"exit {code}: {call['error'] or call['stderr'].strip()[:300]}"
    try:
        report = json.loads(stdout)
    except ValueError:
        return "output", f"exit {code} without a JSON report"
    if report.get("passed") is not (code == 0):
        return "output", f"exit {code} but the report says passed={report.get('passed')}"
    return None if code == 0 else ("gate", f"exit 1: {report.get('check')} failed")


def run_job(lab, job: workloads.Job, outdir: Path) -> dict:
    """Run and time one job, then check it and hash its outputs."""
    t0 = time.perf_counter()
    calls = [_call_cli(lab, argv) for argv in job.argvs]
    finished = all(c["exit"] in (0, 1) for c in calls)
    post = job.post(str(outdir), lab) if finished and job.post is not None else None
    elapsed = time.perf_counter() - t0

    failures = []
    hashes = {}
    output_bytes = 0
    for call in calls:
        bad = _report_failure(call)
        if bad is not None:
            failures.append({"kind": bad[0], "reason": f"{call['argv'][0]}: {bad[1]}"})
        hashes[f"{call['argv'][0]}.report.json"] = _sha256(call["stdout"].encode())
        output_bytes += len(call["stdout"].encode())
    for name in job.outputs:
        path = outdir / name
        if path.is_file():
            data = path.read_bytes()
            hashes[name] = _sha256(data)
            output_bytes += len(data)
        elif all(c["exit"] == 0 for c in calls):
            failures.append({"kind": "output", "reason": f"missing output {name}"})
    if post is not None:
        failures += [{"kind": "gate", "reason": r} for r in job.check(str(outdir), post)]
    return {
        "argv": [c["argv"] for c in calls],
        "exit": [c["exit"] for c in calls],
        "seconds": elapsed,
        "failures": failures,
        "sha256": hashes,
        "output_bytes": output_bytes,
    }


def run_workload(lab, job_for, seconds: float, trace: bool, run_dir: Path) -> dict:
    """Jobs ``job_for(i, outdir) -> (job_seed, Job)`` for i = 0, 1, ... until
    ``seconds`` have passed (at least one), untraced; with ``trace``, job 0
    once more under a Tracer."""
    records = []
    start = time.perf_counter()
    while True:
        i = len(records)
        outdir = run_dir / f"job{i}"
        jseed, job = job_for(i, str(outdir))
        rec = run_job(lab, job, outdir)
        rec.update(job=i, job_seed=jseed, traced=False)
        records.append(rec)
        shutil.rmtree(outdir, ignore_errors=True)
        if time.perf_counter() - start >= seconds:
            break
    result = {"jobs": records, "layers": None}
    if trace:
        outdir = run_dir / "traced-job0"
        jseed, job = job_for(0, str(outdir))
        tracer = tracing.Tracer()
        tracer.job_id = 0
        tracer.install(traced_modules(lab))
        try:
            rec = run_job(lab, job, outdir)
        finally:
            tracer.uninstall()
        shutil.rmtree(outdir, ignore_errors=True)
        rec.update(job=0, job_seed=jseed, traced=True)
        records.append(rec)
        overhead = rec["seconds"] / records[0]["seconds"] - 1.0
        result["layers"] = tracing.layer_metrics(tracer, rec["output_bytes"], overhead)
        with gzip.open(run_dir / "spans.tsv.gz", "wt", compresslevel=1) as fh:
            tracer.write_spans(fh)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", required=True)
    ap.add_argument("--run-dir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    lab = load_lab(Path(args.root))
    run_dir = Path(args.run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)

    def job_for(i, outdir):
        jseed = workloads.job_seed(args.workload, args.seed, i)
        return jseed, workloads.make_job(args.workload, jseed, outdir)

    result = run_workload(lab, job_for, args.seconds, bool(args.trace), run_dir)
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    import numpy
    import scipy

    result["versions"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
