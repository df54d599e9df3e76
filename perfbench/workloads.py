"""The benchmark's workloads: generated CLI jobs and their correctness gates.

Standard library only, so the parent process can plan jobs and set-up
probes without importing numpy. Every input is a pure function of the
workload seed: job i of a run gets its own seed ``job_seed(workload, seed,
i)``, and any other generated value (the transform check's ``v``/``delta``)
is drawn from that job seed.

Failures never filter: a job with any failure is counted in ``failed``. Kind
"gate" is a check with a verdict: the CLI's own (exit 1 with a report saying
passed=false) or the benchmark's sweep gate against the oracle. Several of
these are statistical and fail on some seeds by design. Kind "output" is
output off the CLI's contract: another exit code, a traceback, no JSON
report, a report that contradicts the exit code, or a missing file. Only
"output" failures make a run incorrect.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("sweep", "trajectories", "sampling")

SWEEP_PATHS = 2048  # two montecarlo._CHUNKs
ORACLE_Z_NODES = 160  # headline 7's oracle settings
ORACLE_RTOL = 1e-7
MAX_ABORT_FRACTION = 0.001
MAX_ORACLE_GAP_SE = 5.0

# headline 4 and 6 use the quadratic member on width-1 supports
GENTLE = {"n": 2, "tau": 1.0, "T": 2.0}
TRANSFORM_DT = "0.000244140625"  # 1/4096
VARIATION_DT = "6.103515625e-05"  # 2/32768


def job_seed(workload: str, seed: int, index: int) -> int:
    """31-bit seed of job ``index`` in a run with workload seed ``seed``."""
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little") >> 1


def transform_vectors(jseed: int, d: int = 7) -> tuple[list, list]:
    """Shift v in [-1, 1]^d and a direction delta of norm in [0.5, 1.5],
    drawn as headline 6 draws them."""
    rng = random.Random(jseed)
    v = [rng.uniform(-1.0, 1.0) for _ in range(d)]
    delta = [rng.gauss(0.0, 1.0) for _ in range(d)]
    scale = rng.uniform(0.5, 1.5) / math.sqrt(sum(x * x for x in delta))
    return v, [x * scale for x in delta]


def _vec(values) -> str:
    return ",".join(repr(float(x)) for x in values)


@dataclass
class Job:
    """One unit of timed work: CLI invocations, then an optional oracle step.

    ``post(outdir, lab)`` runs inside the timed region once every command
    has exited 0 or 1; ``check(outdir, post_result)`` runs after timing and
    returns failure reasons.
    """

    argvs: list
    outputs: tuple = ()
    post: object = None
    check: object = None
    models: list = field(default_factory=list)


def _sweep_oracle(outdir: str, lab) -> list:
    """Headline 7's oracle means, recomputed for this job's grid."""
    with open(os.path.join(outdir, "sweep_summary.json")) as fh:
        summary = json.load(fh)
    axis = lab.model.build_axis_aligned(lab.cli.ExperimentConfig().model_params())
    means = lab.oracles.oracle_sweep_means(
        axis.f,
        axis.params.tau,
        summary["constants"]["t_grid"],
        axis.params.n,
        summary["eps"],
        z_nodes=ORACLE_Z_NODES,
        rtol=ORACLE_RTOL,
    )
    return [float(m) for m in means]


def sweep_gate(summary: dict, oracle_means) -> list:
    """Abort fraction at most 0.1%, and every epsilon's mean within 5
    standard errors of the oracle mean."""
    failures = []
    attempted = summary["n_paths"] * len(summary["eps"])
    aborted = sum(summary["aborted"])
    if aborted > MAX_ABORT_FRACTION * attempted:
        failures.append(f"abort fraction {aborted}/{attempted} > {MAX_ABORT_FRACTION}")
    for eps, mean, se, ref in zip(
        summary["eps"], summary["mean"], summary["std_error"], oracle_means
    ):
        gap = abs(mean - ref) / se if se > 0 else math.inf
        if not gap <= MAX_ORACLE_GAP_SE:
            failures.append(
                f"eps={eps:.6g}: mean {mean:.6g} is {gap:.2f} SE from oracle {ref:.6g}"
            )
    return failures


def _sweep_check(outdir: str, oracle_means) -> list:
    with open(os.path.join(outdir, "sweep_summary.json")) as fh:
        summary = json.load(fh)
    return sweep_gate(summary, oracle_means)


def make_job(workload: str, jseed: int, outdir: str) -> Job:
    """The job a workload runs with job seed ``jseed``, writing to ``outdir``."""
    common = ["--seed", str(jseed), "--output", outdir]
    if workload == "sweep":
        return Job(
            argvs=[["sweep", "--n-paths", str(SWEEP_PATHS), "--threads", "1"] + common],
            outputs=("sweep.csv", "sweep_summary.json"),
            post=_sweep_oracle,
            check=_sweep_check,
            models=[{}],
        )
    if workload == "trajectories":
        v, delta = transform_vectors(jseed)
        gentle = [f"--{k}={v_}" for k, v_ in GENTLE.items()]
        return Job(
            argvs=[
                ["transform-check", *gentle, "--d=7", f"--dt={TRANSFORM_DT}",
                 f"--v={_vec(v)}", f"--delta={_vec(delta)}"] + common,
                ["variation-check", *gentle, f"--dt={VARIATION_DT}"] + common,
                ["simulate"] + common,
            ],
            outputs=("brownian.csv", "solution.csv"),
            models=[dict(GENTLE, d=7, v=v, delta=delta), dict(GENTLE), {}],
        )
    if workload == "sampling":
        return Job(
            argvs=[["stdnorm-check"] + common, ["verify-bounds"] + common],
            models=[{}],
        )
    raise ValueError(f"unknown workload {workload!r}")
