"""Tests of the benchmark itself: span arithmetic, wrapper lifetime, gates.

Run from the root of the repository:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src", ROOT / "tests"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


class ScriptedClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_of_nested_spans():
    # A [0, 10] holds B [1, 3] and C [4, 8]; C holds D [5, 6]
    tracer = tracing.Tracer(clock=ScriptedClock([0, 1, 3, 4, 5, 6, 8, 10]))
    a = tracer.open_span("A")
    b = tracer.open_span("B")
    tracer.close_span(b)
    c = tracer.open_span("C")
    d = tracer.open_span("D")
    tracer.close_span(d)
    tracer.close_span(c)
    tracer.close_span(a)
    assert list(tracer.parent) == [-1, 0, 0, 2]
    assert tracer.self_times() == [4.0, 2.0, 3.0, 1.0]
    calls, incl, excl = tracer.totals()
    assert incl == {"A": 10.0, "B": 2.0, "C": 4.0, "D": 1.0}
    assert excl["A"] == 4.0 and calls["D"] == 1


def _add_span(tracer, name, start, end, parent):
    tracer.name_id.append(tracer._intern(name))
    tracer.start.append(start)
    tracer.end.append(end)
    tracer.parent.append(parent)
    tracer.job.append(0)


def test_self_time_counts_overlapping_children_once():
    # children from two threads overlap on [3, 4]; together they cover [1, 6]
    tracer = tracing.Tracer()
    _add_span(tracer, "P", 0.0, 10.0, -1)
    _add_span(tracer, "X", 1.0, 4.0, 0)
    _add_span(tracer, "Y", 3.0, 6.0, 0)
    assert tracer.self_times() == [5.0, 3.0, 3.0]


def test_recursive_span_inclusive_time_is_not_double_counted():
    tracer = tracing.Tracer(clock=ScriptedClock([0, 2, 5, 9]))
    outer = tracer.open_span("R")
    inner = tracer.open_span("R")
    tracer.close_span(inner)
    tracer.close_span(outer)
    calls, incl, excl = tracer.totals()
    assert calls["R"] == 2 and incl["R"] == 9.0 and excl["R"] == 9.0


@pytest.fixture(scope="module")
def lab():
    return worker.load_lab(ROOT)


def _bindings(lab):
    """Every function-valued binding the tracer may replace."""
    out = {}
    for name, mod in worker.traced_modules(lab).items():
        for attr, obj in vars(mod).items():
            out[(name, attr)] = obj
            if isinstance(obj, dict) and not attr.startswith("__"):
                for key, val in obj.items():
                    out[(name, attr, key)] = val
    return out


def _traced(lab):
    return sorted(
        key for key, obj in _bindings(lab).items()
        if getattr(obj, "__perfbench_traced__", False) or isinstance(obj, tracing._JsonProxy)
    )


def test_wrappers_cover_imported_names_and_are_removed(lab):
    before = _bindings(lab)
    tracer = tracing.Tracer()
    tracer.install(worker.traced_modules(lab))
    try:
        traced = _traced(lab)
        for key in [
            ("montecarlo", "solve_cascade_batch"),
            ("montecarlo", "_first_bad_steps"),
            ("montecarlo", "brownian_values_batch"),
            ("bumps", "adaptive_simpson"),
            ("bounds", "adaptive_simpson"),
            ("cli", "_COMMANDS", "sweep"),
            ("cli", "json"),
            ("oracles", "pair_ode_final"),
        ]:
            assert key in traced
        lab.paths.path_seed(1, 2)
        assert "paths.path_seed" in tracer.names
    finally:
        tracer.uninstall()
    after = _bindings(lab)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert _traced(lab) == []


def _simulate_job(seen, lab):
    def job_for(i, outdir):
        def post(outdir, lab_):
            seen.append(_traced(lab))

        return i, workloads.Job(
            argvs=[["simulate", "--seed", str(i), "--output", outdir]],
            outputs=("brownian.csv", "solution.csv"),
            post=post,
        )

    return job_for


def test_untraced_run_installs_no_wrapper(lab, tmp_path):
    seen = []
    result = worker.run_workload(lab, _simulate_job(seen, lab), 0.0, False, tmp_path)
    assert seen == [[]]
    assert result["layers"] is None
    assert [j["failures"] for j in result["jobs"]] == [[]]
    assert set(result["jobs"][0]["sha256"]) == {
        "simulate.report.json", "brownian.csv", "solution.csv"
    }


def test_traced_run_removes_its_wrappers(lab, tmp_path):
    seen = []
    result = worker.run_workload(lab, _simulate_job(seen, lab), 0.0, True, tmp_path)
    assert seen[0] == [] and seen[1] != []
    assert _traced(lab) == []
    layers = result["layers"]
    assert layers["solvers.cascade_calls"] == 1
    assert layers["paths.paths_drawn"] == 1
    assert layers["solvers.cascade_useful_frac"] == 0.5  # f acts on (tau, T) = second half
    assert (tmp_path / "spans.tsv.gz").is_file()


def _summary(shift_se):
    se = [0.01, 0.02, 0.03]
    oracle = [0.5, 0.4, 0.3]
    return {
        "eps": [0.3, 0.1, 0.03],
        "n_paths": 2048,
        "aborted": [0, 0, 0],
        "std_error": se,
        "mean": [m + shift_se * s for m, s in zip(oracle, se)],
    }, oracle


def test_sweep_gate_counts_a_six_se_shift_as_failed(tmp_path):
    summary, oracle = _summary(4.9)
    assert workloads.sweep_gate(summary, oracle) == []
    summary, oracle = _summary(6.0)
    (tmp_path / "sweep_summary.json").write_text(json.dumps(summary))
    failures = workloads._sweep_check(str(tmp_path), oracle)
    assert len(failures) == 3 and "6.00 SE" in failures[0]


def test_sweep_gate_counts_aborts():
    summary, oracle = _summary(0.0)
    summary["aborted"] = [0, 7, 0]  # 7 > 0.1% of 3 * 2048
    assert "abort fraction" in workloads.sweep_gate(summary, oracle)[0]


def test_nonzero_exit_counts_as_failed(lab, tmp_path):
    job = workloads.Job(argvs=[["sweep", "--dt", "0.3", "--output", str(tmp_path)]])
    rec = worker.run_job(lab, job, tmp_path)
    assert rec["exit"] == [2]
    assert [f["kind"] for f in rec["failures"]] == ["output"]


def test_exit_one_with_a_failed_report_counts_as_failed():
    call = {"argv": ["x"], "exit": 1, "stdout": '{"check": "x", "passed": false}',
            "stderr": "", "error": None}
    assert worker._report_failure(call)[0] == "gate"
    call["stdout"] = '{"check": "x", "passed": true}'
    assert worker._report_failure(call)[0] == "output"


def test_benchmark_json_lists_every_layer_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = list(tracing.layer_metrics(tracing.Tracer(), 0, 0.0))
    assert [m["name"] for m in bench["per_layer"]] == names
    for m in bench["per_layer"]:
        assert m["unit"] == tracing.layer_unit(m["name"])
    assert set(tracing.EXACT_COUNTS) <= set(names)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
