"""scripts/failure_windows.py on small synthetic verdict files."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "failure_windows.py"


def _line(workload, seed, job, failed=False):
    failures = [{"kind": "gate", "reason": "oracle gate"}] if failed else []
    return {
        "workload": workload, "seed": seed, "job": job, "job_seed": 1000 * seed + job,
        "exit": [1 if failed else 0], "failures": failures, "sha256": {"report.json": "aa"},
    }


def _run(tmp_path, lines, *args):
    path = tmp_path / "verdicts.jsonl"
    path.write_text("".join(json.dumps(rec) + "\n" for rec in lines))
    return subprocess.run(
        [sys.executable, str(SCRIPT), str(path), *args], capture_output=True, text=True
    )


def test_shares_and_windows_per_job_count(tmp_path):
    fails = {1: {3}, 2: set()}
    lines = [
        _line("sweep", seed, job, job in fails[seed])
        for seed in (2, 1) for job in (4, 0, 1, 2, 3)  # any order
    ] + [_line("sweep", 1, 6, True)]  # job 5 is missing: runs stop at 5 jobs
    res = _run(tmp_path, lines, "--seconds", "10")
    assert res.returncode == 0, res.stderr
    out = res.stdout.splitlines()
    assert out[0] == "sweep seed 1: failing jobs 3, 6 of 6 jobs in the file"
    rows = [line.split() for line in out[2:7]]
    assert [row[:3] for row in rows] == [
        ["1", "0/1", "0.000"],
        ["2", "0/2", "0.000"],
        ["3", "0/3", "0.000"],
        ["4", "1/4", "0.250"],
        ["5", "1/5", "0.200"],
    ]
    assert out[2].endswith("[10.000, inf) s")
    assert out[5].endswith("[2.500, 3.333) s")
    assert out[7] == "sweep seed 2: failing jobs none of 5 jobs in the file"
    assert len(out) == 14


def test_repeated_job_exits_2(tmp_path):
    res = _run(tmp_path, [_line("sampling", 1, 0), _line("sampling", 1, 0)], "--seconds", "10")
    assert res.returncode == 2
    assert "repeats job 0" in res.stderr
