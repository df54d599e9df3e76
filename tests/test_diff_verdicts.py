"""scripts/diff_verdicts.py on small synthetic verdict files."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "diff_verdicts.py"


def _line(seed, job, exit=(0, 0, 0), failures=(), sha="aa"):
    return {
        "workload": "trajectories", "seed": seed, "job": job, "job_seed": 1000 * seed + job,
        "exit": list(exit), "failures": list(failures),
        "sha256": {"transform-check.report.json": sha, "brownian.csv": "bb"},
    }


def _write(path, lines):
    path.write_text("".join(json.dumps(rec) + "\n" for rec in lines))
    return str(path)


def _run(a, b):
    return subprocess.run([sys.executable, str(SCRIPT), a, b], capture_output=True, text=True)


def test_identical_verdicts_exit_0(tmp_path):
    lines = [_line(1, 0), _line(1, 1), _line(4, 0, (1, 0, 0), [{"kind": "gate", "reason": "x"}])]
    a = _write(tmp_path / "a.jsonl", lines)
    b = _write(tmp_path / "b.jsonl", lines[::-1])  # the order of lines does not matter
    res = _run(a, b)
    assert res.returncode == 0, res.stderr
    assert res.stdout == ""
    assert "0 of 3 keys differ" in res.stderr


def test_each_kind_of_difference_is_reported_exit_1(tmp_path):
    gate = [{"kind": "gate", "reason": "transform-check: max_distance 0.0178"}]
    a = _write(tmp_path / "a.jsonl", [
        _line(1, 0), _line(1, 1), _line(1, 2), _line(1, 3), _line(1, 4), _line(2, 0),
    ])
    b = _write(tmp_path / "b.jsonl", [
        _line(1, 0),
        _line(1, 1, exit=(1, 0, 0)),
        _line(1, 2, failures=gate),
        _line(1, 3, sha="cc"),
        _line(2, 0),
        _line(3, 0),
    ])
    res = _run(a, b)
    assert res.returncode == 1, res.stderr
    got = {(r["seed"], r["job"]): r for r in map(json.loads, res.stdout.splitlines())}
    assert sorted(got) == [(1, 1), (1, 2), (1, 3), (1, 4), (3, 0)]
    assert got[1, 1]["exit"] == [[0, 0, 0], [1, 0, 0]]
    assert got[1, 2]["failures"] == [[], gate]
    assert set(got[1, 3]) == {"workload", "seed", "job", "sha256"}
    assert got[1, 4]["only_in"] == "A" and got[3, 0]["only_in"] == "B"
    assert "5 of 7 keys differ" in res.stderr


def test_repeated_key_is_an_input_error(tmp_path):
    a = _write(tmp_path / "a.jsonl", [_line(1, 0), _line(1, 0, sha="cc")])
    b = _write(tmp_path / "b.jsonl", [_line(1, 0)])
    res = _run(a, b)
    assert res.returncode == 2
    assert "repeats" in res.stderr
