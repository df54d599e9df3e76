"""scripts/output_digests.py on one cheap config."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "output_digests.py"


def _run(*args):
    return subprocess.run(
        [sys.executable, str(SCRIPT), *args], capture_output=True, text=True
    )


def test_one_line_per_config_with_exit_and_digests(tmp_path):
    res = _run("--only", "simulate-cascade")
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert len(lines) == 1
    rec = json.loads(lines[0])
    assert list(rec) == ["config", "argv", "exit", "stdout", "files"]
    assert rec["config"] == "simulate-cascade"
    assert rec["exit"] == 0
    assert sorted(rec["files"]) == ["brownian.csv", "solution.csv"]

    # the digests are those of the same run made by hand
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    direct = subprocess.run(
        [sys.executable, "-m", "sde_lab.cli", *rec["argv"], "--output", str(tmp_path)],
        capture_output=True, env=env,
    )
    assert direct.returncode == 0
    assert rec["stdout"] == hashlib.sha256(direct.stdout).hexdigest()
    for name, digest in rec["files"].items():
        assert digest == hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()


def test_unknown_config_is_an_error():
    res = _run("--only", "simulate-cascade,no-such-config")
    assert res.returncode == 2
    assert "no-such-config" in res.stderr
    assert res.stdout == ""
