"""In-process command line tests: exit codes, JSON reports, file outputs."""

import argparse
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from sde_lab import cli, model as model_mod, montecarlo, paths, solvers
from sde_lab.quadrature import QuadratureToleranceError
from sde_lab.reports import CheckReport


def run_main(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- config


def test_defaults():
    cfg = cli.ExperimentConfig()
    assert cfg.steps() == 2048
    assert cfg.model_params().q == 8.0  # 2 p n
    np.testing.assert_allclose(cfg.epsilons(), np.exp(-np.arange(1.0, 7.0)))


def test_steps_rejects_non_divisor():
    with pytest.raises(cli.ConfigError, match="does not divide"):
        cli.ExperimentConfig(dt=0.3).steps()


def test_seed_resolution():
    assert cli.ExperimentConfig().seed == cli.DEFAULT_SEED
    assert cli.ExperimentConfig(seed=5).seed == 5


def test_epsilon_ladder_dict():
    cfg = cli.ExperimentConfig(
        eps_grid={"start_exponent": 1, "stop_exponent": 2, "per_decade": 2}
    )
    np.testing.assert_allclose(cfg.epsilons(), np.exp(-np.array([1.0, 1.5, 2.0])))


def test_epsilon_grid_errors():
    with pytest.raises(cli.ConfigError, match="missing key"):
        cli.ExperimentConfig(eps_grid={"start_exponent": 1}).epsilons()
    with pytest.raises(cli.ConfigError, match="bad eps_grid ladder"):
        cli.ExperimentConfig(
            eps_grid={"start_exponent": 2, "stop_exponent": 1}
        ).epsilons()
    with pytest.raises(cli.ConfigError, match="bad eps_grid ladder"):
        cli.ExperimentConfig(
            eps_grid={"start_exponent": 1, "stop_exponent": None}
        ).epsilons()
    with pytest.raises(cli.ConfigError, match="bad eps_grid"):
        cli.ExperimentConfig(eps_grid=[[0.1], [0.2]]).epsilons()
    with pytest.raises(cli.ConfigError, match="bad eps_grid"):
        cli.ExperimentConfig(eps_grid="not numbers").epsilons()


def test_parse_eps_value():
    assert cli._parse_eps_value("1/e") == pytest.approx(1.0 / math.e, rel=1e-15)
    assert cli._parse_eps_value("0.25") == 0.25
    with pytest.raises(cli.ConfigError, match="cannot parse epsilon"):
        cli._parse_eps_value("quarter")


def test_config_file_flag_precedence(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"tau": 0.4, "n_paths": 77}))
    cfg = cli.load_config(str(path), {"tau": 0.45, "dt": None})
    assert cfg.tau == 0.45  # flag beats file
    assert cfg.n_paths == 77  # file beats default
    assert cfg.dt == 1.0 / 2048.0  # None overrides are dropped


def test_config_file_unknown_key(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"paths": 10}))
    with pytest.raises(cli.ConfigError, match="unknown config keys"):
        cli.load_config(str(path), {})


def test_run_unknown_command():
    with pytest.raises(cli.ConfigError, match="unknown command"):
        cli.run("frobnicate", cli.ExperimentConfig())


def test_emit_prints_and_maps_exit_code(capsys):
    good = CheckReport(check="a", params={}, max_violation=-1.0, grid_size=1, passed=True)
    bad = CheckReport(check="b", params={}, max_violation=0.5, grid_size=1, passed=False)
    assert cli._emit(good) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True
    assert cli._emit(bad) == 1
    assert json.loads(capsys.readouterr().out)["passed"] is False


def test_cli_import_loads_no_scipy():
    # scipy is imported only by the commands that call it (stdnorm-check, lemma21)
    code = (
        "import sys, sde_lab.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


# ---------------------------------------------------------------- exit code 2


def test_main_bad_config_file(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"paths": 10}))
    code, out, err = run_main(["lemma21", "--config", str(path)], capsys)
    assert code == 2
    assert "unknown config keys" in json.loads(err)["error"]


def test_config_file_values_are_validated(tmp_path, capsys):
    # a size key is checked, file and flag alike, by each command that reads it
    path = tmp_path / "cfg.json"
    for command, key, value in [
        ("sweep", "dt", 0), ("simulate", "dt", -1.0), ("stdnorm-check", "dt", "0.1"),
        ("transform-check", "dt", 0), ("variation-check", "dt", None),
        ("sweep", "n_paths", 1), ("sweep", "threads", 0),
    ]:
        path.write_text(json.dumps({key: value}))
        code, out, err = run_main([command, "--config", str(path)], capsys)
        assert code == 2 and out == "", (command, key)
        assert f"need {key} >" in json.loads(err)["error"], (command, key)
    for value in (None, "5"):
        path.write_text(json.dumps({"seed": value}))
        with pytest.raises(cli.ConfigError, match="seed"):
            cli.load_config(str(path), {})


def test_main_bad_dt(capsys):
    code, out, err = run_main(["simulate", "--dt", "0.3"], capsys)
    assert code == 2
    assert "does not divide" in json.loads(err)["error"]


@pytest.mark.parametrize(
    "entry, flags",
    [
        ({"d": 6.5}, ["--n-paths", "4"]),
        ({"m": 1.5}, ["--n-paths", "4"]),
        ({"t_eval": "0.9"}, ["--n-paths", "4"]),
        ({"n_paths": 2.5}, []),
        ({"taming": "no"}, ["--n-paths", "4"]),
    ],
)
def test_config_values_of_the_wrong_type_exit_2(tmp_path, capsys, entry, flags):
    # each key is checked against its field type when the config is built
    path = tmp_path / "c.json"
    path.write_text(json.dumps(entry))
    code, out, err = run_main(["sweep", "--config", str(path), *flags], capsys)
    assert code == 2 and out == "" and "Traceback" not in err
    body = json.loads(err)
    assert list(body) == ["error"] and body["error"].startswith(f"bad {next(iter(entry))} ")


def test_main_bad_model_parameter(capsys):
    code, out, err = run_main(["verify-bounds", "--n", "1", "--trials", "10"], capsys)
    assert code == 2
    assert "error" in json.loads(err)


@pytest.mark.parametrize(
    "argv",
    [
        # sizes out of range
        ["sweep", "--dt", "0"],
        ["stdnorm-check", "--dt", "0"],
        ["transform-check", "--paths", "0"],
        ["variation-check", "--paths", "0"],
        ["lemma21", "--eps-count", "0"],
        ["sweep", "--threads", "0"],
        ["sweep", "--n-paths", "1"],
        ["variation-check", "--fd-eps", "0"],
        ["verify-bounds", "--trials", "-3"],
        # flags the command does not offer, and other parse errors
        ["lemma21", "--dt", "0.3", "--solver", "em"],
        ["lemma21", "--n", "1"],
        ["verify-bounds", "--t-eval", "5"],
        ["sweep", "--bogus"],
        ["sweep", "--n-paths", "x"],
        [],
        # a prefix is not the flag: not --kappa 2 --eps-count 2
        ["lemma21", "--kap", "2", "--eps-c", "2"],
        ["variation-check", "--path", "3"],
        # no uniform draw exists from a box of infinite width
        ["verify-bounds", "--radius", "nan", "--trials", "10"],
        ["verify-bounds", "--radius", "inf", "--trials", "10"],
        ["verify-bounds", "--radius", "1e308", "--trials", "10"],
    ],
)
def test_main_bad_input_exits_2_with_json(capsys, argv):
    code, out, err = run_main(argv, capsys)
    assert code == 2
    assert "error" in json.loads(err)
    assert out == "" and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-bounds", "--trials", "10"],
        ["transform-check", "--paths", "2"],
        ["simulate"],
    ],
)
@pytest.mark.parametrize("key", ["v", "delta"])
def test_vectors_whose_norm_overflows_exit_2_naming_the_key(capsys, argv, key):
    # the norm of (0, 0, 0, 1e200, 0) is inf: B or kappa would not be finite
    code, out, err = run_main(argv + [f"--{key}", "0,0,0,1e200,0"], capsys)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": f"{key} must have a finite norm, got inf"}


def test_no_parser_accepts_abbreviated_flags():
    parser = cli._build_parser()
    assert not parser.allow_abbrev
    assert not any(sp.allow_abbrev for sp in _subparsers().values())


def test_config_file_keys_a_command_does_not_read_are_not_validated(tmp_path, capsys):
    # one config file may serve several commands; lemma21 reads no model key
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": 1}))
    code, out, err = run_main(["lemma21", "--eps-count", "1", "--config", str(path)], capsys)
    assert code == 0 and json.loads(out)["passed"] is True
    code, out, err = run_main(["verify-bounds", "--trials", "10", "--config", str(path)], capsys)
    assert code == 2
    assert "drift power n" in json.loads(err)["error"]


@pytest.mark.parametrize("key, value", [("dt", 0), ("n_paths", 1), ("threads", 0)])
@pytest.mark.parametrize("argv", [["lemma21", "--eps-count", "1"], ["verify-bounds", "--trials", "10"]])
def test_config_file_sizes_a_command_does_not_read_are_not_validated(tmp_path, capsys, argv, key, value):
    # neither command integrates in time nor samples paths
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({key: value}))
    code, out, err = run_main(argv + ["--config", str(path)], capsys)
    assert code == 0 and json.loads(out)["passed"] is True, err


def test_closed_stdout_exits_1_without_a_traceback():
    # 400 ladder entries make a report larger than a pipe's buffer, so the
    # writer is still writing when the reader closes the pipe
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "sde_lab.cli", "lemma21", "--eps-count", "400"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline().strip() == b"{"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and "Exception ignored" not in err
    assert err == ""


def _subparsers():
    parser = cli._build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


_EPS_FLAGS = {"eps", "eps_start_exponent", "eps_stop_exponent", "eps_per_decade"}


class _RecordingConfig(cli.ExperimentConfig):
    """Records the config keys read once ``reads`` is set."""

    def __getattribute__(self, name):
        reads = object.__getattribute__(self, "__dict__").get("reads")
        if reads is not None and name in cli._CONFIG_KEYS:
            reads.add(name)
        return object.__getattribute__(self, name)


def test_each_command_offers_exactly_the_keys_it_reads(tmp_path, capsys):
    grid = ["--dt", "0.0078125"]
    runs = [
        ["verify-bounds", "--trials", "10"],
        ["lemma21", "--eps-count", "1"],
        ["stdnorm-check", "--check-paths", "2", *grid],
        ["simulate", *grid],
        ["simulate", "--solver", "em", *grid],
        ["sweep", "--eps", "0.2,0.1", "--n-paths", "4", "--dt", "0.001953125"],
        ["transform-check", "--paths", "1", *grid],
        ["variation-check", "--paths", "1", *grid],
    ]
    read = {}
    for argv in runs:
        ns = cli._build_parser().parse_args(argv + ["--output", str(tmp_path)])
        config = _RecordingConfig(**cli._config_overrides(ns))
        config.reads = set()
        assert cli.run(argv[0], config, ns) in (0, 1), argv
        read.setdefault(argv[0], set()).update(config.reads)
    capsys.readouterr()
    subparsers = _subparsers()
    assert set(read) == set(subparsers)
    for command, sp in subparsers.items():
        dests = {a.dest for a in sp._actions}
        offered = (dests & cli._CONFIG_KEYS) | ({"eps_grid"} if dests & _EPS_FLAGS else set())
        assert read[command] <= offered, command
        assert offered - {"seed", "output_dir"} <= read[command], command


def test_readme_commands_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```\n(.*?)^```", readme, flags=re.M | re.S)
    lines = [ln for b in blocks for ln in b.splitlines() if ln.startswith("sde-lab ")]
    assert len(lines) >= 7
    for line in lines:
        cli._build_parser().parse_args(shlex.split(line, comments=True)[1:])


def test_main_incomplete_ladder_flags(capsys):
    # a partial ladder, or one next to --eps, is an error, never ignored
    for flags in [
        ["--eps-start-exponent", "1"],
        ["--eps-stop-exponent", "3"],
        ["--eps-per-decade", "2"],
        ["--eps-stop-exponent", "3", "--eps-per-decade", "2"],
        ["--eps", "0.1,0.05", "--eps-start-exponent", "1", "--eps-stop-exponent", "3"],
        ["--eps", "0.1,0.05", "--eps-per-decade", "2"],
    ]:
        code, out, err = run_main(["sweep", *flags], capsys)
        assert code == 2, flags
        assert "eps_grid" in json.loads(err)["error"]


def test_main_narrow_support_is_a_config_error(capsys):
    code, out, err = run_main(
        ["sweep", "--tau", "0.001", "--T", "0.002", "--t-eval", "0.0015", "--n-paths", "2"],
        capsys,
    )
    assert code == 2
    assert "too narrow" in json.loads(err)["error"]


def test_main_stdnorm_check_needs_two_paths(capsys):
    # 0 paths ended in a ZeroDivisionError traceback; 1 path passed on a NaN variance
    for n in ("0", "1"):
        code, out, err = run_main(["stdnorm-check", "--check-paths", n], capsys)
        assert code == 2, n
        assert out == ""
        assert "at least 2 paths" in json.loads(err)["error"]


# ---------------------------------------------------------------- run-time errors


def _raiser(exc):
    def raise_(*args, **kwargs):
        raise exc

    return raise_


@pytest.mark.parametrize(
    "argv, module, name, exc",
    [
        (["sweep", "--n-paths", "2"], montecarlo, "sweep_epsilon",
         montecarlo.EstimationFailedError("all 2 paths aborted")),
        (["transform-check", "--paths", "2"], solvers, "solve_em_batch",
         solvers.SolverExplosionError(7)),
        (["simulate", "--solver", "em"], solvers, "solve_em_batch",
         solvers.SolverExplosionError(3)),
    ],
)
def test_main_run_time_failure_is_a_failed_check(monkeypatch, capsys, argv, module, name, exc):
    monkeypatch.setattr(module, name, _raiser(exc))
    code, out, err = run_main(argv, capsys)
    assert code == 1
    assert json.loads(out) == {"check": argv[0], "passed": False, "error": str(exc)}
    assert "Traceback" not in out + err


def test_main_uncertified_quadrature_is_a_config_error(monkeypatch, capsys):
    exc = QuadratureToleranceError("adaptive Simpson exceeded its evaluation budget")
    monkeypatch.setattr(model_mod, "build_axis_aligned", _raiser(exc))
    code, out, err = run_main(["verify-bounds", "--trials", "10"], capsys)
    assert code == 2
    assert json.loads(err) == {"error": str(exc)}
    assert out == "" and "Traceback" not in err


# ---------------------------------------------------------------- subcommands


def test_lemma21_ladder_passes(capsys):
    code, out, err = run_main(
        ["lemma21", "--p", "1", "--kappa", "1", "--eps-max", "1/e", "--eps-count", "8"],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["check"] == "lemma21_ladder"
    assert report["passed"] is True
    assert report["grid_size"] == 8


def test_lemma21_runs_with_parser_defaults(capsys):
    code, out, err = run_main(["lemma21"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["check"] == "lemma21_ladder"
    assert report["grid_size"] == 8
    # run() without parsed arguments takes the same parser defaults
    assert cli.run("lemma21", cli.ExperimentConfig()) == 0


def test_lemma21_p_leaves_model_p_alone(monkeypatch, capsys):
    seen = {}

    def capture(config, args):
        seen["config"], seen["args"] = config, args
        return 0

    monkeypatch.setitem(cli._COMMANDS, "lemma21", capture)
    assert cli.main(["lemma21", "--p", "2"]) == 0
    assert seen["config"].p == 1.0
    assert seen["args"].lemma_p == 2.0


@pytest.mark.parametrize(
    "flags, c_finite", [(["--kappa", "1e-300"], False), (["--p", "1e300"], True)]
)
def test_lemma21_carries_an_overflow_through_as_inf(capsys, flags, c_finite):
    # kappa^(-2/p) overflows at kappa = 1e-300, and kappa |z|^p inside the
    # expectation at p = 1e300: both read inf, so the minorant is 0 and holds
    code, out, err = run_main(["lemma21", "--eps-count", "2", *flags], capsys)
    assert code == 0 and "Traceback" not in err
    report = json.loads(out)
    assert report["passed"] is True
    for sub in report["params"].values():
        assert math.isfinite(sub["c"]) is c_finite
        assert sub["rhs"] == 0.0 < sub["lhs"]


def test_transform_check_fails_on_a_non_finite_path(capsys):
    # at n = 40 and dt = 1/8 the cascade reference of path 2 is non-finite
    # from step 8, so the distances are nan: the check fails, exit 1
    argv = ["transform-check", "--paths", "4", "--n", "40", "--dt", "0.125"]
    code, out, err = run_main(argv, capsys)
    assert code == 1 and "Traceback" not in err
    report = json.loads(out)
    assert report["passed"] is False
    assert math.isnan(report["params"]["max_distance"]) and math.isnan(report["max_violation"])


def test_verify_bounds_passes(capsys):
    code, out, err = run_main(["verify-bounds", "--trials", "2000", "--seed", "7"], capsys)
    assert code == 0
    assert json.loads(out)["passed"] is True


_V7_FLAGS = ["--d", "7", "--v", "0.4,-0.3,0.2,0.1,-0.5,0.3,0.6",
             "--delta", "0.7,0.2,-0.4,0.3,0.1,-0.2,0.5"]


@pytest.mark.parametrize("model", [[], _V7_FLAGS], ids=["d5", "d7"])
def test_verify_bounds_past_the_float64_range_exits_2(capsys, model):
    # past a radius of about 1e38, V's |x|^q (q = 8) overflows; at 1e45 the
    # drift's inf * 0 gave a NaN verdict. Neither is a verdict, so the radius
    # is a domain error, with no warning on stderr; below it, a finite verdict
    for radius, verdict in (("1e30", True), ("1e40", False), ("1e45", False), ("1e60", False)):
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            code, out, err = run_main(
                ["verify-bounds", "--trials", "1000", "--radius", radius, *model], capsys
            )
        assert not seen, (radius, [str(w.message) for w in seen])
        if verdict:
            assert code == 0 and err == "", radius
            assert math.isfinite(json.loads(out)["max_violation"])
        else:
            assert code == 2 and out == "", radius
            error = json.loads(err)["error"]
            assert error.startswith(f"radius {float(radius)} ") and "float64" in error


def test_stdnorm_check_passes(capsys):
    code, out, err = run_main(
        ["stdnorm-check", "--check-paths", "4000", "--dt", "0.001953125", "--seed", "1"],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["check"] == "stdnorm"
    assert report["passed"] is True


@pytest.mark.parametrize("dt", ["0.5", "0.25"])
def test_stdnorm_check_with_tau_on_step_0_or_1(dt, capsys):
    # tau = 0.2 rounds to step 0 (dt 0.5) or step 1 (dt 0.25), where g' is
    # 0: every X3(tau) is 0, from an empty or a one-step trapezoid
    code, out, err = run_main(
        ["stdnorm-check", "--tau", "0.2", "--dt", dt, "--check-paths", "50"], capsys
    )
    assert code == 1, err
    mc = json.loads(out)["params"]["1_stdnormality"]
    assert (mc["mean"], mc["var"], mc["ks"]) == (0.0, 0.0, 0.5)


def test_stdnorm_check_loads_no_scipy_stats():
    # the KS statistic is computed from scipy.special alone
    code = (
        "import sys, sde_lab.cli; "
        "sde_lab.cli.main(['stdnorm-check', '--check-paths', '200', '--dt', '0.001953125']); "
        "print('scipy.stats' in sys.modules)"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "False"


def test_simulate_replays_sweep_paths(tmp_path, capsys):
    # simulate --path-index k from v (--x0-eps 0) and from v + eps delta
    # rides the sweep's path k: the distance of its two states at t is the
    # sweep's distances[k]. The cascade sweep measures in cascade coordinates
    # and simulate in R^d, so the two agree to rounding; the Euler route runs
    # in R^d on both sides, so at a general v and delta it is bit for bit.
    config = cli.ExperimentConfig()
    epsilons = config.epsilons()
    k_obs = paths.TimeGrid(T=config.T, steps=config.steps()).nearest_index(config.t_eval)

    def sweep(**kw):
        cfg = cli.ExperimentConfig(**kw)
        return montecarlo.sweep_epsilon(
            cli._build_general(cfg), cfg.t_eval, epsilons, 64, cfg.seed,
            steps=cfg.steps(), solver=cfg.solver,
        )

    v = [0.4, -0.3, 0.2, 0.1, -0.5, 0.3, 0.6]
    delta = [0.7, 0.2, -0.4, 0.3, 0.1, -0.2, 0.5]
    cascade = sweep()
    em = sweep(d=7, v=v, delta=delta, solver="em")
    em_flags = ["--solver", "em", "--d", "7", "--v", ",".join(map(repr, v)),
                "--delta", ",".join(map(repr, delta))]

    def state_at_t(k, eps, flags):
        argv = ["simulate", "--path-index", str(k), "--x0-eps", repr(float(eps)), *flags]
        code, out, err = run_main(argv + ["--seed", str(config.seed), "--output", str(tmp_path)], capsys)
        assert code == 0, err  # path k stays finite on [0, T]
        rows = np.loadtxt(tmp_path / "solution.csv", delimiter=",", skiprows=1)
        assert rows[k_obs, 0] == cascade.estimates[0].t == em.estimates[0].t
        return rows[k_obs, 1:]

    for k in (0, 6, 8):
        for result, flags in ((cascade, []), (em, em_flags)):
            ref = state_at_t(k, 0.0, flags)
            for i in (0, len(epsilons) - 1):
                # as the sweep measures it: reference minus perturbed, norm on the last axis
                dist = np.linalg.norm(ref - state_at_t(k, epsilons[i], flags), axis=-1)
                expected = result.estimates[i].distances[k]
                if result is em:
                    assert dist == expected, (k, i)
                else:
                    assert dist == pytest.approx(expected, rel=1e-12), (k, i)


def test_simulate_writes_files(tmp_path, capsys):
    code, out, err = run_main(
        ["simulate", "--output", str(tmp_path), "--seed", "3"], capsys
    )
    assert code == 0
    status = json.loads(out)
    assert status["passed"] is True
    assert status["files"] == ["brownian.csv", "solution.csv"]  # relative to --output

    wlines = (tmp_path / "brownian.csv").read_text().splitlines()
    xlines = (tmp_path / "solution.csv").read_text().splitlines()
    assert wlines[0] == "t,w1"
    assert xlines[0] == "t,x1,x2,x3,x4,x5"
    assert len(wlines) == len(xlines) == 2048 + 2
    # default start is 0.05 along the 4th coordinate
    first = np.fromstring(xlines[1], sep=",")
    np.testing.assert_allclose(first, [0.0, 0.0, 0.0, 0.0, 0.05, 0.0], atol=1e-15)


def test_simulate_euler_route(tmp_path, capsys):
    code, out, err = run_main(
        [
            "simulate", "--solver", "em", "--x0-eps", "0.01",
            "--dt", "0.001953125", "--output", str(tmp_path), "--seed", "3",
        ],
        capsys,
    )
    assert code == 0
    xlines = (tmp_path / "solution.csv").read_text().splitlines()
    assert len(xlines) == 512 + 2
    first = np.fromstring(xlines[1], sep=",")
    np.testing.assert_allclose(first, [0.0, 0.0, 0.0, 0.0, 0.01, 0.0], atol=1e-15)


def test_simulate_path_index_wraps_mod_2_64(tmp_path, capsys):
    argv = ["simulate", "--dt", "0.001953125", "--seed", "3", "--output", str(tmp_path)]
    code, out, err = run_main([*argv, "--path-index", "-1"], capsys)
    assert code == 0
    w = np.loadtxt(tmp_path / "brownian.csv", delimiter=",", skiprows=1)[:, 1]
    grid = paths.TimeGrid(T=1.0, steps=512)
    assert np.array_equal(w, paths.brownian_values_batch(grid, 1, 3, 2**64 - 1, 1)[0, :, 0])


def test_simulate_reports_its_own_explosion(tmp_path, capsys):
    # x4 = 1e200 squares to inf, but RK4 starts where f first acts (step 257
    # at dt = 1/512), so the state first turns non-finite at step 258;
    # nothing is written
    code, out, err = run_main(
        ["simulate", "--x0-eps", "1e200", "--dt", "0.001953125", "--output", str(tmp_path)],
        capsys,
    )
    assert code == 1
    assert json.loads(out) == {
        "check": "simulate", "passed": False, "error": "non-finite state first reached at step 258",
    }
    assert list(tmp_path.iterdir()) == []


SWEEP_ARGS = [
    "sweep", "--eps", "0.2,0.1", "--n-paths", "200",
    "--dt", "0.001953125", "--seed", "11",
]


def test_sweep_outputs_and_thread_invariance(tmp_path, capsys):
    dir1, dir4 = str(tmp_path / "one"), str(tmp_path / "four")
    code1, out1, _ = run_main(SWEEP_ARGS + ["--output", dir1, "--threads", "1"], capsys)
    code4, out4, _ = run_main(SWEEP_ARGS + ["--output", dir4, "--threads", "4"], capsys)
    assert code1 == code4 == 0
    assert json.loads(out1)["check"] == "sweep_domination"

    csv1 = open(os.path.join(dir1, "sweep.csv"), "rb").read()
    csv4 = open(os.path.join(dir4, "sweep.csv"), "rb").read()
    assert csv1 == csv4  # byte-identical regardless of worker count
    assert csv1.splitlines()[0] == b"eps,mean,stderr,aborted,lower_bound,upper_bound,local_slope"

    sum1 = open(os.path.join(dir1, "sweep_summary.json"), "rb").read()
    sum4 = open(os.path.join(dir4, "sweep_summary.json"), "rb").read()
    assert sum1 == sum4
    summary = json.loads(sum1)
    assert summary["regime"] == "non-hoelder"


@pytest.mark.parametrize(
    "flags", [["--t-eval", "0.5001"], ["--dt", "0.25", "--t-eval", "0.55"], ["--t-eval", "0.5005"]]
)
def test_sweep_time_without_kappa_fails_before_any_draw(tmp_path, capsys, monkeypatch, flags):
    # each t lies in (tau, T) but snaps to a grid time where kappa_t = 0: tau
    # itself, or (0.5005 -> step 1025 of 2048) a step past it where f
    # underflows; the error names both times, and no path is drawn
    def no_draw(*args, **kwargs):
        raise AssertionError("a path was drawn")

    monkeypatch.setattr(montecarlo, "brownian_values_batch", no_draw)
    code, out, err = run_main(["sweep", *flags, "--output", str(tmp_path)], capsys)
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert f"t={flags[-1]} snaps to grid time" in error and "tau=0.5" in error
    assert list(tmp_path.iterdir()) == []


def test_sweep_ladder_flags(tmp_path, capsys):
    code, out, err = run_main(
        [
            "sweep", "--eps-start-exponent", "1", "--eps-stop-exponent", "2",
            "--n-paths", "100", "--dt", "0.001953125",
            "--output", str(tmp_path), "--seed", "2",
        ],
        capsys,
    )
    assert code == 0
    rows = (tmp_path / "sweep.csv").read_text().splitlines()
    assert len(rows) == 1 + 2
    eps = [float(r.split(",")[0]) for r in rows[1:]]
    np.testing.assert_allclose(eps, [math.exp(-1), math.exp(-2)], rtol=1e-12)


def test_transform_check_passes(capsys):
    # quadratic member on width-1 supports: the route difference is dominated
    # by the EM quadrature error of g'(t) X2, which scales like sup|g''| dt
    code, out, err = run_main(
        [
            "transform-check", "--n", "2", "--tau", "1.0", "--T", "2.0",
            "--dt", "0.000244140625", "--paths", "20", "--seed", "1",
        ],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert 1.5 <= report["params"]["halving_ratio"] <= 2.5


def test_variation_check_passes(capsys):
    code, out, err = run_main(
        [
            "variation-check", "--n", "2", "--tau", "1.0", "--T", "2.0",
            "--dt", "6.103515625e-05", "--paths", "5", "--seed", "1",
        ],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["params"]["max_rel_error"] <= 1e-3
