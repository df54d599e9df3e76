"""In-process command line tests: exit codes, JSON reports, file outputs."""

import json
import math
import os

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


def test_seed_resolution(monkeypatch):
    monkeypatch.delenv("SDE_LAB_SEED", raising=False)
    assert cli.ExperimentConfig().resolved_seed() == cli.DEFAULT_SEED
    assert cli.ExperimentConfig(seed=5).resolved_seed() == 5
    monkeypatch.setenv("SDE_LAB_SEED", "77")
    assert cli.ExperimentConfig().resolved_seed() == 77
    # explicit seed wins over the environment
    assert cli.ExperimentConfig(seed=5).resolved_seed() == 5
    monkeypatch.setenv("SDE_LAB_SEED", "xyz")
    with pytest.raises(cli.ConfigError, match="not an integer"):
        cli.ExperimentConfig().resolved_seed()


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


# ---------------------------------------------------------------- exit code 2


def test_main_bad_config_file(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"paths": 10}))
    code, out, err = run_main(["lemma21", "--config", str(path)], capsys)
    assert code == 2
    assert "unknown config keys" in json.loads(err)["error"]


def test_main_bad_dt(capsys):
    code, out, err = run_main(["simulate", "--dt", "0.3"], capsys)
    assert code == 2
    assert "does not divide" in json.loads(err)["error"]


def test_main_bad_model_parameter(capsys):
    code, out, err = run_main(["lemma21", "--n", "1"], capsys)
    assert code == 2
    assert "error" in json.loads(err)


def test_main_bad_env_seed(monkeypatch, capsys):
    monkeypatch.setenv("SDE_LAB_SEED", "not-a-seed")
    code, out, err = run_main(["verify-bounds", "--trials", "10"], capsys)
    assert code == 2
    assert "not an integer" in json.loads(err)["error"]


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


def test_verify_bounds_passes(capsys):
    code, out, err = run_main(["verify-bounds", "--trials", "2000", "--seed", "7"], capsys)
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_stdnorm_check_passes(capsys):
    code, out, err = run_main(
        ["stdnorm-check", "--check-paths", "4000", "--dt", "0.001953125", "--seed", "1"],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["check"] == "stdnorm"
    assert report["passed"] is True


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
    # x4 = 1e200 squares to inf at the first step; nothing is written
    code, out, err = run_main(
        ["simulate", "--x0-eps", "1e200", "--dt", "0.001953125", "--output", str(tmp_path)],
        capsys,
    )
    assert code == 1
    assert json.loads(out) == {
        "check": "simulate", "passed": False, "error": "non-finite state first reached at step 1",
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
