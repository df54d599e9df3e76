"""Coupled-distance estimation, epsilon sweeps, distributional checks."""

import hashlib
import io
import json
import math

import numpy as np
import pytest

from sde_lab import bumps, cli, montecarlo
from sde_lab.model import ModelParams, build_axis_aligned, build_general
from sde_lab.montecarlo import (
    DistanceEstimate,
    EstimationFailedError,
    FitError,
    SweepResult,
    estimate_distance,
    fit_exponent,
    stdnormality_test,
    sweep_epsilon,
    sweep_summary,
    sweep_to_csv,
)
from sde_lab.paths import TimeGrid, brownian_values_batch
from sde_lab.solvers import _first_bad_steps, solve_cascade_batch


@pytest.fixture(scope="module")
def general():
    return build_general(build_axis_aligned(ModelParams()))


def _small_sweep(gm, seed=7, n_paths=300, steps=512, **kw):
    eps = np.exp(-np.arange(1.0, 4.0))
    return sweep_epsilon(gm, 0.9, eps, n_paths, seed, steps=steps, **kw)


@pytest.mark.parametrize("solver", ["cascade", "em"])
def test_estimate_is_thread_count_invariant(general, solver):
    x = general.params.v
    y = x + 0.05 * general.params.delta
    kw = dict(steps=256, solver=solver)
    a = estimate_distance(general, x, y, 0.9, 300, 11, n_threads=1, **kw)
    b = estimate_distance(general, x, y, 0.9, 300, 11, n_threads=4, **kw)
    assert a.mean == b.mean
    assert a.std_error == b.std_error
    assert np.array_equal(a.distances, b.distances, equal_nan=True)


@pytest.mark.parametrize("solver", ["cascade", "em"])
def test_estimate_is_chunk_size_invariant(general, monkeypatch, solver):
    x = general.params.v
    y = x + 0.05 * general.params.delta
    a = estimate_distance(general, x, y, 0.9, 300, 11, steps=256, solver=solver)
    monkeypatch.setattr(montecarlo, "_CHUNK", 64)
    b = estimate_distance(general, x, y, 0.9, 300, 11, steps=256, solver=solver)
    assert a.mean == b.mean
    assert np.array_equal(a.distances, b.distances, equal_nan=True)


@pytest.mark.parametrize("solver", ["cascade", "em"])
def test_sweep_rows_are_the_single_pair_estimates(general, solver):
    res = _small_sweep(general, solver=solver)
    v, delta = general.params.v, general.params.delta
    for e, row in zip(res.eps_grid, res.estimates):
        y = v + e * delta
        est = estimate_distance(general, v, y, 0.9, 300, 7, steps=512, solver=solver)
        assert np.array_equal(row.distances, est.distances, equal_nan=True)
        assert row.mean == est.mean
        assert row.std_error == est.std_error


@pytest.mark.parametrize(
    "solver, n_paths, steps, digest",
    [
        ("cascade", 256, 2048, "9c1f6574094988393fe58cea7ef77a684f08d084cd8932511ef0898094c078ee"),
        ("cascade", 2048, 2048, "02e2b0d09b0b469d1d0051b03145d13de90a17bb12a1794c60ac314ac13aa240"),
        ("em", 64, 512, "8d8681d5468ebb9a62b755416fbe8f169ffa2f9546b43d13746e53ed9d228c21"),
    ],
)
def test_default_sweep_distances_are_frozen(solver, n_paths, steps, digest):
    # per-path distances of the default epsilon grid, pinned so that a
    # performance change cannot move a seeded number unnoticed
    cfg = cli.ExperimentConfig()
    gm = cli._build_general(cfg)
    res = sweep_epsilon(
        gm, cfg.t_eval, cfg.epsilons(), n_paths, cli.DEFAULT_SEED, steps=steps, solver=solver
    )
    data = b"".join(est.distances.tobytes() for est in res.estimates)
    assert hashlib.sha256(data).hexdigest() == digest


def test_identical_starts_give_zero_distance(general):
    x = general.params.v
    est = estimate_distance(general, x, x, 0.9, 50, 3, steps=256)
    assert est.mean == 0.0
    assert est.std_error == 0.0
    assert est.aborted == 0


def test_estimate_snaps_time_to_grid(general):
    x = general.params.v
    est = estimate_distance(general, x, x, 0.9, 2, 3, steps=2048)
    assert est.t == 1843.0 / 2048.0


def test_cascade_and_em_routes_agree(general):
    x = general.params.v
    y = x + 0.2 * general.params.delta
    casc = estimate_distance(
        general, x, y, 0.9, 400, 19, steps=2048, solver="cascade"
    )
    em = estimate_distance(
        general, x, y, 0.9, 400, 19, steps=2048, solver="em", taming=False
    )
    assert casc.aborted == 0 and em.aborted == 0
    # same coupling, same paths; only the integrator differs, and its error
    # scales with each path's own exponential magnitude
    assert em.mean == pytest.approx(casc.mean, rel=2e-2)
    worst = np.max(np.abs(casc.distances - em.distances) / (1.0 + casc.distances))
    assert worst <= 0.05


def test_estimate_validation(general):
    x = general.params.v
    with pytest.raises(ValueError, match="t in"):
        estimate_distance(general, x, x, 2.0, 10, 0)
    with pytest.raises(ValueError, match="at least 2 paths"):
        estimate_distance(general, x, x, 0.9, 1, 0)
    with pytest.raises(ValueError, match="unknown solver"):
        estimate_distance(general, x, x, 0.9, 10, 0, solver="milstein")


def test_all_paths_aborting_raises(general):
    x = np.zeros(5)
    x[2] = 1e60  # huge frozen third coordinate plus a live fourth explodes
    x[3] = 0.05
    with pytest.raises(EstimationFailedError, match="aborted"):
        estimate_distance(general, x, x, 0.9, 8, 0, steps=64)


def test_paths_abort_only_when_non_finite_by_t(general):
    # from x3 = 10 with a live fourth coordinate most paths blow up between
    # steps 372 and 387 of 512; observed at step 375, the later blow-ups do
    # not depend on anything up to t and must not abort
    grid = TimeGrid(T=1.0, steps=512)
    k_obs = 375
    x = np.array([0.0, 0.0, 10.0, 0.05, 0.0])
    y = x + 0.01 * general.params.delta
    est = estimate_distance(general, x, y, k_obs / 512, 40, 4, steps=512)
    w = brownian_values_batch(grid, 1, 4, 0, 40)[:, :, 0]
    with np.errstate(over="ignore", invalid="ignore"):
        first = [_first_bad_steps(solve_cascade_batch(general.base, grid, w, s)) for s in (x, y)]
    by_t = ((first[0] >= 0) & (first[0] <= k_obs)) | ((first[1] >= 0) & (first[1] <= k_obs))
    by_T = (first[0] >= 0) | (first[1] >= 0)
    assert by_t.any()
    assert np.array_equal(np.isnan(est.distances), by_t)
    assert np.any(by_T & ~by_t & np.isfinite(est.distances))
    # aborted also counts finite states whose distance overflows to inf
    assert (est.aborted, by_t.sum(), np.isinf(est.distances).sum()) == (11, 9, 2)


def test_distance_estimate_consistency_guard():
    with pytest.raises(ValueError, match="inconsistent"):
        DistanceEstimate(
            x=np.zeros(5),
            y=np.zeros(5),
            t=0.9,
            n_paths=10,
            mean=-1.0,
            std_error=0.0,
            aborted=0,
        )


def test_sweep_validation(general):
    with pytest.raises(ValueError, match="strictly decreasing"):
        sweep_epsilon(general, 0.9, [0.1, 0.2], 10, 0)
    with pytest.raises(ValueError, match="at least two"):
        sweep_epsilon(general, 0.9, [0.1], 10, 0)
    with pytest.raises(ValueError, match="in \\(0, 1/e\\]"):
        sweep_epsilon(general, 0.9, [0.9, 0.1], 10, 0)
    with pytest.raises(ValueError, match="t in"):
        sweep_epsilon(general, 0.3, [0.2, 0.1], 10, 0)


def test_sweep_structure_and_curves(general):
    res = _small_sweep(general)
    assert res.regime == "non-hoelder"
    assert res.master_seed == 7
    means = np.array([e.mean for e in res.estimates])
    expect_slopes = np.diff(np.log(means)) / np.diff(np.log(res.eps_grid))
    assert np.allclose(res.local_slopes, expect_slopes)
    n = general.params.n
    c = res.constants["c"]
    lower = np.exp(-c * np.abs(np.log(res.eps_grid)) ** (2.0 / n))
    assert np.allclose(res.lower_bound_curve, lower)
    upper = np.abs(np.log(res.eps_grid)) ** (-general.params.q)
    assert np.allclose(res.upper_bound_curve, upper)
    assert res.constants["K"] == 1.0
    assert res.constants["kappa_t"] > 0.0
    assert all(e.aborted == 0 for e in res.estimates)


def test_sweep_mean_decreases_with_eps(general):
    res = _small_sweep(general)
    means = np.array([e.mean for e in res.estimates])
    assert np.all(np.diff(means) < 0.0)


def test_fit_exponent_synthetic():
    eps = np.exp(-np.arange(1.0, 6.0))
    means = eps**0.7

    def fake_estimate(m):
        return DistanceEstimate(
            x=np.zeros(5),
            y=np.zeros(5),
            t=0.9,
            n_paths=10,
            mean=float(m),
            std_error=0.0,
            aborted=0,
        )

    res = SweepResult(
        eps_grid=eps,
        estimates=[fake_estimate(m) for m in means],
        local_slopes=np.diff(np.log(means)) / np.diff(np.log(eps)),
        lower_bound_curve=np.zeros_like(eps),
        upper_bound_curve=np.zeros_like(eps),
        constants={},
        regime="non-hoelder",
        master_seed=0,
    )
    assert np.allclose(fit_exponent(res, window=2), 0.7)
    assert np.allclose(fit_exponent(res, window=3), 0.7)
    assert len(fit_exponent(res, window=5)) == 1
    with pytest.raises(FitError, match="window"):
        fit_exponent(res, window=1)
    with pytest.raises(FitError, match="exceeds"):
        fit_exponent(res, window=6)
    res.estimates[0] = fake_estimate(0.0)
    with pytest.raises(FitError, match="nonpositive"):
        fit_exponent(res, window=2)


def test_sweep_csv_round_trip(general):
    res = _small_sweep(general)
    buf = io.StringIO()
    sweep_to_csv(res, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "eps,mean,stderr,aborted,lower_bound,upper_bound,local_slope"
    assert len(lines) == 1 + len(res.eps_grid)
    back = np.genfromtxt(io.StringIO(buf.getvalue()), delimiter=",", skip_header=1)
    assert np.allclose(back[:, 0], res.eps_grid)
    assert np.allclose(back[:-1, 6], res.local_slopes)
    assert np.isnan(back[-1, 6])


def test_sweep_summary_serializes(general):
    res = _small_sweep(general)
    summary = sweep_summary(res)
    text = json.dumps(summary)
    parsed = json.loads(text)
    for key in (
        "regime",
        "master_seed",
        "constants",
        "eps",
        "mean",
        "std_error",
        "aborted",
        "n_paths",
        "local_slopes",
        "lower_bound",
        "upper_bound",
    ):
        assert key in parsed
    assert parsed["n_paths"] == 300
    assert len(parsed["local_slopes"]) == len(parsed["eps"]) - 1


def test_x3_samples_are_the_cascade_solvers_x3_at_tau():
    axis = build_axis_aligned(ModelParams())
    grid = TimeGrid(T=1.0, steps=512)
    k_tau = grid.nearest_index(axis.params.tau)
    gp = bumps.eval(axis.g, grid.times, 1)
    samples = np.empty(300)
    montecarlo._x3_at_tau_chunk(grid, gp, k_tau, 9, 0, 300, samples)
    w = brownian_values_batch(grid, 1, 9, 0, 300)[:, :, 0]
    x3 = solve_cascade_batch(axis, grid, w, np.zeros(5))[:, k_tau, 2]
    assert np.array_equal(samples, x3)


def test_stdnormality_passes_at_moderate_sample_size():
    axis = build_axis_aligned(ModelParams())
    rep = stdnormality_test(axis, 20_000, master_seed=5, steps=1024)
    assert rep.passed, rep.params
    assert abs(rep.params["var"] - 1.0) <= rep.params["var_tol"]
    assert rep.params["ks"] <= rep.params["ks_critical_1pct"]


def test_stdnormality_is_chunk_size_invariant(monkeypatch):
    axis = build_axis_aligned(ModelParams())
    a = stdnormality_test(axis, 300, master_seed=5, steps=256)
    monkeypatch.setattr(montecarlo, "_CHUNK", 64)
    b = stdnormality_test(axis, 300, master_seed=5, steps=256)
    assert a.to_dict() == b.to_dict()


def test_stdnormality_tolerances_scale():
    axis = build_axis_aligned(ModelParams())
    rep = stdnormality_test(axis, 5_000, master_seed=6, steps=512)
    assert rep.params["mean_tol"] == pytest.approx(4.0 / math.sqrt(5_000))
    assert rep.params["ks_critical_1pct"] == pytest.approx(1.63 / math.sqrt(5_000))
