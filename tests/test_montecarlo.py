"""Coupled-distance estimation, epsilon sweeps, distributional checks."""

import hashlib
import io
import json
import math
import tracemalloc

import numpy as np
import pytest

import oracles
from sde_lab import bumps, cli, montecarlo, solvers
from sde_lab.model import ModelParams, build_axis_aligned, build_general
from sde_lab.montecarlo import (
    DistanceEstimate,
    EstimationFailedError,
    estimate_distance,
    stdnormality_test,
    sweep_epsilon,
    sweep_summary,
    sweep_to_csv,
)
from sde_lab.paths import TimeGrid, brownian_values_batch
from sde_lab.solvers import (
    _first_bad_steps,
    _x3_trapezoid,
    solve_cascade_batch,
    solve_em_batch,
)


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

    # a general B at d = 7, down to one-path chunks (40 = 3 * 13 + 1 leaves one
    # in the 13-path run too)
    rng = np.random.default_rng(41)
    prm = ModelParams(d=7, v=rng.uniform(-1, 1, 7), delta=rng.uniform(-1, 1, 7))
    gm = build_general(build_axis_aligned(prm))
    y = prm.v + 0.05 * prm.delta
    runs = []
    for chunk in (1024, 13, 1):
        monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
        runs.append(estimate_distance(gm, prm.v, y, 0.9, 40, 11, steps=256, solver=solver))
    assert np.all(np.isfinite(runs[0].distances))
    for run in runs[1:]:
        assert run.mean == runs[0].mean
        assert np.array_equal(run.distances, runs[0].distances)


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


def test_em_sweep_holds_one_history_at_a_time():
    # the Euler route advances the stacked starts to t and keeps no
    # (P, k_obs+1, d) history: at d = 16 one history is 1.7 MB, and the
    # sweep's traced peak must stay below half of it (it held one history at
    # a time, about 1.1 of one, when each start ran a full-history solve)
    gm = build_general(build_axis_aligned(ModelParams(d=16)))
    cfg = cli.ExperimentConfig()
    n_paths, steps = 64, 512
    k_obs = TimeGrid(T=1.0, steps=steps).nearest_index(cfg.t_eval)
    history = n_paths * (k_obs + 1) * gm.params.d * 8
    tracemalloc.start()
    try:
        sweep_epsilon(gm, cfg.t_eval, cfg.epsilons(), n_paths, 1, steps=steps, solver="em")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * history, peak / history


@pytest.mark.parametrize("taming", [True, False])
@pytest.mark.parametrize("d, m", [(7, 1), (9, 2)])
def test_em_sweep_states_at_t_are_separate_solves(monkeypatch, d, m, taming):
    # the stacked Euler route against one independent full-history solve per
    # start and chunk, read at k_obs; 65 paths in chunks of 32 leave a
    # one-path tail, and a start with a NaN must abort every path
    rng = np.random.default_rng(60 + d)
    prm = ModelParams(d=d, m=m, v=rng.uniform(-1, 1, d), delta=rng.uniform(-1, 1, d))
    gm = build_general(build_axis_aligned(prm))
    n_paths, steps, seed, t = 65, 256, 9, 0.9
    monkeypatch.setattr(montecarlo, "_CHUNK", 32)
    seen = []

    def spy(*args):
        seen.append(solvers._em_steps(*args))
        return seen[-1]

    monkeypatch.setattr(montecarlo, "_em_steps", spy)
    eps = np.array([0.3, 0.01, 1e-4])
    res = sweep_epsilon(gm, t, eps, n_paths, seed, steps=steps, solver="em", taming=taming)
    nan_start = prm.v.copy()
    nan_start[3] = np.nan
    with pytest.raises(EstimationFailedError, match=f"all {n_paths} paths aborted"):
        estimate_distance(gm, prm.v, nan_start, t, n_paths, seed, steps=steps,
                          solver="em", taming=taming)

    grid = TimeGrid(T=prm.T, steps=steps)
    k_obs = grid.nearest_index(t)
    w = brownian_values_batch(grid, m, seed, 0, n_paths)
    chunks = [(0, 32), (32, 64), (64, 65)]
    runs = [[prm.v, *(prm.v + e * prm.delta for e in eps)], [prm.v, nan_start]]
    assert len(seen) == len(runs) * len(chunks)
    want = []
    for r, starts in enumerate(runs):
        states = [
            np.concatenate([
                solve_em_batch(gm, grid, w[lo:hi], x0, taming=taming)[:, k_obs]
                for lo, hi in chunks
            ])
            for x0 in starts
        ]
        got = np.concatenate(seen[r * len(chunks) : (r + 1) * len(chunks)], axis=1)
        assert np.array_equal(got, np.stack(states), equal_nan=True)
        want.append(states)
    assert np.all(np.isfinite(want[0])) and not np.any(np.isfinite(want[1][1]))
    ref = want[0][0]
    for est, y_state in zip(res.estimates, want[0][1:]):
        assert np.array_equal(est.distances, np.linalg.norm(ref - y_state, axis=1))


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
    # the solver reads full-horizon paths, the check only the first k_tau
    # steps; at tau = 0.8 those steps read sines of the Box-Muller pairs too
    grid = TimeGrid(T=1.0, steps=512)
    for tau in (0.5, 0.8):
        axis = build_axis_aligned(ModelParams(tau=tau))
        k_tau = grid.nearest_index(axis.params.tau)
        gp = bumps.eval(axis.g, grid.times, 1)
        samples = montecarlo._x3_at_tau(grid, gp, k_tau, 9, 0, 300)
        w = brownian_values_batch(grid, 1, 9, 0, 300)[:, :, 0]
        x3 = solve_cascade_batch(axis, grid, w, np.zeros(5))[:, k_tau, 2]
        assert np.array_equal(samples, x3), tau


def _x3_weights(gp, dt, k_tau, block=256):
    """C_j: X3(tau) from the unit-increment path j (W = 1 after step j), by the
    package's own trapezoid, so that X3(tau) = sum_j C_j (W_{j+1} - W_j)."""
    weights = np.empty(k_tau)
    steps = np.arange(k_tau + 1)
    for lo in range(0, k_tau, block):
        rows = np.arange(lo, min(lo + block, k_tau))
        w = (steps > rows[:, None]).astype(float)
        x3 = np.empty_like(w)
        _x3_trapezoid(gp[: k_tau + 1], w, dt, 0.0, x3)
        weights[rows] = x3[:, -1]
    return weights


def test_discrete_x3_law_is_gaussian_with_variance_one_plus_order_dt2():
    # The scheme's X3(tau) is linear in the Gaussian increments, so it is
    # exactly N(0, Var_K) with Var_K = dt sum_j C_j^2; the continuum value is
    # int g^2 = 1, and the trapezoid's error is O(dt^2). Bounds fixed from the
    # order-2 prediction: error at most 50 dt^2 and positive, halving ratio
    # within 4 +- 0.1.
    axis = build_axis_aligned(ModelParams())
    exact = oracles.x3_variance(axis.g, axis.params.tau)
    assert abs(exact - 1.0) <= 1e-9
    errors = []
    for steps in (1024, 2048, 4096):
        grid = TimeGrid(T=axis.params.T, steps=steps)
        k_tau = grid.nearest_index(axis.params.tau)
        gp = bumps.eval(axis.g, grid.times, 1)
        weights = _x3_weights(gp, grid.dt, k_tau)
        err = grid.dt * np.sum(weights**2) - exact
        assert 0.0 < err <= 50.0 * grid.dt**2, (steps, err)
        errors.append(err)
        if steps == 2048:
            # the weights reproduce the sampled check's X3(tau) path by path
            samples = montecarlo._x3_at_tau(grid, gp, k_tau, 5, 0, 8)
            w = brownian_values_batch(grid, 1, 5, 0, 8, keep=k_tau)[:, :, 0]
            assert np.allclose(np.diff(w, axis=1) @ weights, samples, rtol=0, atol=1e-13)
    ratios = np.array(errors[:-1]) / np.array(errors[1:])
    assert np.all(np.abs(ratios - 4.0) <= 0.1), ratios


def test_stdnormality_passes_at_moderate_sample_size():
    axis = build_axis_aligned(ModelParams())
    rep = stdnormality_test(axis, 20_000, master_seed=5, steps=1024)
    assert rep.passed, rep.params
    assert abs(rep.params["var"] - 1.0) <= rep.params["var_tol"]
    assert rep.params["ks"] <= rep.params["ks_critical_1pct"]


def _x3_at_tau_reference(axis, grid, seed, n_paths):
    """X3(tau) of paths 0..n_paths-1 in one shot: the paths' first k_tau
    steps drawn whole, and the solver's running trapezoid over them."""
    k_tau = grid.nearest_index(axis.params.tau)
    gp = bumps.eval(axis.g, grid.times, 1)
    w = brownian_values_batch(grid, 1, seed, 0, n_paths, keep=k_tau)[:, :, 0]
    x3 = np.empty_like(w)
    _x3_trapezoid(gp[: k_tau + 1], w, grid.dt, 0.0, x3)
    return x3[:, -1]


def test_stdnormality_is_chunk_size_invariant(monkeypatch):
    # every sample's bits against the one-shot reference, in blocks of paths
    # and time slabs of several sizes. At tau = 0.8 X3(tau) reads sines too
    # (on 257 steps, an odd count, the pairs stop short of the grid); at
    # tau = 0.2 on 2 or 4 steps, tau falls on step 0 or 1. 4097, 4098 and
    # 8193 paths leave tails of 1, 2 and 1 path after blocks of 4096, and
    # a lone path joins the block before it
    for tau, steps in ((0.5, 256), (0.8, 256), (0.8, 257), (0.2, 2), (0.2, 4)):
        axis = build_axis_aligned(ModelParams(tau=tau))
        grid = TimeGrid(T=1.0, steps=steps)
        k_tau = grid.nearest_index(tau)
        gp = bumps.eval(axis.g, grid.times, 1)
        monkeypatch.undo()
        report = stdnormality_test(axis, 300, master_seed=5, steps=steps).to_json()
        refs = {}
        for n_paths, block, slab in (
            (300, 1, 1000), (300, 7, 3), (300, 13, 1), (300, 1024, 8), (300, 1024, 1000),
            (4097, 4096, 8), (4098, 4096, 3), (8193, 4096, 1), (8193, 4096, 1000),
        ):
            if n_paths not in refs:
                refs[n_paths] = _x3_at_tau_reference(axis, grid, 5, n_paths).view(np.int64)
            monkeypatch.setattr(montecarlo, "_STDNORM_BLOCK_PATHS", block)
            monkeypatch.setattr(montecarlo, "_STDNORM_SLAB_STEPS", slab)
            got = montecarlo._x3_at_tau(grid, gp, k_tau, 5, 0, n_paths).view(np.int64)
            assert np.array_equal(got, refs[n_paths]), (tau, steps, n_paths, block, slab)
            if block >= 1024:  # a range that starts past path 0
                lo = n_paths // 3
                got = montecarlo._x3_at_tau(grid, gp, k_tau, 5, lo, n_paths).view(np.int64)
                assert np.array_equal(got, refs[n_paths][lo:]), (tau, steps, n_paths, slab)
            if (n_paths, block) == (300, 13):
                b = stdnormality_test(axis, 300, master_seed=5, steps=steps).to_json()
                assert b == report, (tau, steps)


def test_stdnormality_memory_does_not_grow_with_k_tau():
    # no (k_tau + 1) x block workspace: the traced peak stays under the
    # samples plus a fixed allowance for the slab buffers and the KS
    # statistic's sorted copies, on a grid with four times the steps to tau
    axis = build_axis_aligned(ModelParams(tau=0.125))
    n_paths, allowance = 40_000, 4 << 20
    stdnormality_test(axis, 2, master_seed=3, steps=8)  # imports scipy.special
    peaks = []
    for steps in (2048, 8192):
        tracemalloc.start()
        try:
            stdnormality_test(axis, n_paths, master_seed=3, steps=steps)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < n_paths * 8 + allowance, peaks
    assert peaks[1] - peaks[0] < 256 << 10, peaks


def test_x3_at_tau_on_step_0_or_1_is_zero_in_any_block(monkeypatch):
    # tau = 0.2 on a 2- or 4-step grid: an empty or one-step trapezoid whose
    # g' vanishes, for one path and for three in blocks of one and of three
    axis = build_axis_aligned(ModelParams(tau=0.2))
    for steps in (2, 4):
        grid = TimeGrid(T=1.0, steps=steps)
        k_tau = grid.nearest_index(0.2)
        gp = bumps.eval(axis.g, grid.times, 1)
        for n, block in ((1, 1), (3, 1), (3, 3)):
            monkeypatch.setattr(montecarlo, "_STDNORM_BLOCK_PATHS", block)
            samples = montecarlo._x3_at_tau(grid, gp, k_tau, 5, 0, n)
            assert np.array_equal(samples, np.zeros(n)), (steps, n, block)


@pytest.mark.parametrize("n_paths", [0, 1])
def test_stdnormality_needs_two_paths(n_paths):
    axis = build_axis_aligned(ModelParams())
    with pytest.raises(ValueError, match="at least 2 paths"):
        stdnormality_test(axis, n_paths, master_seed=5, steps=256)


def test_stdnormality_nan_statistic_fails(monkeypatch):
    # a finite mean next to a NaN variance, as one path gave before N >= 2
    # was required: Python's max drops a NaN that is not its first argument
    monkeypatch.setattr(np, "var", lambda *args, **kwargs: np.nan)
    rep = stdnormality_test(build_axis_aligned(ModelParams()), 300, master_seed=5, steps=256)
    assert math.isfinite(rep.params["mean"])
    assert math.isnan(rep.max_violation)
    assert rep.passed is False


@pytest.mark.parametrize("n", [2, 3, 1000, 100_000])
def test_ks_statistic_is_scipys_to_the_bit(n):
    from scipy import stats

    rng = np.random.default_rng(n)
    for shift, scale in ((0.0, 1.0), (0.3, 1.0), (-0.1, 1.7), (0.05, 0.6)):
        x = shift + scale * rng.standard_normal(n)
        assert montecarlo._ks_statistic(x) == stats.kstest(x, "norm").statistic, (shift, scale)


def test_stdnormality_tolerances_scale():
    axis = build_axis_aligned(ModelParams())
    rep = stdnormality_test(axis, 5_000, master_seed=6, steps=512)
    assert rep.params["mean_tol"] == pytest.approx(4.0 / math.sqrt(5_000))
    assert rep.params["ks_critical_1pct"] == pytest.approx(1.63 / math.sqrt(5_000))
