"""Cascade and Euler integrators, first variation, affine transport."""

import io

import numpy as np
import pytest

import oracles
from sde_lab.model import ModelParams, build_axis_aligned, build_general
from sde_lab.paths import BrownianPath, TimeGrid, brownian_values_batch, sample_brownian
from sde_lab.solvers import (
    SolutionPath,
    SolverExplosionError,
    _first_bad_steps,
    solve_cascade,
    solve_cascade_batch,
    solve_cascade_general,
    solve_cascade_observed,
    solve_em,
    solve_em_batch,
    solve_variation,
    solve_variation_batch,
    write_solution_csv,
)


@pytest.fixture(scope="module")
def axis():
    return build_axis_aligned(ModelParams())


@pytest.fixture(scope="module")
def general(axis):
    return build_general(axis)


def _zero_path(grid: TimeGrid, m: int = 1) -> BrownianPath:
    return BrownianPath(grid=grid, values=np.zeros((grid.steps + 1, m)))


def test_first_two_coordinates_are_exact(axis):
    grid = TimeGrid(T=1.0, steps=256)
    W = sample_brownian(grid, 1, master_seed=3, path_index=0)
    x0 = np.array([0.1, -0.7, 0.2, 0.05, 0.0])
    sol = solve_cascade(axis, W, x0)
    assert np.array_equal(sol.states[:, 0], 0.1 + grid.times)
    assert np.array_equal(sol.states[:, 1], -0.7 + W.values[:, 0])


def test_third_coordinate_quadrature(axis):
    # constant second coordinate c: the third is c * g(x0_1 + t) exactly
    grid = TimeGrid(T=1.0, steps=8192)
    W = _zero_path(grid)
    c = 1.3
    sol = solve_cascade(axis, W, np.array([0.0, c, 0.0, 0.0, 0.0]))
    from sde_lab import bumps

    expected = c * bumps.eval(axis.g, grid.times, 0)
    assert np.allclose(sol.states[:, 2], expected, atol=2e-4)


def test_pair_against_adaptive_ode_oracle(axis):
    grid = TimeGrid(T=1.0, steps=4096)
    W = sample_brownian(grid, 1, master_seed=17, path_index=4)
    eps = 0.05
    x0 = np.array([0.0, 0.0, 0.0, eps, 0.0])
    sol = solve_cascade(axis, W, x0)
    tau_idx = grid.nearest_index(axis.params.tau)
    z = sol.states[tau_idx, 2]
    # beyond tau the third coordinate is frozen, so the final pair solves a
    # deterministic ODE in z; integrate it independently
    x4, x5 = oracles.pair_ode_final(
        axis.f, z**axis.params.n, axis.params.tau, 1.0, eps
    )
    assert sol.states[-1, 3] == pytest.approx(x4, rel=1e-6, abs=1e-9)
    assert sol.states[-1, 4] == pytest.approx(x5, rel=1e-6, abs=1e-9)


def test_pair_zero_start_stays_zero(axis):
    # x4(0) = 0 forces x4 = 0 and x5 = z^n * cumulative integral of f
    grid = TimeGrid(T=1.0, steps=2048)
    W = _zero_path(grid)
    z0 = 0.8
    sol = solve_cascade(axis, W, np.array([0.0, 0.0, z0, 0.0, 0.0]))
    assert np.all(sol.states[:, 3] == 0.0)
    drift_int = oracles.drift_integral(axis.f, axis.params.tau, 1.0)
    assert sol.states[-1, 4] == pytest.approx(z0**4 * drift_int, rel=1e-9)


def test_cascade_batch_matches_single(axis):
    grid = TimeGrid(T=1.0, steps=128)
    w = np.stack(
        [sample_brownian(grid, 1, 5, i).values[:, 0] for i in range(4)]
    )
    # varied starts: every row goes through the general (per-path bump) branch
    x0 = np.array([[0.01 * i, 0.1, 0.0, 0.05, 0.0] for i in range(4)])
    batch = solve_cascade_batch(axis, grid, w, x0)
    for i in range(4):
        W = BrownianPath(grid=grid, values=w[i][:, None])
        single = solve_cascade(axis, W, x0[i])
        assert np.array_equal(batch[i], single.states)


def test_cascade_shared_start_branch_consistency(axis):
    grid = TimeGrid(T=1.0, steps=128)
    w = np.stack(
        [sample_brownian(grid, 1, 6, i).values[:, 0] for i in range(3)]
    )
    x0_shared = np.tile([0.0, 0.0, 0.0, 0.05, 0.0], (3, 1))
    shared = solve_cascade_batch(axis, grid, w, x0_shared)
    # same rows through the varied branch: nudge one start then restore
    x0_varied = x0_shared.copy()
    x0_varied[0, 0] = 1e-9
    varied = solve_cascade_batch(axis, grid, w, x0_varied)
    assert np.allclose(shared[1:], varied[1:], rtol=0.0, atol=0.0)


# Shared heads: x4 = 1e155 squares to inf before f acts, where the batch
# solver already turns 0 * (z - inf) into nan. Mixed heads: x3 = 10 blows up
# between steps 372 and about 390 on these paths, across k_obs = 375, and
# x3 = 1e60 within a few steps of tau; the last start has its own x1, so its
# bump factors differ from the others'.
_SHARED_HEADS = [[0, 0, 0, 0, 0], [0, 0, 0, 0.05, 0], [0, 0, 0, 1e155, 0], [0, 0, 0, -0.0, 0.3]]
_MIXED_HEADS = [[0, 0, 0, 0, 0], [0, 0, 10, 0.05, 0], [0, 0, 1e60, 0.05, 0], [0.05, 0.1, 0.3, 0.2, -0.1]]


@pytest.mark.parametrize("starts", [_SHARED_HEADS, _MIXED_HEADS])
def test_observed_cascade_is_the_batch_solve_at_k_obs(axis, starts):
    grid = TimeGrid(T=1.0, steps=512)
    k_obs = 375
    w = brownian_values_batch(grid, 1, 4, 0, 40)[:, :, 0]
    obs = solve_cascade_observed(axis, grid, w, np.array(starts, dtype=float), k_obs)
    assert obs.shape == (len(starts), 40, 5)
    flags = []
    for start, o in zip(starts, obs):
        full = solve_cascade_batch(axis, grid, w, start)[:, : k_obs + 1]
        bad = _first_bad_steps(full) >= 0
        assert np.array_equal(~np.all(np.isfinite(o), axis=-1), bad)
        assert np.array_equal(o[~bad], full[~bad, -1])  # == ignores the sign of a zero
        flags.append(bad)
    if starts is _MIXED_HEADS:
        assert 0 < flags[1].sum() < 40 and flags[2].all()


def test_cascade_requires_scalar_path(axis):
    grid = TimeGrid(T=1.0, steps=8)
    W = BrownianPath(grid=grid, values=np.zeros((9, 2)))
    with pytest.raises(ValueError, match="scalar path"):
        solve_cascade(axis, W, np.zeros(5))


def test_cascade_explosion_detected(axis):
    # a huge frozen third coordinate drives the pair out of float range
    grid = TimeGrid(T=1.0, steps=64)
    W = _zero_path(grid)
    x0 = np.array([0.0, 0.0, 1e60, 0.05, 0.0])
    with pytest.raises(SolverExplosionError) as err:
        solve_cascade(axis, W, x0)
    assert err.value.step_index > 0
    # a non-finite start is an explosion at step 0, not a bad initial value
    with pytest.raises(SolverExplosionError) as err:
        solve_cascade(axis, W, np.array([0.0, 0.0, np.nan, 0.05, 0.0]))
    assert err.value.step_index == 0


def test_em_explosion_and_taming(general):
    grid = TimeGrid(T=1.0, steps=64)
    W = _zero_path(grid, m=1)
    x0 = np.zeros(5)
    x0[2] = 1e60
    x0[3] = 0.05
    with pytest.raises(SolverExplosionError):
        solve_em(general, W, x0, taming=False)
    sol = solve_em(general, W, x0, taming=True)
    assert np.all(np.isfinite(sol.states))
    x0[4] = np.nan
    with pytest.raises(SolverExplosionError) as err:
        solve_em(general, W, x0, taming=True)
    assert err.value.step_index == 0


def test_em_batch_matches_single(general):
    grid = TimeGrid(T=1.0, steps=128)
    x0 = np.array([0.0, 0.0, 0.3, 0.05, 0.0])
    for taming in (True, False):
        w = np.stack(
            [sample_brownian(grid, 1, 8, i).values for i in range(3)]
        )
        batch = solve_em_batch(general, grid, w, x0, taming=taming)
        for i in range(3):
            W = BrownianPath(grid=grid, values=w[i])
            single = solve_em(general, W, x0, taming=taming)
            assert np.array_equal(batch[i], single.states)


def test_em_path_dimension_mismatch(general):
    grid = TimeGrid(T=1.0, steps=8)
    W = BrownianPath(grid=grid, values=np.zeros((9, 2)))
    with pytest.raises(ValueError, match="model expects"):
        solve_em(general, W, np.zeros(5))


def test_em_commutes_with_affine_conjugation(axis):
    # the Euler step in transformed coordinates is the transform of the
    # Euler step, path by path (additive noise, exact commutation)
    rng = np.random.default_rng(11)
    d = 5
    prm = ModelParams(d=d, v=rng.uniform(-1, 1, d), delta=rng.uniform(-1, 1, d))
    gm = build_general(build_axis_aligned(prm))
    gm0 = build_general(axis)  # identity conjugation
    grid = TimeGrid(T=1.0, steps=256)
    w = sample_brownian(grid, 1, 13, 0).values[None, ...]
    y0 = rng.uniform(-0.3, 0.3, d)
    em_y = solve_em_batch(gm0, grid, w, y0, taming=False)
    em_x = solve_em_batch(gm, grid, w, gm.B @ y0 + prm.v, taming=False)
    assert np.allclose(em_x, em_y @ gm.B.T + prm.v, rtol=1e-10, atol=1e-10)


def test_variation_starts_at_direction_and_keeps_flat_rows(general):
    grid = TimeGrid(T=1.0, steps=256)
    W = sample_brownian(grid, 1, 21, 2)
    X = solve_em(general, W, np.array([0.0, 0.0, 0.3, 0.05, 0.0]), taming=False)
    h = np.array([0.3, -1.0, 0.2, 0.5, 0.1])
    J = solve_variation(general, X, h)
    assert np.array_equal(J.states[0], h)
    # drift rows 1 and 2 vanish identically, so those components never move
    assert np.all(J.states[:, 0] == h[0])
    assert np.all(J.states[:, 1] == h[1])


def test_variation_batch_matches_single(general):
    grid = TimeGrid(T=1.0, steps=64)
    W = sample_brownian(grid, 1, 22, 0)
    X = solve_em(general, W, np.array([0.0, 0.0, 0.3, 0.05, 0.0]), taming=False)
    h = np.array([1.0, 0.0, 0.0, 0.5, -0.2])
    single = solve_variation(general, X, h)
    batch = solve_variation_batch(general, grid, X.states[None, ...], h)
    assert np.array_equal(batch[0], single.states)


def test_variation_of_frozen_jacobian_is_matrix_exponential(general):
    # constant states make the variation a linear constant-coefficient ODE
    from scipy.linalg import expm

    from sde_lab.model import eval_mu_jacobian

    grid = TimeGrid(T=1.0, steps=512)
    x_star = np.array([0.7, 0.5, 0.4, 0.2, -0.1])
    states = np.tile(x_star, (grid.steps + 1, 1))
    h = np.array([0.0, 1.0, -0.5, 0.3, 0.2])
    J = solve_variation_batch(general, grid, states[None, ...], h)[0]
    jac = eval_mu_jacobian(general, x_star)
    assert np.allclose(J[-1], expm(jac) @ h, rtol=1e-8, atol=1e-10)


def _batch_paths(grid, seed, count):
    return np.stack([sample_brownian(grid, 1, seed, i).values[:, 0] for i in range(count)])


def test_cascade_general_default_model_is_padded_batch():
    # B = I and v = 0: the transport only pads with the constant coordinates
    gm = build_general(build_axis_aligned(ModelParams(d=7)))
    grid = TimeGrid(T=1.0, steps=128)
    w = _batch_paths(grid, 31, 3)
    y0 = np.array([0.1, -0.2, 0.3, 0.05, -0.1, 0.7, -0.4])
    X = solve_cascade_general(gm, grid, w, y0)
    padded = np.empty((3, grid.steps + 1, 7))
    padded[:] = y0
    padded[:, :, :5] = solve_cascade_batch(gm.base, grid, w, y0[:5])
    assert np.array_equal(X, padded)


def test_cascade_general_transport_recovers_cascade_d7():
    rng = np.random.default_rng(12)
    d = 7
    prm = ModelParams(d=d, v=rng.uniform(-1, 1, d), delta=rng.uniform(-1, 1, d))
    gm = build_general(build_axis_aligned(prm))
    grid = TimeGrid(T=1.0, steps=64)
    w = _batch_paths(grid, 30, 3)
    y0 = rng.uniform(-0.3, 0.3, d)
    X = solve_cascade_general(gm, grid, w, y0)
    assert X.shape == (3, grid.steps + 1, d)
    back = (X - prm.v) @ gm.Binv.T
    cascade = solve_cascade_batch(gm.base, grid, w, y0[:5])
    assert np.allclose(back[:, :, :5], cascade, rtol=0.0, atol=1e-12)
    # coordinates 6 and 7 are constants of the motion
    assert np.allclose(back[:, :, 5:], y0[5:], rtol=0.0, atol=1e-12)


def test_solution_path_validation():
    grid = TimeGrid(T=1.0, steps=4)
    good = np.zeros((5, 3))
    with pytest.raises(ValueError, match="does not match grid"):
        SolutionPath(grid=grid, states=np.zeros((4, 3)), initial=np.zeros(3))
    with pytest.raises(ValueError, match="must equal the initial"):
        SolutionPath(grid=grid, states=good, initial=np.ones(3))
    bad = good.copy()
    bad[2, 1] = np.nan
    with pytest.raises(SolverExplosionError) as err:
        SolutionPath(grid=grid, states=bad, initial=np.zeros(3))
    assert err.value.step_index == 2


def test_initial_value_shape_check(general):
    grid = TimeGrid(T=1.0, steps=4)
    w = np.zeros((2, 5, 1))
    with pytest.raises(ValueError, match="initial value shape"):
        solve_em_batch(general, grid, w, np.zeros((3, 5)))


def test_solution_csv_round_trip(general):
    grid = TimeGrid(T=1.0, steps=4)
    W = _zero_path(grid)
    sol = solve_em(general, W, np.array([0.0, 0.0, 0.3, 0.05, 0.0]))
    buf = io.StringIO()
    write_solution_csv(sol, buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == "t,x1,x2,x3,x4,x5"
    back = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1)
    assert np.array_equal(back[:, 1:], sol.states)
