"""Cascade and Euler integrators, first variation, affine transport."""

import io

import numpy as np
import pytest

import oracles
from sde_lab import solvers
from sde_lab.model import ModelParams, build_axis_aligned, build_general, eval_mu_jacobian
from sde_lab.paths import TimeGrid, brownian_values_batch
from sde_lab.solvers import (
    _first_bad_steps,
    solve_cascade_batch,
    solve_cascade_general,
    solve_cascade_observed,
    solve_em_batch,
    solve_variation_batch,
    write_solution_csv,
)


@pytest.fixture(scope="module")
def axis():
    return build_axis_aligned(ModelParams())


@pytest.fixture(scope="module")
def general(axis):
    return build_general(axis)


def _paths(grid: TimeGrid, seed: int, count: int, start: int = 0) -> np.ndarray:
    """Scalar Brownian paths start..start+count-1, shape (count, steps+1)."""
    return brownian_values_batch(grid, 1, seed, start, count)[:, :, 0]


def test_first_two_coordinates_are_exact(axis):
    grid = TimeGrid(T=1.0, steps=256)
    w = _paths(grid, 3, 1)
    x0 = np.array([0.1, -0.7, 0.2, 0.05, 0.0])
    states = solve_cascade_batch(axis, grid, w, x0)[0]
    assert np.array_equal(states[:, 0], 0.1 + grid.times)
    assert np.array_equal(states[:, 1], -0.7 + w[0])


def test_third_coordinate_quadrature(axis):
    # constant second coordinate c: the third is c * g(x0_1 + t) exactly
    grid = TimeGrid(T=1.0, steps=8192)
    w = np.zeros((1, grid.steps + 1))
    c = 1.3
    states = solve_cascade_batch(axis, grid, w, np.array([0.0, c, 0.0, 0.0, 0.0]))[0]
    from sde_lab import bumps

    expected = c * bumps.eval(axis.g, grid.times, 0)
    assert np.allclose(states[:, 2], expected, atol=2e-4)


def test_pair_against_adaptive_ode_oracle(axis):
    grid = TimeGrid(T=1.0, steps=4096)
    w = _paths(grid, 17, 1, start=4)
    eps = 0.05
    x0 = np.array([0.0, 0.0, 0.0, eps, 0.0])
    states = solve_cascade_batch(axis, grid, w, x0)[0]
    tau_idx = grid.nearest_index(axis.params.tau)
    z = states[tau_idx, 2]
    # beyond tau the third coordinate is frozen, so the final pair solves a
    # deterministic ODE in z; integrate it independently
    x4, x5 = oracles.pair_ode_final(
        axis.f, z**axis.params.n, axis.params.tau, 1.0, eps
    )
    assert states[-1, 3] == pytest.approx(x4, rel=1e-6, abs=1e-9)
    assert states[-1, 4] == pytest.approx(x5, rel=1e-6, abs=1e-9)


def test_pair_zero_start_stays_zero(axis):
    # x4(0) = 0 forces x4 = 0 and x5 = z^n * cumulative integral of f
    grid = TimeGrid(T=1.0, steps=2048)
    w = np.zeros((1, grid.steps + 1))
    z0 = 0.8
    states = solve_cascade_batch(axis, grid, w, np.array([0.0, 0.0, z0, 0.0, 0.0]))[0]
    assert np.all(states[:, 3] == 0.0)
    drift_int = oracles.drift_integral(axis.f, axis.params.tau, 1.0)
    assert states[-1, 4] == pytest.approx(z0**4 * drift_int, rel=1e-9)


def test_cascade_batch_matches_single(axis):
    # the rows of a one-start batch are the one-path solves, bit for bit
    grid = TimeGrid(T=1.0, steps=128)
    w = _paths(grid, 5, 4)
    x0 = np.array([0.03, 0.1, 0.0, 0.05, 0.0])
    batch = solve_cascade_batch(axis, grid, w, x0)
    for i in range(4):
        single = solve_cascade_batch(axis, grid, w[i : i + 1], x0)
        assert np.array_equal(batch[i : i + 1].view(np.int64), single.view(np.int64))


def test_cascade_batch_takes_one_start(axis):
    grid = TimeGrid(T=1.0, steps=16)
    w = _paths(grid, 5, 3)
    with pytest.raises(ValueError, match="expected \\(5,\\)"):
        solve_cascade_batch(axis, grid, w, np.zeros((3, 5)))


# Shared heads: x4 = 1e155 squares to inf before f acts; both solvers hold
# it until f acts, so neither makes a nan out of 0 * (z - inf) before tau,
# and x4 = -0.0 keeps its sign. Mixed heads: x3 = 10 blows up
# between steps 372 and about 390 on these paths, across k_obs = 375, and
# x3 = 1e60 within a few steps of tau; the last start has its own x1, so its
# bump factors differ from the others'. Mixed clocks, observed at k_obs =
# 240 before f acts: a start with x1 = 0.05 sees f act earlier, and an RK4
# window shared with it would turn 1e155 into nan and -0.0 into +0.0.
_SHARED_HEADS = [[0, 0, 0, 0, 0], [0, 0, 0, 0.05, 0], [0, 0, 0, 1e155, 0], [0, 0, 0, -0.0, 0.3]]
_MIXED_HEADS = [[0, 0, 0, 0, 0], [0, 0, 10, 0.05, 0], [0, 0, 1e60, 0.05, 0], [0.05, 0.1, 0.3, 0.2, -0.1]]
_MIXED_CLOCKS = [[0.05, 0.1, 0.3, 0.2, -0.1], [0, 0, 0, 1e155, 0], [0, 0, 0, -0.0, -0.3]]


@pytest.mark.parametrize("starts", [_SHARED_HEADS, _MIXED_HEADS, _MIXED_CLOCKS])
def test_observed_cascade_is_the_batch_solve_at_k_obs(axis, starts):
    grid = TimeGrid(T=1.0, steps=512)
    k_obs = 240 if starts is _MIXED_CLOCKS else 375
    w = brownian_values_batch(grid, 1, 4, 0, 40)[:, :, 0]
    obs = solve_cascade_observed(axis, grid, w, np.array(starts, dtype=float), k_obs)
    assert obs.shape == (len(starts), 40, 5)
    flags = []
    for start, o in zip(starts, obs):
        full = solve_cascade_batch(axis, grid, w, start)[:, : k_obs + 1]
        bad = _first_bad_steps(full) >= 0
        assert np.array_equal(~np.all(np.isfinite(o), axis=-1), bad)
        # one RK4 window per clock: the bits of a lone solve, zeros and nan alike
        assert np.array_equal(o.view(np.int64), full[:, -1].view(np.int64))
        # and no state turns non-finite before f acts, after tau
        assert np.all(_first_bad_steps(full)[bad] > grid.nearest_index(axis.params.tau))
        flags.append(bad)
    if starts is _MIXED_HEADS:
        assert 0 < flags[1].sum() < 40 and flags[2].all()
    if starts is _MIXED_CLOCKS:
        assert np.all(obs[1, :, 3] == 1e155) and np.all(np.signbit(obs[2, :, 3]))


def test_cascade_explosion_detected(axis):
    # a huge frozen third coordinate drives the pair out of float range
    grid = TimeGrid(T=1.0, steps=64)
    w = np.zeros((1, grid.steps + 1))
    x0 = np.array([0.0, 0.0, 1e60, 0.05, 0.0])
    assert _first_bad_steps(solve_cascade_batch(axis, grid, w, x0))[0] > 0
    # a non-finite start is non-finite from step 0
    nan_start = np.array([0.0, 0.0, np.nan, 0.05, 0.0])
    assert _first_bad_steps(solve_cascade_batch(axis, grid, w, nan_start))[0] == 0


def test_em_explosion_and_taming(general):
    grid = TimeGrid(T=1.0, steps=64)
    w = np.zeros((1, grid.steps + 1, 1))
    x0 = np.zeros(5)
    x0[2] = 1e60
    x0[3] = 0.05
    assert _first_bad_steps(solve_em_batch(general, grid, w, x0, taming=False))[0] > 0
    assert np.all(np.isfinite(solve_em_batch(general, grid, w, x0, taming=True)))
    x0[4] = np.nan
    assert _first_bad_steps(solve_em_batch(general, grid, w, x0, taming=True))[0] == 0


def test_em_batch_matches_single(general):
    grid = TimeGrid(T=1.0, steps=128)
    x0 = np.array([0.0, 0.0, 0.3, 0.05, 0.0])
    w = brownian_values_batch(grid, 1, 8, 0, 3)
    for taming in (True, False):
        batch = solve_em_batch(general, grid, w, x0, taming=taming)
        for i in range(3):
            single = solve_em_batch(general, grid, w[i : i + 1], x0, taming=taming)
            assert np.array_equal(batch[i : i + 1], single)


@pytest.mark.parametrize("taming", [True, False])
def test_em_one_path_solve_agrees_with_its_batch_row(taming):
    # with a general B a one-row drift product would take numpy's
    # matrix-vector route; the solver runs a lone path as two rows, so it
    # gets the bits of its batch row
    rng = np.random.default_rng(14)
    d = 7
    prm = ModelParams(d=d, v=rng.uniform(-1, 1, d), delta=rng.uniform(-1, 1, d))
    gm = build_general(build_axis_aligned(prm))
    grid = TimeGrid(T=1.0, steps=512)
    w = brownian_values_batch(grid, 1, 15, 0, 4)
    x0 = prm.v + gm.B @ rng.uniform(-0.3, 0.3, d)
    batch = solve_em_batch(gm, grid, w, x0, taming=taming)
    single = np.concatenate(
        [solve_em_batch(gm, grid, w[i : i + 1], x0, taming=taming) for i in range(4)]
    )
    assert np.all(np.isfinite(batch))
    assert np.array_equal(single, batch)


def test_em_commutes_with_affine_conjugation(axis):
    # the Euler step in transformed coordinates is the transform of the
    # Euler step, path by path (additive noise, exact commutation)
    rng = np.random.default_rng(11)
    d = 5
    prm = ModelParams(d=d, v=rng.uniform(-1, 1, d), delta=rng.uniform(-1, 1, d))
    gm = build_general(build_axis_aligned(prm))
    gm0 = build_general(axis)  # identity conjugation
    grid = TimeGrid(T=1.0, steps=256)
    w = brownian_values_batch(grid, 1, 13, 0, 1)
    y0 = rng.uniform(-0.3, 0.3, d)
    em_y = solve_em_batch(gm0, grid, w, y0, taming=False)
    em_x = solve_em_batch(gm, grid, w, gm.B @ y0 + prm.v, taming=False)
    assert np.allclose(em_x, em_y @ gm.B.T + prm.v, rtol=1e-10, atol=1e-10)


def _prefix_steps(K: int) -> list:
    """Steps k at which a test reads J, as the final J of the prefix X[:, :k+1]:
    the first step, both sides of the Jacobian block edge, and the last."""
    b = solvers._BLOCK_STEPS
    return sorted({k for k in (1, b - 1, b, b + 1, K) if 1 <= k <= K})


def test_variation_starts_at_direction_and_keeps_flat_rows(general):
    grid = TimeGrid(T=1.0, steps=256)
    w = brownian_values_batch(grid, 1, 21, 2, 1)
    X = solve_em_batch(general, grid, w, np.array([0.0, 0.0, 0.3, 0.05, 0.0]), taming=False)
    h = np.array([0.3, -1.0, 0.2, 0.5, 0.1])
    assert np.array_equal(solve_variation_batch(general, grid, X[:, :1], h)[0], h)
    for k in _prefix_steps(grid.steps):
        J = solve_variation_batch(general, grid, X[:, : k + 1], h)[0]
        # drift rows 1 and 2 vanish identically, so those components never move
        assert np.array_equal(J[:2], h[:2])


def test_variation_batch_matches_single(general):
    grid = TimeGrid(T=1.0, steps=64)
    w = brownian_values_batch(grid, 1, 22, 0, 3)
    X = solve_em_batch(general, grid, w, np.array([0.0, 0.0, 0.3, 0.05, 0.0]), taming=False)
    h = np.array([1.0, 0.0, 0.0, 0.5, -0.2])
    for k in range(grid.steps + 1):  # J at every step, as the final J of a prefix
        batch = solve_variation_batch(general, grid, X[:, : k + 1], h)
        assert batch.shape == (3, 5)
        for i in range(3):
            single = solve_variation_batch(general, grid, X[i : i + 1, : k + 1], h)
            assert np.array_equal(batch[i : i + 1], single)


def _variation_per_step(gm, grid, states, h):
    """The variation RK4 with one Jacobian call per grid point and midpoint."""
    P, K1, d = states.shape
    dt = grid.dt
    half = 0.5 * dt
    J = np.broadcast_to(np.asarray(h, dtype=float), (P, d)).copy()
    out = np.empty((P, K1, d))
    out[:, 0] = J

    def apply(jac, vec):
        return np.einsum("pij,pj->pi", jac, vec)

    jac_next = eval_mu_jacobian(gm, states[:, 0])
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(K1 - 1):
            jac0 = jac_next
            jac_mid = eval_mu_jacobian(gm, 0.5 * (states[:, k] + states[:, k + 1]))
            jac_next = eval_mu_jacobian(gm, states[:, k + 1])
            k1 = apply(jac0, J)
            k2 = apply(jac_mid, J + half * k1)
            k3 = apply(jac_mid, J + half * k2)
            k4 = apply(jac_next, J + dt * k3)
            J = J + dt / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
            out[:, k + 1] = J
    return out


@pytest.fixture(scope="module")
def conjugated():
    # d = 7 with a general B and v, so every Jacobian goes through both products
    rng = np.random.default_rng(40)
    d = 7
    prm = ModelParams(n=2, tau=1.0, T=2.0, d=d, v=rng.uniform(-1, 1, d),
                      delta=rng.uniform(-1, 1, d))
    return build_general(build_axis_aligned(prm))


@pytest.mark.parametrize("n_paths", [1, 20])
@pytest.mark.parametrize("past_block", [-1, 0, 1])
def test_variation_matches_per_step_jacobians_bit_for_bit(conjugated, n_paths, past_block):
    # K below, at and one past the Jacobian block length
    gm, rng = conjugated, np.random.default_rng(41)
    steps = solvers._BLOCK_STEPS + past_block
    grid = TimeGrid(T=2.0, steps=steps)
    w = brownian_values_batch(grid, 1, 41, 0, n_paths)
    x0 = gm.B @ rng.uniform(-0.3, 0.3, 7) + gm.params.v
    X = solve_em_batch(gm, grid, w, x0, taming=False)
    h = rng.standard_normal(7)
    reference = _variation_per_step(gm, grid, X, h)
    assert np.any(solve_variation_batch(gm, grid, X, h) != h)
    for k in _prefix_steps(steps):
        J = solve_variation_batch(gm, grid, X[:, : k + 1], h)
        assert np.array_equal(J, reference[:, k])


@pytest.mark.parametrize("taming", [False, True])
@pytest.mark.parametrize("n_paths", [1, 5, 20])  # 2, 10 and 40 stacked rows
def test_em_stacked_starts_match_separate_solves(conjugated, n_paths, taming):
    # the drift goes through BLAS products, whose bits may depend on the row count
    gm, rng = conjugated, np.random.default_rng(42)
    grid = TimeGrid(T=2.0, steps=128)
    w = brownian_values_batch(grid, 1, 42, 0, n_paths)
    x0 = gm.B @ rng.uniform(-0.3, 0.3, 7) + gm.params.v
    xh = x0 + 1e-5 * rng.standard_normal(7)
    starts = np.broadcast_to(np.stack([x0, xh])[:, None], (2, n_paths, 7))
    both = solve_em_batch(gm, grid, w, starts, taming=taming)
    assert both.shape == (2, n_paths, grid.steps + 1, 7)
    for s, start in enumerate((x0, xh)):
        assert np.array_equal(both[s], solve_em_batch(gm, grid, w, start, taming=taming))


def test_variation_of_frozen_jacobian_is_matrix_exponential(general):
    # constant states make the variation a linear constant-coefficient ODE
    from scipy.linalg import expm

    grid = TimeGrid(T=1.0, steps=512)
    x_star = np.array([0.7, 0.5, 0.4, 0.2, -0.1])
    states = np.tile(x_star, (grid.steps + 1, 1))
    h = np.array([0.0, 1.0, -0.5, 0.3, 0.2])
    J = solve_variation_batch(general, grid, states[None, ...], h)[0]
    jac = eval_mu_jacobian(general, x_star)
    assert np.allclose(J, expm(jac) @ h, rtol=1e-8, atol=1e-10)


def test_cascade_general_default_model_is_padded_batch():
    # B = I and v = 0: the transport only pads with the constant coordinates
    gm = build_general(build_axis_aligned(ModelParams(d=7)))
    grid = TimeGrid(T=1.0, steps=128)
    w = _paths(grid, 31, 3)
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
    w = _paths(grid, 30, 3)
    y0 = rng.uniform(-0.3, 0.3, d)
    X = solve_cascade_general(gm, grid, w, y0)
    assert X.shape == (3, grid.steps + 1, d)
    back = (X - prm.v) @ gm.Binv.T
    cascade = solve_cascade_batch(gm.base, grid, w, y0[:5])
    assert np.allclose(back[:, :, :5], cascade, rtol=0.0, atol=1e-12)
    # coordinates 6 and 7 are constants of the motion
    assert np.allclose(back[:, :, 5:], y0[5:], rtol=0.0, atol=1e-12)


def test_initial_value_shape_check(general):
    grid = TimeGrid(T=1.0, steps=4)
    w = np.zeros((2, 5, 1))
    with pytest.raises(ValueError, match="initial value shape"):
        solve_em_batch(general, grid, w, np.zeros((3, 5)))
    with pytest.raises(ValueError, match="initial value shape"):
        solve_em_batch(general, grid, w, np.zeros((2, 3, 5)))


def test_solution_csv_round_trip(general):
    grid = TimeGrid(T=1.0, steps=4)
    w = np.zeros((1, grid.steps + 1, 1))
    states = solve_em_batch(general, grid, w, np.array([0.0, 0.0, 0.3, 0.05, 0.0]))[0]
    buf = io.StringIO()
    write_solution_csv(grid, states, buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == "t,x1,x2,x3,x4,x5"
    back = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1)
    assert np.array_equal(back[:, 1:], states)
