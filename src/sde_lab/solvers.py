"""Path solvers: structure-exploiting cascade and its affine transport into
R^d (solve_cascade_general), generic (tamed) Euler scheme, first-variation
integrator.

The cascade solver mirrors the triangular structure of the drift: the first
two coordinates are exact, the third is a quadrature of the second, and the
last two form a nonautonomous ODE driven by the (frozen after tau) third
coordinate, integrated by RK4 (one copy of the stages, _cascade_rk4) from
the first step where f acts (_first_active_step); before it X4 and X5 keep
their start values. Every RK4 window runs on one clock X1 = x1 + t, so the
bump factors and the window's first step are functions of time alone.
solve_cascade_batch records every step from one start;
solve_cascade_observed serves the distance sweep: it stacks the starts that
share the paths and a clock into one RK4 up to the observation step and
returns that step alone. The Euler scheme (one loop, _em_steps) knows
nothing about the structure and serves as the independent cross-check.

Every solver is batched over paths (leading axis), and a caller that wants
one path passes a batch of one. Rows never depend on each other: a path
gets the same bits in any batch, and stacked (S, P, d) starts get those of
S separate solves. Non-finite states are left in place for the caller to
classify (_first_bad_steps).
"""

from __future__ import annotations

import numpy as np

from . import bumps, model as model_mod
from .model import AxisAlignedModel, GeneralModel
from .paths import TimeGrid


# steps per batched Jacobian evaluation in solve_variation_batch: about 1 MiB
# of grid Jacobians at 20 paths in R^5; performance knob only, results are
# block-size independent
_JAC_BLOCK = 256


class SolverExplosionError(RuntimeError):
    """A state became non-finite; carries the first offending step index."""

    def __init__(self, step_index: int):
        super().__init__(f"non-finite state first reached at step {step_index}")
        self.step_index = step_index


def _first_bad_steps(states: np.ndarray) -> np.ndarray:
    """Per path, index of the first non-finite step; -1 for clean paths."""
    bad = ~np.all(np.isfinite(states), axis=-1)  # (P, K+1)
    any_bad = bad.any(axis=-1)
    first = np.argmax(bad, axis=-1)
    return np.where(any_bad, first, -1)


def _expand_x0(x0, n_paths: int, dim: int, starts: bool = False) -> np.ndarray:
    """x0 as a (P, d) array; with starts, a (S, P, d) stack is kept as is."""
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim == 1:
        x0 = np.broadcast_to(x0, (n_paths, dim))
    lead = x0.shape[:1] if starts and x0.ndim == 3 else ()
    if x0.shape != lead + (n_paths, dim):
        raise ValueError(f"initial value shape {x0.shape}, expected ({n_paths},{dim})")
    return x0


def _x3_trapezoid(gp, x2, dt: float, x3_0, out: np.ndarray) -> None:
    """X3 = x3_0 + trapezoidal integral of g'(X1) X2 over time, into out.

    gp and x2 broadcast to out's shape, with the k+1 time steps on the last
    axis; out receives x3_0 (broadcast with a time axis of length 1) plus the
    running sum of the steps. montecarlo._x3_at_tau sums the same steps in
    the same order for the X3(tau) normality check, which must agree with
    the cascade solvers bit for bit.
    """
    integrand = gp * x2
    steps = 0.5 * dt * (integrand[..., :-1] + integrand[..., 1:])
    out[..., :1] = x3_0
    rest = out[..., 1:]
    np.cumsum(steps, axis=-1, out=rest)
    rest += x3_0


def _cascade_forcing(axis: AxisAlignedModel, grid: TimeGrid, w: np.ndarray, clock: float, x0):
    """X1, X2, X3 and the bump factors g'(X1), f(X1), f(X1 at mid-steps).

    Every start runs on the one clock X1 = clock + t, so X1 and the bump
    factors are evaluated on the time axis alone, shape (k+1,) (k at
    mid-steps). w holds the first k+1 grid values of the paths, shape
    (P, k+1); x0 has shape (..., 5), broadcasts against the path axis and
    gives X2 and X3 their starts (its first coordinate is not read). Time is
    the last axis of every result.
    """
    dt = grid.dt
    x1 = clock + grid.times[: w.shape[-1]]
    x2 = x0[..., 1, None] + w
    gp = bumps.eval(axis.g, x1, 1)
    fv = bumps.eval(axis.f, x1, 0)
    fm = bumps.eval(axis.f, x1[:-1] + 0.5 * dt, 0)
    x3 = np.empty(np.broadcast_shapes(x2.shape, x0.shape[:-1] + (1,)))
    _x3_trapezoid(gp, x2, dt, x0[..., 2, None], x3)
    return x1, x2, x3, fv, fm


def _first_active_step(fv, fm) -> int:
    """First step where f acts at either end or the middle; the last step if
    none. Before it RK4 adds only +-0, or NaN from 0 * inf."""
    active = (fv[:-1] != 0.0) | (fv[1:] != 0.0) | (fm != 0.0)
    return int(np.argmax(active)) if active.any() else len(active)


def _cascade_rk4(n: int, dt: float, fv, fm, x3, x4, x5, k0: int, k1: int, record=None):
    """Advance (X4, X5) from step k0 to step k1 by RK4 and return them.

    Integrates X4' = f X4 X5, X5' = f (X3^n - X4^2) with X3 interpolated
    linearly at mid-steps. fv, fm and x3 carry time on their last axis and
    broadcast against x4 and x5. If record is given, record[..., k, 0] and
    record[..., k, 1] receive X4 and X5 after each step k in (k0, k1].
    Non-finite values are left in place: every stage uses only +, - and *,
    so a non-finite state never becomes finite again.
    """
    x3w = x3[..., k0 : k1 + 1]
    x3n = x3w**n
    x3n_mid = (0.5 * (x3w[..., :-1] + x3w[..., 1:])) ** n
    half = 0.5 * dt
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(k0, k1):
            j = k - k0
            f0, f1, fmid = fv[..., k], fv[..., k + 1], fm[..., k]
            z0, z1, zmid = x3n[..., j], x3n[..., j + 1], x3n_mid[..., j]
            k1a = f0 * x4 * x5
            k1b = f0 * (z0 - x4 * x4)
            a4 = x4 + half * k1a
            a5 = x5 + half * k1b
            k2a = fmid * a4 * a5
            k2b = fmid * (zmid - a4 * a4)
            a4 = x4 + half * k2a
            a5 = x5 + half * k2b
            k3a = fmid * a4 * a5
            k3b = fmid * (zmid - a4 * a4)
            a4 = x4 + dt * k3a
            a5 = x5 + dt * k3b
            k4a = f1 * a4 * a5
            k4b = f1 * (z1 - a4 * a4)
            x4 = x4 + dt / 6.0 * (k1a + 2.0 * (k2a + k3a) + k4a)
            x5 = x5 + dt / 6.0 * (k1b + 2.0 * (k2b + k3b) + k4b)
            if record is not None:
                record[..., k + 1, 0] = x4
                record[..., k + 1, 1] = x5
    return x4, x5


def solve_cascade_batch(
    axis: AxisAlignedModel, grid: TimeGrid, w: np.ndarray, x0
) -> np.ndarray:
    """Cascade states for a batch of scalar Brownian paths from one start.

    w has shape (P, steps+1); x0 is one vector in R^5. Returns
    (P, steps+1, 5); non-finite values are left in place for the caller to
    classify (see _first_bad_steps).
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (5,):
        raise ValueError(f"initial value shape {x0.shape}, expected (5,)")
    P, K1 = w.shape
    out = np.empty((P, K1, 5))
    x1, x2, x3, fv, fm = _cascade_forcing(axis, grid, w, x0[0], x0)
    out[:, :, 0] = x1
    out[:, :, 1] = x2
    out[:, :, 2] = x3
    k_start = _first_active_step(fv, fm)
    out[:, : k_start + 1, 3:] = x0[3:]
    _cascade_rk4(axis.params.n, grid.dt, fv, fm, x3, x0[3], x0[4], k_start, K1 - 1, out[:, :, 3:])
    return out


def solve_cascade_observed(
    axis: AxisAlignedModel, grid: TimeGrid, w: np.ndarray, starts, k_obs: int
) -> np.ndarray:
    """Cascade states at step k_obs for S starts sharing the paths w.

    starts has shape (S, 5) and w shape (P, k+1) with k >= k_obs; returns
    (S, P, 5). One RK4 window runs per clock, that is per distinct x1: the
    starts that share x1 are stacked into it, with X2 and X3 computed once
    when they also share their second and third coordinates, else once per
    start. So start s gets the bits of
    solve_cascade_batch(..., starts[s])[:, k_obs], signed zeros and NaN
    included, whatever the other starts. Since no stage makes a non-finite
    state finite, a state is non-finite at k_obs exactly when it is
    non-finite at some step up to k_obs.
    """
    starts = np.asarray(starts, dtype=float)
    w = w[:, : k_obs + 1]
    out = None
    clocks, which = np.unique(starts[:, 0], return_inverse=True)
    for c, clock in enumerate(clocks):
        rows = which == c
        group = starts[rows]
        shared = np.all(group[:, 1:3] == group[0, 1:3])
        heads = (group[:1] if shared else group)[:, None, :]
        x1, x2, x3, fv, fm = _cascade_forcing(axis, grid, w, clock, heads)
        k_start = _first_active_step(fv, fm)
        shape = (len(group), w.shape[0])
        x4 = np.broadcast_to(group[:, 3, None], shape)
        x5 = np.broadcast_to(group[:, 4, None], shape)
        x4, x5 = _cascade_rk4(axis.params.n, grid.dt, fv, fm, x3, x4, x5, k_start, k_obs)
        if out is None:  # after the first RK4, whose temporaries set the peak
            out = np.empty((len(starts), w.shape[0], 5))
        for j, col in enumerate((x1[-1], x2[..., -1], x3[..., -1], x4, x5)):
            out[rows, :, j] = col
    return out


def solve_cascade_general(
    gm: GeneralModel, grid: TimeGrid, w: np.ndarray, y0
) -> np.ndarray:
    """Cascade states carried into R^d by the affine map x = B y + v.

    y0 is one start in cascade coordinates, of length d: the cascade runs
    from y0[:5] along the scalar paths w, shape (P, steps+1), and the
    coordinates beyond the fifth are constants of the motion. Returns
    (P, steps+1, d); non-finite values are left in place.
    """
    y0 = np.asarray(y0, dtype=float)
    y = np.empty(w.shape + (gm.params.d,))
    y[:] = y0
    y[:, :, :5] = solve_cascade_batch(gm.base, grid, w, y0[:5])
    return y @ gm.B.T + gm.params.v


def _em_steps(gm: GeneralModel, dt: float, w: np.ndarray, cur, taming: bool, record=None):
    """Advance the state cur, (P, d) or (S, P, d), along every column of w,
    shape (P, k+1, m), and return it; record[..., j, :], if given, receives
    the state after each step j in [1, k]. The tamed step scales the drift
    increment by 1/(1 + dt ||mu||) per path; with taming off this is the
    plain scheme. Neither makes a non-finite state finite again.

    A lone path runs as two equal rows and keeps the first: for one row the
    drift's matrix products would take numpy's matrix-vector route, which
    rounds differently from a batch."""
    keep = slice(None)
    if w.shape[0] == 1:
        keep = slice(None, 1)
        w = np.broadcast_to(w, (2,) + w.shape[1:])
        cur = np.broadcast_to(cur, cur.shape[:-2] + (2, cur.shape[-1]))
    sigmaT = gm.sigma.T  # (m, d)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(w.shape[1] - 1):
            mu = model_mod.eval_mu(gm, cur)
            if taming:
                denom = 1.0 + dt * np.linalg.norm(mu, axis=-1, keepdims=True)
                step = mu * (dt / denom)
            else:
                step = mu * dt
            cur = cur + step + (w[:, k + 1] - w[:, k]) @ sigmaT
            if record is not None:
                record[..., k + 1, :] = cur[..., keep, :]
    return cur[..., keep, :]


def solve_em_batch(
    gm: GeneralModel, grid: TimeGrid, w: np.ndarray, x0, taming: bool = True
) -> np.ndarray:
    """Euler(-tamed) states for a batch of m-dimensional Brownian paths.

    w has shape (P, steps+1, m); returns (P, steps+1, d). x0 may also stack
    S starts on each path, shape (S, P, d): then all S run in one loop on
    the shared w and the result has shape (S, P, steps+1, d), bit-identical
    to S separate solves (the drift's matrix products run per start).
    """
    x0 = _expand_x0(x0, w.shape[0], gm.params.d, starts=True)
    out = np.empty(x0.shape[:-1] + (w.shape[1], gm.params.d))
    out[..., 0, :] = x0
    _em_steps(gm, grid.dt, w, x0, taming, out)
    return out


def solve_variation_batch(
    gm: GeneralModel, grid: TimeGrid, states: np.ndarray, h
) -> np.ndarray:
    """First-variation J' = mu'(X(t)) J, J(0)=h, by RK4 along given states.

    states has shape (P, steps+1, d); h is one direction in R^d or (P, d).
    Returns J at the last step, shape (P, d). X is interpolated linearly for
    the midpoint stage. The Jacobians at the grid points and midpoints are
    evaluated _JAC_BLOCK steps at a time, time leading, so each step's
    (P, d, d) slice has the bits and layout of a per-step call.
    """
    P, K1, d = states.shape
    dt = grid.dt
    half = 0.5 * dt
    J = _expand_x0(h, P, d).copy()

    def apply(jac, vec):
        return np.einsum("pij,pj->pi", jac, vec)

    with np.errstate(over="ignore", invalid="ignore"):
        for k0 in range(0, K1 - 1, _JAC_BLOCK):
            x = np.ascontiguousarray(states[:, k0 : k0 + _JAC_BLOCK + 1].swapaxes(0, 1))
            jac = model_mod.eval_mu_jacobian(gm, x)
            jac_mid = model_mod.eval_mu_jacobian(gm, 0.5 * (x[:-1] + x[1:]))
            for j in range(len(x) - 1):
                k1 = apply(jac[j], J)
                k2 = apply(jac_mid[j], J + half * k1)
                k3 = apply(jac_mid[j], J + half * k2)
                k4 = apply(jac[j + 1], J + dt * k3)
                J = J + dt / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
    return J


def write_solution_csv(grid: TimeGrid, states: np.ndarray, fileobj) -> None:
    """Dump one path, states of shape (steps+1, d), as CSV with header t,x1,...,xd."""
    header = "t," + ",".join(f"x{j+1}" for j in range(states.shape[1]))
    data = np.column_stack([grid.times, states])
    np.savetxt(fileobj, data, fmt="%.17g", delimiter=",", header=header, comments="")
