"""Path solvers: structure-exploiting cascade and its affine transport into
R^d (solve_cascade_general), generic (tamed) Euler scheme, first-variation
integrator.

The cascade solver mirrors the triangular structure of the drift: the first
two coordinates are exact, the third is a quadrature of the second, and the
last two form a nonautonomous ODE driven by the (frozen after tau) third
coordinate, integrated by RK4 (one copy of the stages, _cascade_rk4).
solve_cascade_batch records every step; solve_cascade_observed serves the
distance sweep: it stacks all starts that share the paths into one RK4,
runs it only over the steps where f acts up to the observation step, and
returns that step alone. The Euler scheme knows nothing about the structure
and serves as the independent cross-check.

Every solver is batched over paths (leading axis), and a caller that wants
one path passes a batch of one: rows never depend on each other, so a path
gets the same bits in any batch. Non-finite states are left in place for
the caller to classify (_first_bad_steps).
"""

from __future__ import annotations

import numpy as np

from . import bumps, model as model_mod
from .model import AxisAlignedModel, GeneralModel
from .paths import TimeGrid


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


def _expand_x0(x0, n_paths: int, dim: int) -> np.ndarray:
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim == 1:
        x0 = np.broadcast_to(x0, (n_paths, dim))
    if x0.shape != (n_paths, dim):
        raise ValueError(f"initial value shape {x0.shape}, expected ({n_paths},{dim})")
    return x0


def _x3_trapezoid(gp, x2, dt: float, x3_0, out: np.ndarray) -> None:
    """X3 = x3_0 + trapezoidal cumulative integral of g'(X1) X2, into out.

    Time is the last axis: gp and x2 broadcast to out's shape (..., k+1),
    and x3_0 to (..., 1). Shared by the cascade solvers and the X3(tau)
    normality check, which must agree bit for bit.
    """
    integrand = gp * x2
    out[..., :1] = x3_0
    np.cumsum(
        0.5 * dt * (integrand[..., :-1] + integrand[..., 1:]), axis=-1, out=out[..., 1:]
    )
    out[..., 1:] += x3_0


def _cascade_forcing(axis: AxisAlignedModel, grid: TimeGrid, w: np.ndarray, x0):
    """X1, X2, X3 and the bump factors g'(X1), f(X1), f(X1 at mid-steps).

    w holds the first k+1 grid values of the paths, shape (P, k+1); x0 has
    shape (..., 5) and broadcasts against the path axis. Time is the last
    axis of every result. The bump factors depend on x0_1 only, so when all
    starts share it they are evaluated once, on the time axis alone.
    """
    dt = grid.dt
    times = grid.times[: w.shape[-1]]
    x1 = x0[..., 0, None] + times
    x2 = x0[..., 1, None] + w
    first = x0[..., 0].ravel()
    s = first[0] + times if np.all(first == first[0]) else x1
    gp = bumps.eval(axis.g, s, 1)
    fv = bumps.eval(axis.f, s, 0)
    fm = bumps.eval(axis.f, s[..., :-1] + 0.5 * dt, 0)
    x3 = np.empty(np.broadcast_shapes(gp.shape, x2.shape, x0.shape[:-1] + (1,)))
    _x3_trapezoid(gp, x2, dt, x0[..., 2, None], x3)
    return x1, x2, x3, fv, fm


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
    """Cascade states for a batch of scalar Brownian paths.

    w has shape (P, steps+1); x0 is one vector in R^5 or a (P, 5) array.
    Returns (P, steps+1, 5); non-finite values are left in place for the
    caller to classify (see _first_bad_steps).
    """
    P, K1 = w.shape
    x0 = _expand_x0(x0, P, 5)
    out = np.empty((P, K1, 5))
    x1, x2, x3, fv, fm = _cascade_forcing(axis, grid, w, x0)
    out[:, :, 0] = x1
    out[:, :, 1] = x2
    out[:, :, 2] = x3
    out[:, 0, 3:] = x0[:, 3:]
    _cascade_rk4(
        axis.params.n, grid.dt, fv, fm, x3, x0[:, 3], x0[:, 4], 0, K1 - 1, out[:, :, 3:]
    )
    return out


def solve_cascade_observed(
    axis: AxisAlignedModel, grid: TimeGrid, w: np.ndarray, starts, k_obs: int
) -> np.ndarray:
    """Cascade states at step k_obs for S starts sharing the paths w.

    starts has shape (S, 5) and w shape (P, k+1) with k >= k_obs; returns
    (S, P, 5), bit-identical to solve_cascade_batch(...)[:, k_obs] per start
    up to the sign of a zero. X1..X3 are computed once when all starts share
    their first three coordinates, else once per start. One RK4 runs over
    the stacked (S, P) starts, and only from the first step where f acts:
    on steps where f is exactly 0 (before tau, and where it underflows after
    it) RK4 leaves X4 and X5 unchanged. Since no stage makes a non-finite
    state finite, a state is non-finite at k_obs exactly when it is
    non-finite at some step up to k_obs.
    """
    starts = np.asarray(starts, dtype=float)
    w = w[:, : k_obs + 1]
    shared = np.all(starts[:, :3] == starts[0, :3])
    heads = (starts[:1] if shared else starts)[:, None, :]
    x1, x2, x3, fv, fm = _cascade_forcing(axis, grid, w, heads)
    active = (fv[..., :-1] != 0.0) | (fv[..., 1:] != 0.0) | (fm != 0.0)
    active = np.any(active, axis=tuple(range(active.ndim - 1)))
    k_start = int(np.argmax(active)) if active.any() else k_obs
    shape = (len(starts), w.shape[0])
    x4 = np.broadcast_to(starts[:, 3, None], shape)
    x5 = np.broadcast_to(starts[:, 4, None], shape)
    x4, x5 = _cascade_rk4(axis.params.n, grid.dt, fv, fm, x3, x4, x5, k_start, k_obs)
    cols = np.broadcast_arrays(x1[..., -1], x2[..., -1], x3[..., -1], x4, x5)
    return np.stack(cols, axis=-1)


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


def solve_em_batch(
    gm: GeneralModel, grid: TimeGrid, w: np.ndarray, x0, taming: bool = True
) -> np.ndarray:
    """Euler(-tamed) states for a batch of m-dimensional Brownian paths.

    w has shape (P, steps+1, m). The tamed step scales the drift increment by
    1/(1 + dt ||mu||) per path; with taming off this is the plain scheme.
    """
    P, K1, m = w.shape
    K = K1 - 1
    dt = grid.dt
    d = gm.params.d
    x0 = _expand_x0(x0, P, d)
    sigmaT = gm.sigma.T  # (m, d)

    out = np.empty((P, K1, d))
    cur = x0.copy()
    out[:, 0] = cur
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(K):
            mu = model_mod.eval_mu(gm, cur)
            if taming:
                denom = 1.0 + dt * np.linalg.norm(mu, axis=-1, keepdims=True)
                step = mu * (dt / denom)
            else:
                step = mu * dt
            cur = cur + step + (w[:, k + 1] - w[:, k]) @ sigmaT
            out[:, k + 1] = cur
    return out


def solve_variation_batch(
    gm: GeneralModel, grid: TimeGrid, states: np.ndarray, h
) -> np.ndarray:
    """First-variation J' = mu'(X(t)) J, J(0)=h, by RK4 along given states.

    states has shape (P, steps+1, d); h is one direction in R^d or (P, d).
    X is interpolated linearly for the midpoint stage.
    """
    P, K1, d = states.shape
    K = K1 - 1
    dt = grid.dt
    half = 0.5 * dt
    J = _expand_x0(h, P, d).copy()
    out = np.empty((P, K1, d))
    out[:, 0] = J

    def apply(jac, vec):
        return np.einsum("pij,pj->pi", jac, vec)

    jac_next = model_mod.eval_mu_jacobian(gm, states[:, 0])
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(K):
            jac0 = jac_next
            jac_mid = model_mod.eval_mu_jacobian(
                gm, 0.5 * (states[:, k] + states[:, k + 1])
            )
            jac_next = model_mod.eval_mu_jacobian(gm, states[:, k + 1])
            k1 = apply(jac0, J)
            k2 = apply(jac_mid, J + half * k1)
            k3 = apply(jac_mid, J + half * k2)
            k4 = apply(jac_next, J + dt * k3)
            J = J + dt / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
            out[:, k + 1] = J
    return out


def write_solution_csv(grid: TimeGrid, states: np.ndarray, fileobj) -> None:
    """Dump one path, states of shape (steps+1, d), as CSV with header t,x1,...,xd."""
    header = "t," + ",".join(f"x{j+1}" for j in range(states.shape[1]))
    data = np.column_stack([grid.times, states])
    np.savetxt(fileobj, data, fmt="%.17g", delimiter=",", header=header, comments="")
