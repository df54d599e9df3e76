"""Monte Carlo estimation of flow distances under synchronous coupling.

Every start rides the same Brownian path, drawn once per chunk of paths for
the reference start and all perturbed ones (every epsilon of a sweep), so
each sample distance is exactly the coupled difference the theory speaks
about and the common noise cancels out of the variance. On the cascade
route one solver call per chunk computes X1..X3 once and runs one RK4 over
the stacked starts, from the first step where f acts to the observation
step t, keeping only the state at t. A path aborts for two causes: its
state at t is non-finite (no solver stage undoes that, so this is the same
as a non-finite state at some step up to t; what happens after t does not
count), or its states are finite but their distance overflows to inf.
Determinism contract: results are a pure function of (model, inputs,
master_seed); thread count and chunking cannot change a single bit because
every path's randomness is derived from its global index alone and the
mean/stderr reduction happens once, in index order, over a preallocated
array.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy import stats as scipy_stats

from . import bounds as bounds_mod, bumps
from .model import AxisAlignedModel, GeneralModel
from .paths import TimeGrid, brownian_values_batch
from .reports import CheckReport
from .solvers import _x3_trapezoid, solve_cascade_observed, solve_em_batch

_CHUNK = 1024  # performance knob only; results are chunk-size independent


class EstimationFailedError(RuntimeError):
    """Every sampled path aborted; no estimate exists."""


class FitError(ValueError):
    """Exponent fit impossible (degenerate window or nonpositive means)."""


@dataclass(frozen=True, eq=False)
class DistanceEstimate:
    """Sample mean of ||X^x(t) - X^y(t)|| under synchronous coupling.

    t is the realized grid time (the requested time snapped to the grid);
    distances keeps the per-path samples so that paired statistics across
    estimates sharing a seed remain possible. aborted counts the samples that
    are not finite: nan where a state is non-finite at t, inf where finite
    states are so far apart that the distance overflows.
    """

    x: np.ndarray = field(repr=False)
    y: np.ndarray = field(repr=False)
    t: float
    n_paths: int
    mean: float
    std_error: float
    aborted: int
    distances: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        if self.mean < 0.0 or self.std_error < 0.0 or self.aborted > self.n_paths:
            raise ValueError("inconsistent distance estimate")


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Distance estimates along a strictly decreasing epsilon grid.

    local_slopes[i] = (ln mean_{i+1} - ln mean_i) / (ln eps_{i+1} - ln eps_i);
    lower_bound_curve is exp(-c |ln eps|^(2/n)) with c the closed-form
    constant at kappa_t; upper_bound_curve is |ln eps|^(-q). constants also
    records the prefactor K = ||delta|| used by domination checks.
    """

    eps_grid: np.ndarray
    estimates: list
    local_slopes: np.ndarray
    lower_bound_curve: np.ndarray
    upper_bound_curve: np.ndarray
    constants: dict
    regime: str
    master_seed: int


def _default_steps(T: float) -> int:
    return max(1, round(T * 2048))


def _distance_chunk(gm, grid, k_obs, seed, lo, hi, solver, taming, ref, others, out):
    # full-horizon draw: each Box-Muller normal pairs counter j with npairs + j,
    # so a shorter draw would change the bits of the columns read here
    w = brownian_values_batch(grid, gm.params.m, seed, lo, hi - lo)[:, : k_obs + 1]
    if solver == "cascade":
        starts = np.array([ref, *others])[:, :5]
        obs = solve_cascade_observed(gm.base, grid, w[:, :, 0], starts, k_obs)
    else:
        obs = [solve_em_batch(gm, grid, w, s, taming=taming)[:, -1] for s in [ref, *others]]
    # a path aborts when its state is non-finite at t; no solver stage makes a
    # non-finite state finite again, so this is "non-finite at some step <= t"
    bad = [~np.all(np.isfinite(o), axis=-1) for o in obs]
    dnorm = float(np.linalg.norm(gm.params.delta))
    for row, start in enumerate(others):
        with np.errstate(over="ignore", invalid="ignore"):  # aborted or huge: not finite
            diff = obs[0] - obs[row + 1]
            if solver == "cascade":
                tail_sq = float(np.sum((ref[5:] - start[5:]) ** 2))  # untouched coordinates
                dist = dnorm * np.sqrt(np.sum(diff**2, axis=1) + tail_sq)
            else:
                dist = np.linalg.norm(diff, axis=1)
        out[row, lo:hi] = np.where(bad[0] | bad[row + 1], np.nan, dist)


def _estimates(model, x, ys, t, n_paths, seed, steps, solver, taming, n_threads):
    """One DistanceEstimate of E||X^x(t) - X^y(t)|| per y in ys, on shared paths."""
    params = model.params
    if not 0.0 < t <= params.T:
        raise ValueError(f"need t in (0, T], got {t}")
    if n_paths < 2:
        raise ValueError(f"need at least 2 paths, got {n_paths}")
    if solver not in ("cascade", "em"):
        raise ValueError(f"unknown solver {solver!r}")
    x = np.asarray(x, dtype=float)
    ys = [np.asarray(y, dtype=float) for y in ys]
    grid = TimeGrid(T=params.T, steps=_default_steps(params.T) if steps is None else steps)
    k_obs = grid.nearest_index(t)
    if solver == "cascade":
        ref = model.Binv @ (x - params.v)
        others = [model.Binv @ (y - params.v) for y in ys]
    else:
        ref, others = x, ys

    dist = np.full((len(ys), n_paths), np.nan)
    chunks = [(lo, min(lo + _CHUNK, n_paths)) for lo in range(0, n_paths, _CHUNK)]
    task = lambda c: _distance_chunk(
        model, grid, k_obs, seed, c[0], c[1], solver, taming, ref, others, dist
    )
    if n_threads > 1:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            list(pool.map(task, chunks))
    else:
        for c in chunks:
            task(c)

    def summarize(y, row):
        clean = np.isfinite(row)
        n_clean = int(np.count_nonzero(clean))
        if n_clean == 0:
            raise EstimationFailedError(f"all {n_paths} paths aborted")
        sample = row[clean]
        mean = float(np.mean(sample))
        std_error = float(np.std(sample, ddof=1) / math.sqrt(n_clean)) if n_clean > 1 else 0.0
        return DistanceEstimate(
            x=x,
            y=y,
            t=float(grid.times[k_obs]),
            n_paths=n_paths,
            mean=mean,
            std_error=std_error,
            aborted=n_paths - n_clean,
            distances=row,
        )

    return [summarize(y, row) for y, row in zip(ys, dist)]


def estimate_distance(
    model: GeneralModel,
    x,
    y,
    t: float,
    n_paths: int,
    master_seed: int,
    *,
    steps: int | None = None,
    solver: str = "cascade",
    taming: bool = True,
    n_threads: int = 1,
) -> DistanceEstimate:
    """Estimate E||X^x(t) - X^y(t)|| with one shared Brownian path per index.

    solver="cascade" transports the exact affine conjugation and solves the
    5-d cascade in transformed coordinates (the remaining coordinates are
    constants of the motion); solver="em" runs the generic Euler scheme on
    both starting points. Deterministic given master_seed regardless of
    n_threads.
    """
    return _estimates(
        model, x, [y], t, n_paths, master_seed, steps, solver, taming, n_threads
    )[0]


def sweep_epsilon(
    model: GeneralModel,
    t: float,
    eps_grid,
    n_paths: int,
    master_seed: int,
    *,
    q: float | None = None,
    steps: int | None = None,
    solver: str = "cascade",
    taming: bool = True,
    n_threads: int = 1,
) -> SweepResult:
    """Distance sweep along w = v + eps delta for a decreasing epsilon grid.

    Each chunk of paths is drawn once for every epsilon, and on the cascade
    route the reference start v and all v + eps delta go through one
    stacked RK4 that runs only where f acts, up to t. So all epsilons share
    the same paths (same master_seed), adjacent estimates are positively
    correlated, and slope estimates benefit from the common-noise
    cancellation. A path aborts for an epsilon when its reference or
    perturbed state is non-finite at t (blow-ups after t do not count) or
    when the distance between the two finite states overflows.
    """
    params = model.params
    eps = np.asarray(eps_grid, dtype=float)
    if eps.ndim != 1 or len(eps) < 2:
        raise ValueError("need at least two epsilons")
    if np.any(eps <= 0.0) or np.any(eps > 1.0 / math.e + 1e-15):
        raise ValueError("epsilon grid must lie in (0, 1/e]")
    if np.any(np.diff(eps) >= 0.0):
        raise ValueError("epsilon grid must be strictly decreasing")
    if not params.tau < t < params.T:
        raise ValueError(f"need t in (tau, T), got {t}")

    ys = [params.v + e * params.delta for e in eps]
    estimates = _estimates(
        model, params.v, ys, t, n_paths, master_seed, steps, solver, taming, n_threads
    )
    means = np.array([est.mean for est in estimates])
    with np.errstate(divide="ignore"):
        log_means = np.log(means)
    log_eps = np.log(eps)
    local_slopes = np.diff(log_means) / np.diff(log_eps)

    t_grid = estimates[0].t
    kap_t = bounds_mod.kappa_t(model.base.f, params.tau, t_grid)
    c = bounds_mod.lemma21_c(
        bounds_mod.Lemma21Params(p=float(params.n), kappa=kap_t, eps=eps[0])
    )
    lower = np.exp(-c * np.abs(log_eps) ** (2.0 / params.n))
    q_used = float(params.q if q is None else q)
    upper = np.abs(log_eps) ** (-q_used)

    constants = {
        "C": model.base.C,
        "varkappa": model.base.varkappa,
        "kappa_general_log": model.log_kappa,
        "kappa_t": kap_t,
        "c": c,
        "K": float(np.linalg.norm(params.delta)),
        "q": q_used,
        "t_grid": t_grid,
    }
    regime = "non-hoelder" if params.n >= 3 else "hoelder-consistent"
    return SweepResult(
        eps_grid=eps,
        estimates=estimates,
        local_slopes=local_slopes,
        lower_bound_curve=lower,
        upper_bound_curve=upper,
        constants=constants,
        regime=regime,
        master_seed=master_seed,
    )


def fit_exponent(result: SweepResult, window: int = 2) -> np.ndarray:
    """Least-squares slope of ln mean against ln eps per sliding window.

    window=2 reduces to the pairwise local slopes. Raises FitError when the
    window does not fit or some mean is nonpositive.
    """
    if window < 2:
        raise FitError(f"window must be >= 2, got {window}")
    means = np.array([est.mean for est in result.estimates])
    if np.any(means <= 0.0):
        raise FitError("nonpositive mean in sweep; exponent undefined")
    lx = np.log(result.eps_grid)
    ly = np.log(means)
    n = len(lx)
    if window > n:
        raise FitError(f"window {window} exceeds grid size {n}")
    slopes = np.empty(n - window + 1)
    for i in range(len(slopes)):
        xs = lx[i : i + window]
        ys = ly[i : i + window]
        xc = xs - xs.mean()
        slopes[i] = float(np.dot(xc, ys - ys.mean()) / np.dot(xc, xc))
    return slopes


def _x3_at_tau_chunk(grid, gp, k_tau, seed, lo, hi, out):
    # trapezoidal X3(tau) = int_0^tau g'(s) W(s) ds from the origin; the
    # cascade solver's own quadrature, so it matches the solver bit for bit
    w = brownian_values_batch(grid, 1, seed, lo, hi - lo)[:, : k_tau + 1, 0]
    x3 = np.empty_like(w)
    _x3_trapezoid(gp[: k_tau + 1], w, grid.dt, 0.0, x3)
    out[lo:hi] = x3[:, -1]


def stdnormality_test(
    model: AxisAlignedModel, n_paths: int, master_seed: int, *, steps: int | None = None
) -> CheckReport:
    """Check that the frozen third coordinate at tau is standard normal.

    Simulates X3(tau) from the origin (a trapezoidal functional of W), then
    tests mean within 4/sqrt(N), variance within 1 +- 8/sqrt(N), and the
    Kolmogorov-Smirnov statistic below the 1% critical value 1.63/sqrt(N).
    """
    params = model.params
    grid = TimeGrid(T=params.T, steps=_default_steps(params.T) if steps is None else steps)
    k_tau = grid.nearest_index(params.tau)
    gp = bumps.eval(model.g, grid.times, 1)
    samples = np.empty(n_paths)
    for lo in range(0, n_paths, _CHUNK):
        hi = min(lo + _CHUNK, n_paths)
        _x3_at_tau_chunk(grid, gp, k_tau, master_seed, lo, hi, samples)
    mean = float(np.mean(samples))
    var = float(np.var(samples, ddof=1))
    ks = float(scipy_stats.kstest(samples, "norm").statistic)
    rn = math.sqrt(n_paths)
    mean_tol = 4.0 / rn
    var_tol = 8.0 / rn
    ks_crit = 1.63 / rn
    excess = max(
        abs(mean) - mean_tol,
        abs(var - 1.0) - var_tol,
        ks - ks_crit,
    )
    return CheckReport(
        check="stdnormality",
        params={
            "n_paths": n_paths,
            "mean": mean,
            "var": var,
            "ks": ks,
            "mean_tol": mean_tol,
            "var_tol": var_tol,
            "ks_critical_1pct": ks_crit,
            "violation_scale": "absolute_excess",
        },
        max_violation=float(excess),
        grid_size=n_paths,
        passed=excess <= 0.0,
    )


def sweep_to_csv(result: SweepResult, fileobj) -> None:
    """CSV rows eps,mean,stderr,aborted,lower_bound,upper_bound,local_slope.

    The slope on row i belongs to the pair (eps_i, eps_{i+1}); the final row
    carries nan.
    """
    fileobj.write("eps,mean,stderr,aborted,lower_bound,upper_bound,local_slope\n")
    slopes = np.append(result.local_slopes, np.nan)
    for i, est in enumerate(result.estimates):
        fileobj.write(
            f"{result.eps_grid[i]:.17g},{est.mean:.17g},{est.std_error:.17g},"
            f"{est.aborted},{result.lower_bound_curve[i]:.17g},"
            f"{result.upper_bound_curve[i]:.17g},{slopes[i]:.17g}\n"
        )


def sweep_summary(result: SweepResult) -> dict:
    """JSON-ready summary with the constants and per-epsilon statistics."""
    return {
        "regime": result.regime,
        "master_seed": result.master_seed,
        "constants": result.constants,
        "eps": result.eps_grid.tolist(),
        "mean": [est.mean for est in result.estimates],
        "std_error": [est.std_error for est in result.estimates],
        "aborted": [est.aborted for est in result.estimates],
        "n_paths": result.estimates[0].n_paths,
        "local_slopes": result.local_slopes.tolist(),
        "lower_bound": result.lower_bound_curve.tolist(),
        "upper_bound": result.upper_bound_curve.tolist(),
    }
