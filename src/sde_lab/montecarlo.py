"""Monte Carlo estimation of flow distances under synchronous coupling.

Every start rides the same Brownian path, drawn once per chunk of paths for
the reference start and all perturbed ones (every epsilon of a sweep), so
each sample distance is exactly the coupled difference the theory speaks
about and the common noise cancels out of the variance. One solver call
per chunk advances all stacked starts to the observation step t and keeps
only their states at t: the cascade route computes X1..X3 once and runs
RK4 from the first step where f acts, the Euler route runs one Euler loop.
A path aborts for two causes: its state at t is non-finite (no solver
stage undoes that, so this is the same as a non-finite state at some step
up to t; what happens after t does not count), or its states are finite
but their distance overflows to inf.
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

from . import bounds as bounds_mod, bumps
from .model import AxisAlignedModel, GeneralModel, _blocks
from .paths import TimeGrid, _box_muller, _counter_table, brownian_values_batch, path_seed
from .reports import CheckReport
from .solvers import _em_steps, solve_cascade_observed

_CHUNK = 1024  # performance knob only; results are chunk-size independent
# stdnorm-check streams its paths in blocks of this many paths through time
# slabs of this many steps, performance knobs only. The buffers, about 2 MiB,
# are allocated once per call and stay in L2, and numpy's per-call cost
# spreads over thousands of paths. On a 2-core Xeon (2 MiB L2 a core), a
# direct stdnormality_test at 10^5 paths took 3.8-3.9 s, against 5.7-6.2 s
# with 32-path blocks of whole prefixes; blocks of 2048 or 8192 paths and
# slabs of 4 or 16 steps were within 6 % (pinned runs)
_STDNORM_BLOCK_PATHS = 4096
_STDNORM_SLAB_STEPS = 8


class EstimationFailedError(RuntimeError):
    """Every sampled path aborted; no estimate exists."""


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


def _distance_chunk(gm, grid, k_obs, seed, lo, hi, solver, taming, starts, out):
    # full-horizon draw; keep=k_obs would give these columns' bits with less
    # work, left for a change that measures the sweep on its own
    w = brownian_values_batch(grid, gm.params.m, seed, lo, hi - lo)[:, : k_obs + 1]
    if solver == "cascade":
        obs = solve_cascade_observed(gm.base, grid, w[:, :, 0], starts[:, :5], k_obs)
    else:
        obs = _em_steps(gm, grid.dt, w, np.repeat(starts[:, None], hi - lo, axis=1), taming)
    # a path aborts when its state is non-finite at t; no solver stage makes a
    # non-finite state finite again, so this is "non-finite at some step <= t"
    bad = ~np.all(np.isfinite(obs), axis=-1)
    with np.errstate(over="ignore", invalid="ignore"):  # aborted or huge: not finite
        diff = obs[:1] - obs[1:]
        if solver == "cascade":
            tail_sq = np.sum((starts[:1, 5:] - starts[1:, 5:]) ** 2, axis=-1)  # constant coords
            dnorm = np.linalg.norm(gm.params.delta)
            dist = dnorm * np.sqrt(np.sum(diff**2, axis=-1) + tail_sq[:, None])
        else:
            dist = np.linalg.norm(diff, axis=-1)
    out[:, lo:hi] = np.where(bad[:1] | bad[1:], np.nan, dist)


def _observation(params, t: float, steps: int | None):
    """The sweep's time grid and the index of the grid time nearest t."""
    grid = TimeGrid(T=params.T, steps=_default_steps(params.T) if steps is None else steps)
    return grid, grid.nearest_index(t)


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
    grid, k_obs = _observation(params, t, steps)
    if solver == "cascade":
        starts = np.array([model.Binv @ (s - params.v) for s in [x, *ys]])
    else:
        starts = np.array([x, *ys])

    dist = np.full((len(ys), n_paths), np.nan)
    chunks = [(lo, min(lo + _CHUNK, n_paths)) for lo in range(0, n_paths, _CHUNK)]
    task = lambda c: _distance_chunk(
        model, grid, k_obs, seed, c[0], c[1], solver, taming, starts, dist
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
    # the bounds read kappa at the grid time t snaps to: check it before any draw
    grid, k_obs = _observation(params, t, steps)
    t_grid = float(grid.times[k_obs])
    kap_t = bounds_mod.kappa_t(model.base.f, params.tau, t_grid) if t_grid > params.tau else 0.0
    if not kap_t > 0.0:
        raise ValueError(
            f"t={t} snaps to grid time {t_grid}, where kappa_t = {kap_t}: "
            f"need a grid time past tau={params.tau} where f has acted"
        )

    ys = [params.v + e * params.delta for e in eps]
    estimates = _estimates(
        model, params.v, ys, t, n_paths, master_seed, steps, solver, taming, n_threads
    )
    means = np.array([est.mean for est in estimates])
    with np.errstate(divide="ignore"):
        log_means = np.log(means)
    log_eps = np.log(eps)
    local_slopes = np.diff(log_means) / np.diff(log_eps)

    c = bounds_mod.lemma21_c(
        bounds_mod.Lemma21Params(p=float(params.n), kappa=kap_t, eps=eps[0])
    )
    lower = np.exp(-c * np.abs(log_eps) ** (2.0 / params.n))
    upper = np.abs(log_eps) ** (-params.q)

    constants = {
        "C": model.base.C,
        "varkappa": model.base.varkappa,
        "kappa_general_log": model.log_kappa,
        "kappa_t": kap_t,
        "c": c,
        "K": float(np.linalg.norm(params.delta)),
        "q": params.q,
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


def _x3_at_tau(grid: TimeGrid, gp: np.ndarray, k_tau: int, seed: int, lo: int, hi: int):
    """X3(tau) = int_0^tau g'(s) W(s) ds from the origin for paths lo..hi-1.

    The cascade solver's own trapezoid with the bits of its running sum, and
    W with the bits of brownian_values_batch's cumsum over the full path's
    first k_tau normals. Each block of paths is streamed through time slabs:
    a slab's normals are drawn time-major, W advances by one vector add per
    step across the block, and the trapezoid's row-by-row sum carries its
    partial sum into the next slab. Both sums start from an exact zero where
    the solver's start with their first addend, which can differ only in the
    sign of a zero; the solver's final + X3(0) clears that sign as this start
    does. Steps at or past npairs read the sines of pairs already drawn;
    those pairs are drawn again, with the same bits, as the draw is
    elementwise.
    """
    samples = np.zeros(hi - lo)
    npairs = (grid.steps + 1) // 2
    table = _counter_table(npairs, min(k_tau, npairs))[:, 0, :, None]  # (2, pairs, 1)
    sqrt_dt, half_dt = np.sqrt(grid.dt), 0.5 * grid.dt
    blocks = list(_blocks(hi - lo, _STDNORM_BLOCK_PATHS))
    width = max((b.stop - b.start for b in blocks), default=0)
    slab = _STDNORM_SLAB_STEPS
    bits = np.empty((2, slab, width), dtype=np.uint64)
    scratch = np.empty_like(bits)
    w = np.empty((slab + 1, width))  # W at the slab's first step, then its steps
    integrand = np.empty((slab + 1, width))
    steps = np.empty((slab, width))
    for rows in blocks:
        n = rows.stop - rows.start
        seeds = path_seed(seed, range(lo + rows.start, lo + rows.stop))
        acc = samples[rows]
        w[0, :n] = 0.0
        k0 = 0
        while k0 < k_tau:
            # a slab ends at npairs, where the cosines give way to the sines
            k1 = min(k0 + slab, k_tau, npairs if k0 < npairs else k_tau)
            s = k1 - k0
            inc, b, sc = w[1 : s + 1, :n], bits[:, :s, :n], scratch[:, :s, :n]
            if k0 < npairs:
                _box_muller(seeds, table[:, k0:k1], b, sc, cosines=inc)
            else:
                _box_muller(seeds, table[:, k0 - npairs : k1 - npairs], b, sc, sines=inc)
            inc *= sqrt_dt
            for i in range(1, s + 1):
                w[i, :n] += w[i - 1, :n]
            np.multiply(gp[k0 : k1 + 1, None], w[: s + 1, :n], out=integrand[: s + 1, :n])
            part = steps[:s, :n]
            np.add(integrand[:s, :n], integrand[1 : s + 1, :n], out=part)
            part *= half_dt
            for row in part:
                acc += row
            w[0, :n] = w[s, :n]
            k0 = k1
    return samples


def _ks_statistic(x: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance of the sample x from the standard normal.

    Computed as scipy.stats.kstest(x, "norm").statistic is, to the bit, from
    the sorted sample and scipy.special.ndtr, without loading scipy.stats. A
    NaN in x gives NaN.
    """
    from scipy.special import ndtr  # imported here: no other command needs it

    n = len(x)
    cdf = ndtr(np.sort(x))
    d_plus = np.max(np.arange(1.0, n + 1) / n - cdf)
    d_minus = np.max(cdf - np.arange(0.0, n) / n)
    return float(d_plus if d_plus > d_minus else d_minus)


def stdnormality_test(
    model: AxisAlignedModel, n_paths: int, master_seed: int, *, steps: int | None = None
) -> CheckReport:
    """Check that the frozen third coordinate at tau is standard normal.

    Simulates X3(tau) from the origin (a trapezoidal functional of W), then
    tests mean within 4/sqrt(N), variance within 1 +- 8/sqrt(N), and the
    Kolmogorov-Smirnov statistic below the 1% critical value 1.63/sqrt(N).
    Needs N >= 2 paths; a NaN statistic fails the check.
    """
    if n_paths < 2:
        raise ValueError(f"need at least 2 paths, got {n_paths}")
    params = model.params
    grid = TimeGrid(T=params.T, steps=_default_steps(params.T) if steps is None else steps)
    k_tau = grid.nearest_index(params.tau)
    gp = bumps.eval(model.g, grid.times, 1)
    samples = _x3_at_tau(grid, gp, k_tau, master_seed, 0, n_paths)
    mean = float(np.mean(samples))
    var = float(np.var(samples, ddof=1))
    ks = _ks_statistic(samples)
    rn = math.sqrt(n_paths)
    mean_tol = 4.0 / rn
    var_tol = 8.0 / rn
    ks_crit = 1.63 / rn
    # np.max propagates a NaN, where Python's max drops one not in first place
    excess = float(np.max([abs(mean) - mean_tol, abs(var - 1.0) - var_tol, ks - ks_crit]))
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
        max_violation=excess,
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
