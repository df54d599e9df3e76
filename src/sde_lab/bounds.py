"""Deterministic bound computations and their verification reports.

Covers the kappa time-change schedule, the normal-expectation lower-bound
functional and its closed-form minorant, the variance identity for the
frozen third coordinate, the pathwise exponential sandwich for the fourth
coordinate, and the comparison constants turning log-bounds into
power-bounds on a finite range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bumps
from .bumps import BumpFunction
from .model import AxisAlignedModel
from .paths import TimeGrid
from .quadrature import QuadratureToleranceError, adaptive_simpson, gauss_legendre_cells
from .reports import CheckReport

_SQRT2PI = math.sqrt(2.0 * math.pi)
_TINY_LOG = math.log(5e-324)  # smallest subnormal; floor for log of solver output
_VARIANCE_NODES = 400  # per direction in stdnorm_variance's coarser pass
_VARIANCE_ROWS = 64  # outer nodes per block of stdnorm_variance's tensor grid


class DomainError(ValueError):
    """Argument outside the mathematical domain of the quantity."""


@dataclass(frozen=True)
class Lemma21Params:
    """Parameters of the normal-expectation lower bound functional."""

    p: float
    kappa: float
    eps: float

    def __post_init__(self):
        if self.p < 1.0:
            raise DomainError(f"need p >= 1, got {self.p}")
        if not self.kappa > 0.0:
            raise DomainError(f"need kappa > 0, got {self.kappa}")
        if not 0.0 < self.eps <= 1.0 / math.e:
            raise DomainError(f"need eps in (0, 1/e], got {self.eps}")


@dataclass(frozen=True)
class HoelderCompParams:
    """Constants comparing exp(-c|ln r|^beta) against K r^alpha on (0, R]."""

    c: float
    R: float
    alpha: float
    beta: float
    K: float

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise DomainError(f"need beta in (0,1), got {self.beta}")
        if not (self.c > 0.0 and self.R > 0.0 and self.alpha > 0.0):
            raise DomainError("need c, R, alpha > 0")
        if not 0.0 < self.K <= 1.0:
            raise DomainError(f"need K in (0,1], got {self.K}")


def kappa_t(f: BumpFunction, tau: float, t: float) -> float:
    """Time-change constant (1/2)(int_tau^t f(u) du)^2.

    The nested double integral of f(u)f(s) over the triangle collapses to
    this square analytically, so one adaptive quadrature suffices.
    """
    if t < tau:
        raise DomainError(f"need t >= tau, got t={t} < tau={tau}")
    lo = max(tau, f.a)
    hi = min(t, f.b)
    if hi <= lo:
        return 0.0
    total = adaptive_simpson(
        lambda s: bumps.eval(f, s, 0), lo, hi, abs_tol=1e-12, rel_tol=1e-12
    )
    return 0.5 * total * total


def build_kappa_schedule(f: BumpFunction, tau: float, times) -> np.ndarray:
    """kappa_t on the given times by cumulative per-cell quadrature (0 up to
    tau, nondecreasing after it)."""
    times = np.asarray(times, dtype=float)
    cells = gauss_legendre_cells(lambda s: bumps.eval(f, s, 0), times)
    running = np.concatenate([[0.0], np.cumsum(cells)])
    base = np.interp(tau, times, running)
    integral = np.maximum(running - base, 0.0)
    integral[times <= tau] = 0.0
    return 0.5 * integral**2


def _power(x: float, y: float) -> float:
    """x ** y for x >= 0; inf where it overflows, as a float product does
    (Python's ** raises OverflowError instead)."""
    try:
        return x**y
    except OverflowError:
        return math.inf


def lemma21_c(prm: Lemma21Params) -> float:
    """Closed-form constant p kappa^(-2/p) + (sqrt(2 pi) p + 1) kappa + 1;
    inf where it overflows (the minorant is then 0)."""
    p, k = prm.p, prm.kappa
    return p * _power(k, -2.0 / p) + (_SQRT2PI * p + 1.0) * k + 1.0


def lemma21_lhs(prm: Lemma21Params) -> float:
    """E[eps exp(kappa|Z|^p - eps^2 kappa exp(2 kappa|Z|^p))], Z standard normal.

    Even integrand; integrated on [0, 12] (the density and the double
    exponential kill everything beyond) with breakpoints at the cutoff where
    the correction term reaches unit size. The integrand is assembled in log
    space so the inner exponential cannot overflow; where kappa |z|^p
    overflows, the correction term wins and the integrand is 0.
    """
    from scipy import integrate  # imported here: no other command needs it

    p, kappa, eps = prm.p, prm.kappa, prm.eps
    ln_eps = math.log(eps)
    ln_e2k = 2.0 * ln_eps + math.log(kappa)

    def integrand(z):
        a = kappa * _power(z, p)
        ln_corr = 2.0 * a + ln_e2k
        if ln_corr > 700.0:
            return 0.0  # correction term astronomically large, value underflows
        expo = ln_eps + a - math.exp(ln_corr) - 0.5 * z * z
        if expo < -745.0:
            return 0.0
        return math.exp(expo)

    # cutoff where 2 kappa z^p = -ln(eps^2 kappa); the integrand peaks nearby
    zc = (max(-ln_e2k, 1e-6) / (2.0 * kappa)) ** (1.0 / p)
    pts = sorted({min(max(s * zc, 1e-9), 11.9) for s in (0.5, 1.0, 1.5, 2.0)})
    val, err = integrate.quad(
        integrand, 0.0, 12.0, points=pts, limit=400, epsabs=1e-14, epsrel=1e-11
    )
    if err > max(1e-13, 1e-8 * abs(val)):
        raise QuadratureToleranceError(
            f"normal-expectation quadrature error {err:.3e} for value {val:.6e}"
        )
    return 2.0 / _SQRT2PI * val


def lemma21_rhs(prm: Lemma21Params) -> float:
    """Closed-form minorant exp(-c |ln eps|^(2/p))."""
    c = lemma21_c(prm)
    return math.exp(-c * abs(math.log(prm.eps)) ** (2.0 / prm.p))


def check_lemma21(prm: Lemma21Params) -> CheckReport:
    """Assert lhs >= rhs for one parameter point."""
    lhs = lemma21_lhs(prm)
    rhs = lemma21_rhs(prm)
    violation = rhs - lhs
    return CheckReport(
        check="lemma21_lower_bound",
        params={
            "p": prm.p,
            "kappa": prm.kappa,
            "eps": prm.eps,
            "c": lemma21_c(prm),
            "lhs": lhs,
            "rhs": rhs,
            "violation_scale": "absolute_excess",
        },
        max_violation=float(violation),
        grid_size=1,
        passed=lhs >= rhs,
    )


def stdnorm_variance(g: BumpFunction, tau: float) -> float:
    """Var[int_0^tau g'(s) W(s) ds] by 2-D tensor quadrature.

    Evaluates 2 int g'(s) [int_a^s g'(u) u du] ds over the support with
    _VARIANCE_NODES Gauss-Legendre nodes in both directions, doubling the
    resolution once to certify convergence. The inner integrals are formed
    _VARIANCE_ROWS outer nodes at a time, so memory is one block of the
    tensor grid, not the whole grid.
    """
    if g.a < -1e-12 or g.b > tau + 1e-12:
        raise DomainError(f"bump support ({g.a}, {g.b}) not inside [0, {tau}]")

    def value(n):
        x, w = np.polynomial.legendre.leggauss(n)
        half = 0.5 * (g.b - g.a)
        s = g.a + half * (x + 1.0)  # outer nodes in (a, b)
        ws = half * w
        # inner integral over u in [a, s] for every outer node, same rule
        hs = 0.5 * (s - g.a)
        x1 = x + 1.0
        inner = np.empty(n)
        for lo in range(0, n, _VARIANCE_ROWS):
            rows = slice(lo, lo + _VARIANCE_ROWS)
            u = g.a + hs[rows, None] * x1[None, :]
            inner[rows] = hs[rows] * np.sum(w[None, :] * bumps.eval(g, u, 1) * u, axis=1)
        return 2.0 * np.sum(ws * bumps.eval(g, s, 1) * inner)

    v1 = value(_VARIANCE_NODES)
    v2 = value(2 * _VARIANCE_NODES)
    if abs(v2 - v1) > 1e-8 * max(1.0, abs(v2)):
        raise QuadratureToleranceError(
            f"variance quadrature not converged: {v1!r} vs {v2!r}"
        )
    return float(v2)


def sandwich_check(
    axis: AxisAlignedModel, grid: TimeGrid, states: np.ndarray, eps: float
) -> CheckReport:
    """Pathwise check of the exponential envelope of the fourth coordinate.

    states is a batch of P cascade paths solved under axis on grid, shape
    (P, steps+1, 5); one path is a batch of one. For every path and every
    grid time t >= tau, with Z the path's (frozen) third coordinate at tau,
    n the model's drift power and kap = kappa_t tabulated on grid:

        eps exp(kap Z^n - eps^2 kap exp(2 kap Z^n)) <= X4(t) <= eps exp(kap Z^n)

    compared in log space with relative slack 1e-3 for solver error. For
    eps = 0 the check is X4 == 0. A non-finite X4, or for eps > 0 a
    non-finite Z, fails the check; a failing report names the worst path,
    its Z and the time of its worst margin.
    """
    if states.ndim != 3 or states.shape[1:] != (grid.steps + 1, 5):
        raise ValueError(f"states shape {states.shape} does not match grid")
    n = axis.params.n
    k_tau = grid.nearest_index(axis.params.tau)
    x4 = states[:, k_tau:, 3]
    z = states[:, k_tau, 2]
    if eps == 0.0:
        viol = np.abs(x4)
        params = {"eps": 0.0, "violation_scale": "absolute_excess"}
    else:
        kap = build_kappa_schedule(axis.f, axis.params.tau, grid.times)[k_tau:]
        a = kap * z[:, None] ** n
        ln_eps = math.log(eps)
        ln_up = ln_eps + a
        # correction eps^2 kap e^{2a}; saturates rather than overflows
        ln_corr = 2.0 * a + 2.0 * ln_eps + np.log(np.maximum(kap, 5e-324))
        corr = np.exp(np.minimum(ln_corr, 700.0))
        corr = np.where(ln_corr > 700.0, np.inf, corr)
        corr = np.where(kap == 0.0, 0.0, corr)
        ln_lo = ln_up - corr

        ln_x4 = np.log(np.maximum(x4, 5e-324))
        viol_up = ln_x4 - (ln_up + math.log1p(1e-3))
        with np.errstate(invalid="ignore"):
            viol_lo = np.where(
                np.isinf(ln_lo), -np.inf, (ln_lo + math.log1p(-1e-3)) - ln_x4
            )
        # a numerically nonpositive X4 only passes if the lower bound underflowed
        viol_lo = np.where((x4 <= 0.0) & (ln_lo > _TINY_LOG), np.inf, viol_lo)
        viol = np.maximum(viol_up, viol_lo)
        params = {"eps": eps, "n": n, "rel_slack": 1e-3, "violation_scale": "log_excess"}
    path, k = np.unravel_index(np.argmax(viol), viol.shape)
    max_violation = float(viol[path, k])
    passed = max_violation <= 0.0
    if not passed:
        params["worst_path"] = int(path)
        params["z"] = float(z[path])
        params["worst_t"] = float(grid.times[k_tau + k])
        params["margin"] = max_violation
    return CheckReport("sandwich", params, max_violation, viol.size, passed)


def _log_threshold(c: float, alpha: float, beta: float) -> float:
    """ln r* = -(c/alpha)^(1/(1-beta)), computed without exponentiating r*."""
    if not 0.0 < beta < 1.0:
        raise DomainError(f"need beta in (0,1), got {beta}")
    if not (c > 0.0 and alpha > 0.0):
        raise DomainError("need c > 0 and alpha > 0")
    try:
        y = -((c / alpha) ** (1.0 / (1.0 - beta)))
    except OverflowError:
        y = -math.inf
    if not np.isfinite(y):
        raise DomainError(
            f"beta={beta} too close to 1 for c/alpha={c/alpha}: threshold "
            "exponent overflows float64"
        )
    return y


def hoeldercomp_threshold(c: float, alpha: float, beta: float) -> float:
    """Largest r below which exp(-c|ln r|^beta) >= r^alpha unconditionally.

    The returned float underflows to 0.0 once ln r* < ~-745; comparisons
    inside this module run on ln r* directly so that case stays exact.
    """
    return math.exp(_log_threshold(c, alpha, beta))


def hoeldercomp_K(c: float, R: float, alpha: float, beta: float) -> float:
    """min(1, min_{r in [r*, R]} exp(-c|ln r|^beta) / r^alpha).

    Log-spaced 10^4-point grid plus golden-section refinement around the
    grid minimum; returns 1 when r* > R (empty range).
    """
    if not R > 0.0:
        raise DomainError(f"need R > 0, got {R}")
    y_star = _log_threshold(c, alpha, beta)
    if y_star > math.log(R):
        return 1.0

    # in y = ln r the objective is exp(-(c|y|^beta + alpha y)); minimizing it
    # means maximizing phi(y) = c|y|^beta + alpha y on [ln r*, ln R]
    def phi(y):
        return c * np.abs(y) ** beta + alpha * y

    ys = np.linspace(y_star, math.log(R), 10_000)
    vals = phi(ys)
    i = int(np.argmax(vals))
    worst = vals[i]
    if 0 < i < len(ys) - 1:
        from scipy.optimize import minimize_scalar

        try:
            res = minimize_scalar(
                lambda y: -phi(y),
                bracket=(ys[i - 1], ys[i], ys[i + 1]),
                method="golden",
                options={"xtol": 1e-12},
            )
            worst = max(worst, float(phi(res.x)))
        except ValueError:
            pass  # degenerate bracket (flat objective); grid value stands
    return float(min(1.0, math.exp(-worst)))


def check_hoeldercomp(prm: HoelderCompParams, r_grid) -> CheckReport:
    """Grid check of exp(-c|ln r|^beta) >= K r^alpha, plus the unconditional
    form below the threshold, in log space with 1e-9 relative headroom for
    the refinement error inside K."""
    r = np.asarray(r_grid, dtype=float)
    if np.any(r <= 0.0) or np.any(r > prm.R):
        raise DomainError("r grid must lie in (0, R]")
    lnr = np.log(r)
    lhs_log = -prm.c * np.abs(lnr) ** prm.beta
    rhs_log = math.log(prm.K) + prm.alpha * lnr + math.log1p(-1e-9)
    viol = rhs_log - lhs_log
    y_star = _log_threshold(prm.c, prm.alpha, prm.beta)
    below = lnr <= y_star
    # 1e-12 log-space headroom: at r = r* the two sides agree exactly in the
    # reals and float rounding can land a hair on either side
    viol_uncond = np.where(below, prm.alpha * lnr - lhs_log - 1e-12, -np.inf)
    allviol = np.maximum(viol, viol_uncond)
    worst = int(np.argmax(allviol))
    max_violation = float(allviol[worst])
    passed = max_violation <= 0.0
    params = {
        "c": prm.c,
        "R": prm.R,
        "alpha": prm.alpha,
        "beta": prm.beta,
        "K": prm.K,
        "log_threshold": y_star,
        "violation_scale": "log_excess",
    }
    if not passed:
        params["counterexample"] = {"r": float(r[worst])}
    return CheckReport("hoeldercomp", params, max_violation, len(r), passed)
