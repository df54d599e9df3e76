"""Independent reference computations for the test suite.

Anything the package obtains by simulation or by its own fixed-step
integrators is cross-checked here with different machinery: scipy's adaptive
DOP853 for the ordinary differential equations, fixed-order Gauss-Legendre
quadrature over the terminal noise law, and plain finite differences for
Jacobians. High-precision constants frozen into the unit tests were produced
by 40-digit arbitrary-precision twins of these routines.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad, solve_ivp

from sde_lab import bumps


def fd_jacobian(func, x, step):
    """5-point central-difference Jacobian at x.

    Vector fields give the (d_out, d_in) matrix, scalar fields the gradient.
    """
    x = np.asarray(x, dtype=float)
    out_shape = np.shape(func(x))
    jac = np.empty(out_shape + (len(x),))
    for j in range(len(x)):
        e = np.zeros_like(x)
        e[j] = step
        jac[..., j] = (
            -func(x + 2 * e) + 8 * func(x + e) - 8 * func(x - e) + func(x - 2 * e)
        ) / (12 * step)
    return jac


def gauss_legendre(func, a, b, n):
    """Fixed-order composite Gauss-Legendre integral with n nodes on [a, b]."""
    x, w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (b - a)
    mid = 0.5 * (b + a)
    return half * np.sum(w * func(mid + half * x))


def _scalar_bump(f):
    """Plain-Python evaluator of the bump profile (fast inside ODE loops)."""
    a, b, eta = f.a, f.b, f.eta

    def fv(s):
        if s <= a or s >= b:
            return 0.0
        return eta * math.exp(-1.0 / ((s - a) * (b - s)))

    return fv


def pair_ode_final(f, z_pow, t0, t1, x4_init, x5_init=0.0, rtol=1e-9, atol=1e-12):
    """Terminal (x4, x5) of x4' = f x4 x5, x5' = f (z_pow - x4^2) on [t0, t1].

    Adaptive high-order integration; deliberately not the package's
    fixed-step loop.
    """
    fv = _scalar_bump(f)

    def rhs(s, y):
        c = fv(s)
        return (c * y[0] * y[1], c * (z_pow - y[0] * y[0]))

    sol = solve_ivp(
        rhs,
        (t0, t1),
        (float(x4_init), float(x5_init)),
        method="DOP853",
        rtol=rtol,
        atol=atol,
        dense_output=False,
    )
    if not sol.success:
        raise RuntimeError(f"reference ODE solve failed: {sol.message}")
    return float(sol.y[0, -1]), float(sol.y[1, -1])


def drift_integral(f, t0, t1):
    """Integral of f on [t0, t1] via scipy quadrature with bump breakpoints."""
    pts = [p for p in (f.a, f.b) if t0 < p < t1]
    val, err = quad(
        lambda s: bumps.eval(f, s, 0), t0, t1, points=pts or None, limit=200
    )
    if err > 1e-10 * max(1.0, abs(val)):
        raise RuntimeError(f"drift integral not certified: err={err}")
    return val


def distance_given_z(f, tau, t, n, eps, z, drift_int=None, rtol=1e-9):
    """Flow distance at time t between starts eps*e4 and 0, given the value z
    of the noise functional: deterministic reduction of the last two
    coordinates (the first three coincide for both starts)."""
    if eps == 0.0:
        return 0.0
    z_pow = z**n
    x4, x5 = pair_ode_final(f, z_pow, tau, t, eps, rtol=rtol)
    if drift_int is None:
        drift_int = drift_integral(f, tau, t)
    x5_zero = z_pow * drift_int
    return float(np.hypot(x4, x5 - x5_zero))


def mean_distance_oracle(f, tau, t, n, eps, z_nodes=320, z_span=7.0, rtol=1e-9):
    """E over z ~ N(0,1) of distance_given_z, by Gauss-Legendre quadrature.

    The integrand decays like the normal density times a polynomial in z (the
    pair ODE is self-limiting), so the span truncates far below the target
    accuracy. For even n the integrand is even; only z >= 0 is solved.
    """
    x, w = np.polynomial.legendre.leggauss(z_nodes)
    drift_int = drift_integral(f, tau, t)
    if n % 2 == 0:
        z = 0.5 * z_span * (x + 1.0)  # map to [0, span]
        scale = 2.0 * 0.5 * z_span
    else:
        z = z_span * x
        scale = z_span
    dens = np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)
    vals = np.array(
        [distance_given_z(f, tau, t, n, eps, zj, drift_int, rtol) for zj in z]
    )
    return float(scale * np.sum(w * dens * vals))


def oracle_sweep_means(f, tau, t, n, eps_grid, z_nodes=320, rtol=1e-9):
    """Oracle mean distances for a whole epsilon grid (shared z nodes)."""
    return np.array(
        [
            mean_distance_oracle(f, tau, t, n, e, z_nodes=z_nodes, rtol=rtol)
            for e in eps_grid
        ]
    )


def local_slopes(eps_grid, means):
    """Log-log slopes between consecutive grid points."""
    le = np.log(np.asarray(eps_grid, dtype=float))
    lm = np.log(np.asarray(means, dtype=float))
    return np.diff(lm) / np.diff(le)


def paired_slope_se(eps_a, eps_b, est_a, est_b):
    """Standard error of one local log-log slope from two distance estimates
    that share their driving paths (common random numbers).

    Delta method on (ln mean_b - ln mean_a) / (ln eps_b - ln eps_a) with the
    per-path covariance of the paired samples.
    """
    da, db = est_a.distances, est_b.distances
    ok = np.isfinite(da) & np.isfinite(db)
    da, db = da[ok], db[ok]
    n = len(da)
    ma, mb = da.mean(), db.mean()
    cov = np.cov(da, db, ddof=1)
    var_log = cov[0, 0] / ma**2 + cov[1, 1] / mb**2 - 2.0 * cov[0, 1] / (ma * mb)
    dl = math.log(eps_b) - math.log(eps_a)
    return float(math.sqrt(max(var_log, 0.0) / n) / abs(dl))
