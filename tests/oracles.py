"""Independent reference computations for the test suite.

Anything the package obtains by simulation or by its own fixed-step
integrators is cross-checked here with different machinery: scipy's adaptive
DOP853 for the ordinary differential equations, fixed-order Gauss-Legendre
quadrature over the terminal noise law, and plain finite differences for
Jacobians. High-precision constants frozen into the unit tests were produced
by 40-digit arbitrary-precision twins of these routines.

The sweep oracle (``oracle_sweep_means``). Past tau, g vanishes, so X3 is
frozen at Z = X3(tau), and the first three coordinates of the starts eps*e4
and 0 coincide. Their last two coordinates then solve

    x4' = f x4 x5,    x5' = f (a - x4^2),    a = Z^n,

from (eps, 0) and from (0, 0). The zero start keeps x4 = 0.

- Intrinsic time. With s(t) = int_tau^t f (f >= 0) the pair is autonomous:
  dx4/ds = x4 x5 and dx5/ds = a - x4^2. The bump drops out, and time t
  becomes S = drift_integral(f, tau, t). The zero start has x5 = a s, so
  the distance at t is hypot(x4, q) with q = a S - x5 = int_0^S x4^2 ds.
  The solve carries q as a third component, because a S - x5 cancels when
  x4 decays (a < 0).
- First integral. With u = ln x4, du/ds = x5 and dx5/ds = a - e^{2u}, so
  H = x5^2 + x4^2 - 2 a ln x4 is conserved: dH/ds = 2 x5 (a - x4^2)
  + 2 x4^2 x5 - 2 a x5 = 0. It starts at eps^2 - 2 a ln eps. The tests
  check its drift at the oracle's end states. It is not used to solve:
  inverting the quadrature s(u) = int du / sqrt(H - e^{2u} + 2 a u) needs
  separate branches for a << eps^2, a = 0 and a < 0, and the stacked solve
  needs none.
- The envelope. While x4^2 << a, x5 ~ a s and ln x4 ~ ln eps + a s^2 / 2,
  so X4(t) ~ eps exp(kappa_t Z^n) with kappa_t = S^2 / 2, the upper
  envelope of ``bounds.sandwich_check``. Once kappa_t Z^n passes about
  |ln eps| + (n/2) ln|Z|, x4^2 reaches a and the well of H turns the pair
  back. At t = 0.9 (kappa_t = 0.0735) and eps = e^-1, X4 is 0.98 of the
  envelope at z = 2 and 0.15 of it at z = 3. For Z ~ N(0, 1) leaving it
  has probability about exp(-(|ln eps| / kappa_t)^{2/n} / 2): the
  exp(-c |ln eps|^{2/n}) rate of the lower bound that ``bounds.lemma21_*``
  checks, next to the log-Hoelder upper bound of Jentzen, Kuckuck,
  Mueller-Gronbach and Yaroslavtseva (arXiv:1904.05963).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad, solve_ivp

from sde_lab import bumps
from sde_lab.quadrature import _MAX_EVALS, QuadratureToleranceError, _simpson

_Z_SPAN = 7.0  # the z quadrature covers |z| <= 7


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


def recursive_simpson(func, a, b, abs_tol=1e-12, rel_tol=1e-12, max_depth=60):
    """Depth-first reference for ``quadrature.adaptive_simpson``.

    The package's recursive form before it went breadth-first, kept word for
    word: ``func`` is called on one scalar point at a time, the nodes are
    visited depth-first and summed as left + right on the way back up. The
    breadth-first routine must return the same bits and evaluate the same
    number of points.
    """
    if not b > a:
        raise ValueError(f"empty integration interval [{a}, {b}]")
    fa, fb = func(a), func(b)
    m = 0.5 * (a + b)
    fm = func(m)
    whole = _simpson(fa, fm, fb, b - a)
    # first pass to get a scale for the relative part of the target
    scale = max(abs(whole), abs_tol)
    tol = max(abs_tol, rel_tol * scale)
    evals = 3

    def recurse(a, fa, m, fm, b, fb, whole, tol, depth):
        nonlocal evals
        if evals + 2 > _MAX_EVALS:
            raise QuadratureToleranceError(
                f"adaptive Simpson exceeded its budget of {_MAX_EVALS} evaluations "
                f"on [{a}, {b}] at depth {depth} (target {tol:.3e})"
            )
        evals += 2
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm, frm = func(lm), func(rm)
        left = _simpson(fa, flm, fm, m - a)
        right = _simpson(fm, frm, fb, b - m)
        err = left + right - whole
        if abs(err) <= 15.0 * tol:
            return left + right + err / 15.0
        if depth >= max_depth:
            raise QuadratureToleranceError(
                f"adaptive Simpson stalled on [{a}, {b}] at depth {depth} "
                f"(local error {abs(err)/15.0:.3e}, target {tol:.3e})"
            )
        half = 0.5 * tol
        return recurse(a, fa, lm, flm, m, fm, left, half, depth + 1) + recurse(
            m, fm, rm, frm, b, fb, right, half, depth + 1
        )

    return recurse(a, fa, m, fm, b, fb, whole, tol, 0)


def x3_variance(g, tau, nodes=400):
    """Variance of X3(tau) = int_0^tau g'(t) W(t) dt in the continuum.

    Integrating by parts with g(0) = g(tau) = 0 gives X3(tau) = -int g dW,
    so by the Ito isometry Var = int_0^tau g^2, here by Gauss-Legendre
    (1 up to the normalization of g; 400 nodes settle it to about 1e-14).
    """
    return gauss_legendre(lambda t: bumps.eval(g, t, 0) ** 2, 0.0, tau, nodes)


def _scalar_bump(f):
    """Plain-Python evaluator of the bump profile (fast inside ODE loops)."""
    a, b, eta = f.a, f.b, f.eta

    def fv(s):
        if s <= a or s >= b:
            return 0.0
        return eta * math.exp(-1.0 / ((s - a) * (b - s)))

    return fv


def _dop853(rhs, t0, t1, y0, rtol, atol):
    sol = solve_ivp(rhs, (t0, t1), y0, method="DOP853", rtol=rtol, atol=atol)
    if not sol.success:
        raise RuntimeError(f"reference ODE solve failed: {sol.message}")
    return sol.y[:, -1]


def pair_ode_final(f, z_pow, t0, t1, x4_init, x5_init=0.0, rtol=1e-9, atol=1e-12):
    """Terminal (x4, x5) of x4' = f x4 x5, x5' = f (z_pow - x4^2) on [t0, t1].

    Adaptive high-order integration; deliberately not the package's
    fixed-step loop.
    """
    fv = _scalar_bump(f)

    def rhs(s, y):
        c = fv(s)
        return (c * y[0] * y[1], c * (z_pow - y[0] * y[0]))

    x4, x5 = _dop853(rhs, t0, t1, (float(x4_init), float(x5_init)), rtol, atol)
    return float(x4), float(x5)


def pair_ode_distance(f, z_pow, t0, t1, eps, rtol=1e-9, atol=1e-12):
    """Flow distance at t1 between the starts eps*e4 and 0 given z_pow = Z^n:
    hypot(x4, q) with q' = f x4^2 carried next to the pair.

    The scalar reference of ``node_distances``: a DOP853 solve in t, one
    (z, eps) at a time, with the bump in the right-hand side.
    """
    fv = _scalar_bump(f)

    def rhs(s, y):
        c = fv(s)
        sq = y[0] * y[0]
        return (c * y[0] * y[1], c * (z_pow - sq), c * sq)

    x4, _, q = _dop853(rhs, t0, t1, (float(eps), 0.0, 0.0), rtol, atol)
    return float(np.hypot(x4, q))


def drift_integral(f, t0, t1):
    """Integral of f on [t0, t1] via scipy quadrature with bump breakpoints."""
    pts = [p for p in (f.a, f.b) if t0 < p < t1]
    val, err = quad(
        lambda s: bumps.eval(f, s, 0), t0, t1, points=pts or None, limit=200
    )
    if err > 1e-10 * max(1.0, abs(val)):
        raise RuntimeError(f"drift integral not certified: err={err}")
    return val


def intrinsic_pair_final(z_pow, eps, S, rtol=1e-9):
    """(x4, x5, q) at intrinsic time S of dx4/ds = x4 x5, dx5/ds = a - x4^2,
    dq/ds = x4^2 from (eps, 0, 0), for every broadcast pair of a = z_pow and
    eps, by one DOP853 solve of the stacked triples.

    DOP853 bounds the RMS of the scaled error over the state, so the
    tolerances (rtol and an atol of 1e-12) are divided by sqrt(state size):
    each component keeps the error control the caller asked for.
    """
    a, x4_0 = np.broadcast_arrays(np.asarray(z_pow, float), np.asarray(eps, float))
    shape = a.shape
    a = a.ravel()
    m = a.size

    def rhs(s, y):
        x4, x5 = y[:m], y[m : 2 * m]
        sq = x4 * x4
        return np.concatenate((x4 * x5, a - sq, sq))

    shrink = math.sqrt(3 * m)
    y0 = np.concatenate((x4_0.ravel(), np.zeros(2 * m)))
    end = _dop853(rhs, 0.0, S, y0, rtol / shrink, 1e-12 / shrink)
    return tuple(end.reshape(3, *shape))


def z_quadrature(n, z_nodes):
    """Gauss-Legendre nodes z and weights against the N(0,1) density.

    For even n the distance is even in z, so the rule maps to [0, span] and
    doubles; for odd n it covers [-span, span]. The normal density times a
    polynomial in z (the pair ODE is self-limiting) truncates far below the
    target accuracy at this span.
    """
    x, w = np.polynomial.legendre.leggauss(z_nodes)
    if n % 2 == 0:
        z = 0.5 * _Z_SPAN * (x + 1.0)  # map to [0, span]
    else:
        z = _Z_SPAN * x
    dens = np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)
    return z, _Z_SPAN * w * dens


def node_distances(f, tau, t, n, eps_grid, z, rtol=1e-9):
    """Flow distance at time t between starts eps*e4 and 0 given the noise
    functional Z = z, shape (len(eps_grid), len(z)), by one stacked solve.

    The first three coordinates coincide for both starts; the zero start has
    x4 = 0 and x5 = z^n S. A row with eps = 0 is exactly 0.
    """
    eps = np.asarray(eps_grid, dtype=float)
    z_pow = np.asarray(z, dtype=float) ** n
    S = drift_integral(f, tau, t)
    out = np.zeros((len(eps), len(z_pow)))
    live = eps != 0.0
    if live.any():
        x4, _, q = intrinsic_pair_final(z_pow, eps[live, None], S, rtol)
        out[live] = np.hypot(x4, q)
    return out


def oracle_sweep_means(f, tau, t, n, eps_grid, z_nodes=320, rtol=1e-9):
    """Oracle mean distances for a whole epsilon grid: E over Z ~ N(0,1) of
    the flow distance given Z, by Gauss-Legendre quadrature on shared z
    nodes, every (eps, z) pair in one intrinsic-time solve."""
    z, weights = z_quadrature(n, z_nodes)
    return node_distances(f, tau, t, n, eps_grid, z, rtol) @ weights


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
