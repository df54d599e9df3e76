"""Small quadrature toolbox shared by the bump and bound modules.

scipy's QUADPACK wrapper is used where an adaptive Gauss-Kronrod rule is the
right tool; the routines here cover the cases where we either need full
control of the error policy (adaptive Simpson with a mixed abs/rel target) or
a cumulative antiderivative on a fixed grid (per-cell Gauss-Legendre).
"""

from __future__ import annotations

import numpy as np


class QuadratureToleranceError(RuntimeError):
    """Raised when an adaptive rule cannot certify the requested tolerance."""


# integrand evaluations allowed per adaptive_simpson call; the package's own
# integrals (bump normalizations, kappa_t, the variance identity) need < 5000
_MAX_EVALS = 100_000


# 5-point Gauss-Legendre nodes/weights on [-1, 1]
_GL5_X = np.array(
    [
        -0.906179845938663992797626878299,
        -0.538469310105683091036314420700,
        0.0,
        0.538469310105683091036314420700,
        0.906179845938663992797626878299,
    ]
)
_GL5_W = np.array(
    [
        0.236926885056189087514264040720,
        0.478628670499366468041291514836,
        0.568888888888888888888888888889,
        0.478628670499366468041291514836,
        0.236926885056189087514264040720,
    ]
)


def _simpson(fa, fm, fb, h):
    return h / 6.0 * (fa + 4.0 * fm + fb)


def adaptive_simpson(func, a, b, abs_tol=1e-12, rel_tol=1e-12, max_depth=60):
    """Integrate ``func`` on [a, b] to max(abs_tol, rel_tol*|I|) accuracy.

    Classic recursive Simpson with the |S_left + S_right - S_whole|/15
    Richardson error estimate. Raises QuadratureToleranceError when the
    recursion depth limit is hit before the local target is met, or when
    the target would need more than _MAX_EVALS integrand evaluations, so a
    non-converging integrand can neither silently return garbage nor run
    without bound.
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


def gauss_legendre_cells(func, edges):
    """Per-cell 5-point Gauss-Legendre integrals between consecutive edges.

    Returns an array of len(edges)-1 cell integrals; np.cumsum of it is a
    spectrally accurate cumulative antiderivative on the grid for smooth
    integrands.
    """
    edges = np.asarray(edges, dtype=float)
    lo = edges[:-1]
    hi = edges[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    # nodes shaped (cells, 5)
    pts = mid[:, None] + half[:, None] * _GL5_X[None, :]
    vals = func(pts)
    return half * (vals @ _GL5_W)


def gauss_legendre(func, a, b, n):
    """Fixed-order composite Gauss-Legendre integral with n nodes on [a, b]."""
    x, w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (b - a)
    mid = 0.5 * (b + a)
    return half * np.sum(w * func(mid + half * x))
