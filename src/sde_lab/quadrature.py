"""Small quadrature toolbox shared by the bump and bound modules.

scipy's QUADPACK wrapper is used where an adaptive Gauss-Kronrod rule is the
right tool; the routines here cover the cases where we either need full
control of the error policy (adaptive Simpson with a mixed abs/rel target) or
a cumulative antiderivative on a fixed grid (per-cell Gauss-Legendre).

Both take vectorized integrands: ``func`` maps a float array of points to
one value per point. ``adaptive_simpson`` walks its tree breadth-first, one
call of ``func`` per depth on every interval still open there. It keeps the
bits of the depth-first recursion (kept in ``tests/oracles.py`` as
``recursive_simpson``): each node sees the same points and the same
operations, and the levels are summed bottom-up as left child + right child,
the recursion's own summation tree.
"""

from __future__ import annotations

import numpy as np


class QuadratureToleranceError(RuntimeError):
    """Raised when an adaptive rule cannot certify the requested tolerance."""


# integrand points allowed per adaptive_simpson call, counted per level
# before it is evaluated; the package's own integrals (bump normalizations,
# kappa_t) need < 5000
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


def _children(nodes, left_mid, right_mid):
    """(lo, mid, hi) rows of each node's left and right child, interleaved
    so that the next level stays in left-to-right order."""
    lo, mid, hi = nodes
    left = np.stack((lo, left_mid, mid))
    right = np.stack((mid, right_mid, hi))
    return np.stack((left, right), axis=2).reshape(3, -1)


def _eval_points(func, pts):
    vals = np.asarray(func(pts), dtype=float)
    if vals.shape != pts.shape:
        raise ValueError(
            f"integrand must return one value per point: {pts.shape[0]} points "
            f"gave shape {vals.shape}"
        )
    return vals


def adaptive_simpson(func, a, b, abs_tol=1e-12, rel_tol=1e-12, max_depth=60):
    """Integrate ``func`` on [a, b] to max(abs_tol, rel_tol*|I|) accuracy.

    Classic adaptive Simpson with the |S_left + S_right - S_whole|/15
    Richardson error estimate: a node is accepted as
    S_left + S_right + err/15 once |err| <= 15*tol, otherwise its halves are
    refined with tol/2 each.

    ``func`` takes a 1-D float array of points and returns one value per
    point (ValueError otherwise). The tree is walked breadth-first: every
    interval still open at one depth is refined by one call of ``func`` on
    its 2n new points. Each node sees the same points and the same
    operations as in the depth-first recursion, and the accepted values
    are summed bottom-up as left child + right child, the recursion's own
    summation tree, so the result has the same bits as the recursive form
    and the same number of points is evaluated.

    Raises QuadratureToleranceError when a node at ``max_depth`` has not met
    its target ("stalled", naming the leftmost such interval), or before a
    level whose points would take the total past _MAX_EVALS ("budget"), so a
    non-converging integrand can neither silently return garbage nor run
    without bound. Only for such an integrand can the error differ from the
    recursive form's: each raises whichever of the two limits its visiting
    order meets first.
    """
    if not b > a:
        raise ValueError(f"empty integration interval [{a}, {b}]")
    m = 0.5 * (a + b)
    # the open nodes of the current depth, left to right: their (lo, mid, hi)
    # points, the values there and their whole-interval Simpson estimates
    xs = np.array([[a], [m], [b]], dtype=float)
    fs = _eval_points(func, xs[:, 0])[:, None]
    fa, fm, fb = fs[:, 0]
    whole = _simpson(fa, fm, fb, b - a)
    wholes = np.array([whole])
    # first pass to get a scale for the relative part of the target
    scale = max(abs(whole), abs_tol)
    tol = max(abs_tol, rel_tol * scale)
    evals = 3
    levels = []  # per depth: (accepted mask, node values)
    depth = 0
    while wholes.size:
        n = wholes.size
        lo, mid, hi = xs
        if evals + 2 * n > _MAX_EVALS:
            raise QuadratureToleranceError(
                f"adaptive Simpson exceeded its budget of {_MAX_EVALS} evaluations "
                f"at depth {depth}: {n} open intervals, the leftmost "
                f"[{lo[0]}, {hi[0]}] (target {tol:.3e})"
            )
        evals += 2 * n
        lm = 0.5 * (lo + mid)
        rm = 0.5 * (mid + hi)
        fnew = _eval_points(func, np.concatenate((lm, rm)))
        flm, frm = fnew[:n], fnew[n:]
        flo, fmid, fhi = fs
        with np.errstate(invalid="ignore", over="ignore"):
            left = _simpson(flo, flm, fmid, mid - lo)
            right = _simpson(fmid, frm, fhi, hi - mid)
            err = left + right - wholes
            done = np.abs(err) <= 15.0 * tol
            levels.append((done, left + right + err / 15.0))
        split = ~done
        if depth >= max_depth and split.any():
            i = int(np.argmax(split))
            raise QuadratureToleranceError(
                f"adaptive Simpson stalled on [{lo[i]}, {hi[i]}] at depth {depth} "
                f"(local error {abs(err[i])/15.0:.3e}, target {tol:.3e})"
            )
        xs = _children(xs[:, split], lm[split], rm[split])
        fs = _children(fs[:, split], flm[split], frm[split])
        wholes = np.stack((left[split], right[split]), axis=1).ravel()
        tol = 0.5 * tol
        depth += 1

    # bottom-up: a split node's value is left child + right child
    below = None
    for done, value in reversed(levels):
        if below is not None:
            value[~done] = below[0::2] + below[1::2]
        below = value
    return float(below[0])


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

