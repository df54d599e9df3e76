"""Smooth compactly supported bump profiles with L2 normalization.

The profile is the classic mollifier exp(-1/((t-a)(b-t))) on (a, b), zero
outside, scaled so that the square integrates to one. First and second
derivatives are closed-form (no symbolic or FD machinery at runtime).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quadrature import QuadratureToleranceError, adaptive_simpson

# evaluations this close to an endpoint are clamped to exactly zero; the
# exponential part underflows long before this matters numerically
_EDGE = 1e-12

# grid doublings allowed in _grid_refined_max; the package's models settle
# after one
_MAX_DOUBLINGS = 8


class InvalidIntervalError(ValueError):
    """Support interval is empty or reversed."""


@dataclass(frozen=True)
class BumpFunction:
    """L2-normalized bump supported on (a, b): t -> eta * exp(-1/((t-a)(b-t)))."""

    a: float
    b: float
    eta: float

    @property
    def width(self) -> float:
        return self.b - self.a


def _raw_parts(a, b, t):
    """Return (inside_mask, s, sp) with s=(t-a)(b-t) guarded to 1 outside."""
    t = np.asarray(t, dtype=float)
    inside = (t > a + _EDGE) & (t < b - _EDGE)
    s = np.where(inside, (t - a) * (b - t), 1.0)
    sp = a + b - 2.0 * t
    return inside, s, sp


def eval(bf: BumpFunction, t, order: int = 0):
    """Evaluate the bump or one of its first two derivatives at t.

    t may be a scalar or an array; the result matches its shape. All three
    orders are continuous on the whole line and vanish outside (a, b).
    """
    if order not in (0, 1, 2):
        raise ValueError(f"derivative order must be 0, 1 or 2, got {order}")
    inside, s, sp = _raw_parts(bf.a, bf.b, t)
    core = np.where(inside, np.exp(-1.0 / s), 0.0)
    if order == 0:
        out = bf.eta * core
    elif order == 1:
        out = bf.eta * core * sp / (s * s)
    else:
        phi1 = sp / (s * s)
        phi2 = -2.0 * (s + sp * sp) / (s * s * s)
        out = bf.eta * core * (phi1 * phi1 + phi2)
    if np.ndim(t) == 0:
        return float(out)
    return out


def make_normalized_bump(a: float, b: float) -> BumpFunction:
    """Build the bump on (a, b) with unit L2 norm.

    Raises InvalidIntervalError for b <= a and QuadratureToleranceError if
    the normalization integral cannot be certified.
    """
    if not b > a:
        raise InvalidIntervalError(f"need a < b, got a={a}, b={b}")
    # Integrate the squared profile scaled by its peak exp(-2/s_max): the raw
    # square is ~1e-16 already at width 0.5 and underflows float64 for narrow
    # supports, which would leave the quadrature tolerance meaningless.
    s_max = 0.25 * (b - a) ** 2
    with np.errstate(over="ignore"):
        peak = np.exp(1.0 / s_max)
    too_narrow = f"support ({a}, {b}) too narrow: normalization overflows float64"
    if not np.isfinite(peak):  # checked first: the quadrature stalls on such supports
        raise InvalidIntervalError(too_narrow)

    def scaled_sq(t):
        inside, s, _ = _raw_parts(a, b, t)
        expo = np.where(inside, 2.0 / s_max - 2.0 / s, -np.inf)
        return np.where(inside, np.exp(expo), 0.0)

    scaled = adaptive_simpson(scaled_sq, a, b, abs_tol=1e-15, rel_tol=1e-12)
    if not scaled > 0.0:
        raise QuadratureToleranceError(
            f"normalization integral degenerate on ({a}, {b}): {scaled}"
        )
    with np.errstate(over="ignore"):
        eta = peak / np.sqrt(scaled)
    if not np.isfinite(eta):
        raise InvalidIntervalError(too_narrow)
    return BumpFunction(a=float(a), b=float(b), eta=float(eta))


def _grid_refined_max(values_at_n) -> float:
    """Refine a grid maximum values_at_n(n) over n points.

    Starts from 10^4 points and doubles until the value moves by a relative
    1e-6 or less. Raises QuadratureToleranceError if it still moves after
    _MAX_DOUBLINGS doublings.
    """
    n = 10_000
    cur = values_at_n(n)
    for _ in range(_MAX_DOUBLINGS):
        n *= 2
        nxt = values_at_n(n)
        if abs(nxt - cur) <= 1e-6 * max(abs(cur), 1e-300):
            return float(nxt)
        cur = nxt
    raise QuadratureToleranceError(
        f"grid maximum still moving after {_MAX_DOUBLINGS} doublings ({n} points): {cur}"
    )


def sup_bounds(f: BumpFunction, g: BumpFunction) -> float:
    """Common envelope constant max(1, sup|f|, sup|f'|, sup|g'|, sup|g''|).

    Grid maximum over both supports, refined by _grid_refined_max.
    """

    def grid_max(n):
        tf = np.linspace(f.a, f.b, n)
        tg = np.linspace(g.a, g.b, n)
        return max(
            1.0,
            np.max(np.abs(eval(f, tf, 0))),
            np.max(np.abs(eval(f, tf, 1))),
            np.max(np.abs(eval(g, tg, 1))),
            np.max(np.abs(eval(g, tg, 2))),
        )

    return _grid_refined_max(grid_max)


def sup_abs(bf: BumpFunction, order: int = 0) -> float:
    """Grid-refined sup of |derivative of given order|, same policy as sup_bounds."""
    return _grid_refined_max(
        lambda n: float(np.max(np.abs(eval(bf, np.linspace(bf.a, bf.b, n), order))))
    )
