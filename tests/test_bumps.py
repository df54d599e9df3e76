"""Bump profile construction, derivatives, normalization, sup envelopes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import gauss_legendre
from sde_lab import bumps
from sde_lab.bumps import BumpFunction, InvalidIntervalError, make_normalized_bump
from sde_lab.quadrature import QuadratureToleranceError

# frozen 40-digit-arithmetic reference values for the (0, 0.5) profile
ETA_HALF = 32107861.787124283761
G_AT_01 = 0.00044591218212360541087
GP_AT_01 = 0.083608534148176014539
ETA_UNIT = 101.54160871374099875  # same profile on (0, 1)

intervals = st.tuples(
    st.floats(-10.0, 10.0, allow_nan=False),
    st.floats(0.12, 5.0, allow_nan=False),
).map(lambda ab: (ab[0], ab[0] + ab[1]))


def test_frozen_normalization_constants():
    g = make_normalized_bump(0.0, 0.5)
    assert g.eta == pytest.approx(ETA_HALF, rel=1e-11)
    f = make_normalized_bump(0.0, 1.0)
    assert f.eta == pytest.approx(ETA_UNIT, rel=1e-11)


def test_frozen_point_values():
    g = make_normalized_bump(0.0, 0.5)
    assert bumps.eval(g, 0.1, 0) == pytest.approx(G_AT_01, rel=1e-11)
    assert bumps.eval(g, 0.1, 1) == pytest.approx(GP_AT_01, rel=1e-11)


def test_unit_l2_norm():
    g = make_normalized_bump(0.0, 0.5)
    sq = gauss_legendre(lambda t: bumps.eval(g, t, 0) ** 2, 0.0, 0.5, 400)
    assert sq == pytest.approx(1.0, abs=1e-10)


def test_invalid_interval():
    with pytest.raises(InvalidIntervalError):
        make_normalized_bump(1.0, 1.0)
    with pytest.raises(InvalidIntervalError):
        make_normalized_bump(2.0, 1.0)


def test_too_narrow_support_overflows_cleanly():
    # eta would exceed float64 range around width 0.075
    with pytest.raises(InvalidIntervalError, match="too narrow"):
        make_normalized_bump(0.0, 0.05)
    # the peak itself overflows here; caught before the quadrature stalls
    with pytest.raises(InvalidIntervalError, match="too narrow"):
        make_normalized_bump(0.0, 0.001)


def test_bad_derivative_order():
    g = make_normalized_bump(0.0, 0.5)
    with pytest.raises(ValueError):
        bumps.eval(g, 0.2, order=3)


def test_scalar_and_array_evaluation_agree():
    g = make_normalized_bump(0.0, 0.5)
    t = np.linspace(-0.2, 0.7, 37)
    for order in (0, 1, 2):
        arr = bumps.eval(g, t, order)
        assert arr.shape == t.shape
        for ti, vi in zip(t, arr):
            assert bumps.eval(g, float(ti), order) == vi


@given(intervals)
@settings(max_examples=40, deadline=None)
def test_vanishes_outside_support(ab):
    a, b = ab
    g = make_normalized_bump(a, b)
    outside = np.array([a - 1.0, a, b, b + 1.0, a - 1e-9, b + 1e-9])
    for order in (0, 1, 2):
        assert np.all(bumps.eval(g, outside, order) == 0.0)


@given(intervals)
@settings(max_examples=40, deadline=None)
def test_positive_inside_support(ab):
    # only the central band: near the edges of narrow supports the value
    # is positive in exact arithmetic but underflows float64 to zero
    a, b = ab
    g = make_normalized_bump(a, b)
    t = a + (b - a) * np.linspace(0.15, 0.85, 19)
    assert np.all(bumps.eval(g, t, 0) > 0.0)


@given(intervals)
@settings(max_examples=25, deadline=None)
def test_translation_invariant_normalization(ab):
    a, b = ab
    g = make_normalized_bump(a, b)
    h = make_normalized_bump(a + 3.5, b + 3.5)
    assert h.eta == pytest.approx(g.eta, rel=1e-9)


@given(intervals, st.floats(0.15, 0.85))
@settings(max_examples=40, deadline=None)
def test_first_derivative_matches_finite_difference(ab, frac):
    a, b = ab
    g = make_normalized_bump(a, b)
    t = a + frac * (b - a)
    h = 1e-6 * (b - a)
    fd = (bumps.eval(g, t + h, 0) - bumps.eval(g, t - h, 0)) / (2 * h)
    exact = bumps.eval(g, t, 1)
    # peak / width scales like the derivative sup, cheap per-example floor
    peak = bumps.eval(g, 0.5 * (a + b), 0)
    assert fd == pytest.approx(exact, rel=1e-5, abs=1e-6 * peak / (b - a))


@given(intervals, st.floats(0.15, 0.85))
@settings(max_examples=40, deadline=None)
def test_second_derivative_matches_finite_difference(ab, frac):
    a, b = ab
    g = make_normalized_bump(a, b)
    t = a + frac * (b - a)
    h = 1e-5 * (b - a)
    fd = (bumps.eval(g, t + h, 1) - bumps.eval(g, t - h, 1)) / (2 * h)
    exact = bumps.eval(g, t, 2)
    peak = bumps.eval(g, 0.5 * (a + b), 0)
    scale = max(abs(exact), peak / (b - a) ** 2)
    assert fd == pytest.approx(exact, rel=1e-4, abs=1e-5 * scale)


@given(intervals)
@settings(max_examples=25, deadline=None)
def test_derivative_integrates_to_zero(ab):
    # the profile starts and ends at zero, so its derivative telescopes away
    a, b = ab
    g = make_normalized_bump(a, b)
    total = gauss_legendre(lambda t: bumps.eval(g, t, 1), a, b, 400)
    peak = bumps.eval(g, 0.5 * (a + b), 0)
    assert total == pytest.approx(0.0, abs=1e-4 * peak)


def test_sup_bounds_envelope():
    f = make_normalized_bump(0.5, 1.0)
    g = make_normalized_bump(0.0, 0.5)
    c = bumps.sup_bounds(f, g)
    assert c >= 1.0
    pieces = [
        bumps.sup_abs(f, 0),
        bumps.sup_abs(f, 1),
        bumps.sup_abs(g, 1),
        bumps.sup_abs(g, 2),
    ]
    assert c == pytest.approx(max(1.0, *pieces), rel=1e-9)


def test_sup_abs_frozen_values():
    # width-0.5 profile: grid-refined sups, frozen from the reference run
    g = make_normalized_bump(0.0, 0.5)
    assert bumps.sup_abs(g, 0) == pytest.approx(3.613263835, rel=1e-6)
    assert bumps.sup_abs(g, 1) == pytest.approx(52.04584516, rel=1e-6)
    assert bumps.sup_abs(g, 2) == pytest.approx(1849.991082, rel=1e-6)


def test_grid_refined_max_is_capped():
    # a value that doubles with the grid never settles
    sizes = []

    def values_at_n(n):
        sizes.append(n)
        return float(n)

    with pytest.raises(QuadratureToleranceError, match="doublings"):
        bumps._grid_refined_max(values_at_n)
    assert sizes == [10_000 * 2**i for i in range(bumps._MAX_DOUBLINGS + 1)]


def test_width_property():
    bf = BumpFunction(a=1.0, b=3.5, eta=2.0)
    assert bf.width == 2.5
