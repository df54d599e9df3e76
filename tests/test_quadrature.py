"""Adaptive Simpson and fixed-order Gauss-Legendre helpers."""

import math

import numpy as np
import pytest

from sde_lab import quadrature
from sde_lab.quadrature import (
    QuadratureToleranceError,
    adaptive_simpson,
    gauss_legendre,
    gauss_legendre_cells,
)


def test_simpson_exponential():
    got = adaptive_simpson(np.exp, 0.0, 1.0, abs_tol=1e-13, rel_tol=1e-13)
    assert got == pytest.approx(np.e - 1.0, rel=1e-12)


def test_simpson_polynomial_exact():
    # Simpson is exact on cubics; the recursion should exit level zero
    got = adaptive_simpson(lambda t: t**3 - 2.0 * t, 0.0, 2.0)
    assert got == pytest.approx(0.0, abs=1e-14)


def test_simpson_oscillatory():
    got = adaptive_simpson(np.sin, 0.0, np.pi, abs_tol=1e-12, rel_tol=1e-12)
    assert got == pytest.approx(2.0, rel=1e-10)


def test_simpson_empty_interval():
    with pytest.raises(ValueError, match="empty integration interval"):
        adaptive_simpson(np.exp, 1.0, 1.0)


def test_simpson_refuses_discontinuity():
    step = lambda t: 0.0 if t < 0.123456789 else 1.0
    with pytest.raises(QuadratureToleranceError, match="stalled"):
        adaptive_simpson(step, 0.0, 1.0, abs_tol=1e-15, rel_tol=1e-15, max_depth=12)


def test_simpson_evaluation_budget():
    # resolving sin(1e9 t) on [0, 1] needs ~2^33 cells, far within the depth limit
    calls = []

    def fast(t):
        calls.append(t)
        return math.sin(1e9 * t)

    with pytest.raises(QuadratureToleranceError, match="budget"):
        adaptive_simpson(fast, 0.0, 1.0)
    assert len(calls) <= quadrature._MAX_EVALS


def test_gauss_legendre_cells_cumulative():
    edges = np.linspace(0.0, 2.0, 65)
    cells = gauss_legendre_cells(np.exp, edges)
    assert cells.shape == (64,)
    cumulative = np.concatenate([[0.0], np.cumsum(cells)])
    assert np.allclose(cumulative, np.exp(edges) - 1.0, rtol=1e-12, atol=1e-13)


def test_gauss_legendre_fixed_order():
    got = gauss_legendre(lambda t: np.cos(t), 0.0, np.pi / 2.0, 50)
    assert got == pytest.approx(1.0, rel=1e-13)
    # degree-9 polynomial integrated exactly by 5 nodes
    got = gauss_legendre(lambda t: t**9, 0.0, 1.0, 5)
    assert got == pytest.approx(0.1, rel=1e-13)
