"""Adaptive Simpson and fixed-order Gauss-Legendre helpers."""

import re

import numpy as np
import pytest

from oracles import gauss_legendre, recursive_simpson
from sde_lab import bounds, bumps, cli, model, quadrature
from sde_lab.quadrature import QuadratureToleranceError, adaptive_simpson, gauss_legendre_cells


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
    step = lambda t: np.where(t < 0.123456789, 0.0, 1.0)
    with pytest.raises(QuadratureToleranceError, match="stalled"):
        adaptive_simpson(step, 0.0, 1.0, abs_tol=1e-15, rel_tol=1e-15, max_depth=12)


def test_simpson_stall_names_the_leftmost_open_interval():
    jumps = lambda t: np.where(t < 0.123456789, 0.0, 1.0) + np.where(t < 0.7, 0.0, 3.0)
    with pytest.raises(QuadratureToleranceError, match="stalled") as info:
        adaptive_simpson(jumps, 0.0, 1.0, abs_tol=1e-15, rel_tol=1e-15, max_depth=12)
    lo, hi, depth = re.search(r"on \[(\S+), (\S+)\] at depth (\d+)", str(info.value)).groups()
    assert float(lo) <= 0.123456789 <= float(hi)
    assert float(hi) - float(lo) == pytest.approx(2.0**-12)
    assert int(depth) == 12


def _counting(func, counts):
    def counted(t):
        counts.append(np.size(t))
        return func(t)

    return counted


def test_simpson_evaluation_budget():
    # resolving sin(1e9 t) on [0, 1] needs ~2^33 cells, far within the depth limit
    counts = []
    fast = _counting(lambda t: np.sin(1e9 * t), counts)
    with pytest.raises(QuadratureToleranceError, match="budget"):
        adaptive_simpson(fast, 0.0, 1.0)
    assert sum(counts) <= quadrature._MAX_EVALS


def test_simpson_budget_is_counted_in_points(monkeypatch):
    counts = []
    adaptive_simpson(_counting(np.exp, counts), 0.0, 1.0, abs_tol=1e-13, rel_tol=1e-13)
    needed = sum(counts)
    # a level whose points would pass the budget raises before it is evaluated
    monkeypatch.setattr(quadrature, "_MAX_EVALS", needed - 1)
    counts.clear()
    with pytest.raises(QuadratureToleranceError, match="budget"):
        adaptive_simpson(_counting(np.exp, counts), 0.0, 1.0, abs_tol=1e-13, rel_tol=1e-13)
    assert sum(counts) <= needed - 1
    monkeypatch.setattr(quadrature, "_MAX_EVALS", needed)
    adaptive_simpson(np.exp, 0.0, 1.0, abs_tol=1e-13, rel_tol=1e-13)


@pytest.mark.parametrize(
    "func",
    [lambda t: 1.0, lambda t: np.ones((np.size(t), 1)), lambda t: np.ones(np.size(t) - 1)],
    ids=["scalar", "column", "short"],
)
def test_simpson_integrand_must_return_one_value_per_point(func):
    with pytest.raises(ValueError, match="one value per point"):
        adaptive_simpson(func, 0.0, 1.0)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_simpson_non_finite_integrand_raises_within_budget(value):
    counts = []
    func = _counting(lambda t: np.full(np.shape(t), value), counts)
    with pytest.raises(QuadratureToleranceError, match="budget|stalled"):
        adaptive_simpson(func, 0.0, 1.0)
    assert sum(counts) <= quadrature._MAX_EVALS


def _same_bits_as_recursion(func, a, b, reference=None, **kw):
    """adaptive_simpson(func) against the depth-first recursion: the same
    float, bit for bit, and the same number of points evaluated.

    The recursion calls ``reference`` on one scalar point at a time
    (default: ``func`` itself)."""
    counts, ref_counts = [], []
    got = adaptive_simpson(_counting(func, counts), a, b, **kw)
    want = recursive_simpson(_counting(reference or func, ref_counts), a, b, **kw)
    assert float(got).hex() == float(want).hex()
    assert sum(counts) == sum(ref_counts)
    return got


def _captured(monkeypatch, module, call):
    """The (func, a, b, kwargs) of every adaptive_simpson call ``call()``
    makes through ``module``'s binding."""
    seen = []

    def spy(func, a, b, **kw):
        seen.append((func, a, b, kw))
        return adaptive_simpson(func, a, b, **kw)

    monkeypatch.setattr(module, "adaptive_simpson", spy)
    call()
    monkeypatch.undo()
    return seen


_DEFAULT = cli.ExperimentConfig()
_GENTLE = cli.ExperimentConfig(n=2, tau=1.0, T=2.0)


@pytest.mark.parametrize("cfg", [_DEFAULT, _GENTLE], ids=["default", "gentle"])
def test_simpson_same_bits_on_the_model_normalizations(monkeypatch, cfg):
    seen = _captured(
        monkeypatch, bumps, lambda: model.build_axis_aligned(cfg.model_params())
    )
    assert [(a, b) for _, a, b, _ in seen] == [(cfg.tau, cfg.T), (0.0, cfg.tau)]
    for func, a, b, kw in seen:
        _same_bits_as_recursion(func, a, b, **kw)


def test_simpson_same_bits_on_random_normalizations(monkeypatch):
    rng = np.random.default_rng(20240530)
    widths = rng.uniform(0.15, 3.0, 200)
    offsets = rng.uniform(-5.0, 5.0, 200)
    seen = _captured(
        monkeypatch,
        bumps,
        lambda: [bumps.make_normalized_bump(a, a + w) for a, w in zip(offsets, widths)],
    )
    assert len(seen) == 200
    for i, (func, a, b, kw) in enumerate(seen):
        if i < 10:
            _same_bits_as_recursion(func, a, b, **kw)
            continue
        # the scalar calls of the profile cost ~50 ms a normalization, so past
        # the first ten the recursion reads the values the array calls gave;
        # a point it asks for that they did not visit is a KeyError
        memo = {}

        def recorded(t, func=func, memo=memo):
            vals = func(t)
            memo.update(zip(t.tolist(), vals.tolist()))
            return vals

        _same_bits_as_recursion(recorded, a, b, reference=memo.__getitem__, **kw)


@pytest.mark.parametrize("cfg", [_DEFAULT, _GENTLE], ids=["default", "gentle"])
def test_simpson_same_bits_on_kappa_t(monkeypatch, cfg):
    f = model.build_axis_aligned(cfg.model_params()).f
    times = [cfg.tau + frac * (cfg.T - cfg.tau) for frac in (0.2, 0.5, 0.8, 1.0)]
    seen = _captured(
        monkeypatch, bounds, lambda: [bounds.kappa_t(f, cfg.tau, t) for t in times]
    )
    assert len(seen) == 4
    for func, a, b, kw in seen:
        _same_bits_as_recursion(func, a, b, **kw)


@pytest.mark.parametrize(
    "func, a, b",
    [
        (np.exp, 0.0, 1.0),
        (np.sin, 0.0, np.pi),
        (lambda t: t**3 - 2.0 * t + 0.5, -1.0, 2.0),
        # deep on the right only: the two visiting orders differ most here
        (lambda t: np.tanh(400.0 * (t - 0.97)), 0.0, 1.0),
    ],
    ids=["exp", "sin", "cubic", "steep-tanh"],
)
def test_simpson_same_bits_on_smooth_integrands(func, a, b):
    _same_bits_as_recursion(func, a, b, abs_tol=1e-13, rel_tol=1e-13)


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
