"""transform-check and variation-check stream their solves window by window.

Each report, and each per-path value it reduces (the sups of the fine and
coarse distances, J and the finite difference), must have the bits of the
whole-history computation built from the recorded solvers, for any window
length; and neither check may keep a (P, K+1, d) history.
"""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from sde_lab import cli, paths, solvers

_GENTLE = dict(n=2, tau=1.0, T=2.0)
_V7 = dict(d=7, v=[0.4, -0.3, 0.2, 0.1, -0.5, 0.3, 0.6],
           delta=[0.7, 0.2, -0.4, 0.3, 0.1, -0.2, 0.5])
_V9 = dict(d=9, m=2, v=[0.2, 0.1, -0.3, 0.4, 0.0, -0.1, 0.3, 0.2, -0.4],
           delta=[0.3, -0.5, 0.2, 0.1, 0.6, 0.2, -0.3, 0.4, 0.1])

# window lengths: 1 and 2 round up to windows of 2 steps, 3 and 7 to odd
# lengths made even, 10**6 covers the grid in one window
_BLOCKS = [1, 2, 3, 7, 10**6]


def _same_bits(a, b) -> bool:
    """Equal values with equal zero signs, and NaN where the other has NaN
    (of either sign: a NaN's sign bit carries no value)."""
    a, b = np.asarray(a), np.asarray(b)
    nan = np.isnan(a)
    return (np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a[~nan]), np.signbit(b[~nan])))


def _whole_histories(monkeypatch):
    """Make the reports run on whole histories from the recorded solvers:
    each stream yields its solve as one block."""
    def em(gm, dt, w, x0, windows, taming):
        yield solvers.solve_em_batch(gm, SimpleNamespace(dt=dt), w, x0, taming)

    def cascade(gm, grid, w, y0, windows):
        yield solvers.solve_cascade_general(gm, grid, w, y0)

    monkeypatch.setattr(solvers, "_em_blocks", em)
    monkeypatch.setattr(solvers, "_cascade_general_blocks", cascade)


def _sup_spy(monkeypatch):
    """The per-path sup arrays the report folds into, in order of first use."""
    sups = []
    fold = cli._sup_distances

    def spy(a, b, sup):
        if not any(sup is s for s in sups):
            sups.append(sup)
        fold(a, b, sup)

    monkeypatch.setattr(cli, "_sup_distances", spy)
    return sups


def _transform_sups(config, n_paths, seed):
    """The fine and coarse per-path sups from whole histories, reduced one
    path at a time as np.max over each history."""
    gm = cli._build_general(config)
    params = gm.params
    fine = paths.TimeGrid(T=params.T, steps=config.steps())
    coarse = paths.TimeGrid(T=params.T, steps=config.steps() // 2)
    y0 = np.random.default_rng(seed).uniform(-0.3, 0.3, size=params.d)
    x0 = gm.B @ y0 + params.v
    wf = paths.brownian_values_batch(fine, params.m, seed, 0, n_paths)
    ref = solvers.solve_cascade_general(gm, fine, wf[:, :, 0], y0)
    em_f = solvers.solve_em_batch(gm, fine, wf, x0, taming=False)
    em_c = solvers.solve_em_batch(gm, coarse, wf[:, ::2], x0, taming=False)
    with np.errstate(over="ignore", invalid="ignore"):
        sup_f = [np.linalg.norm(x - y, axis=1).max() for x, y in zip(ref, em_f)]
        sup_c = [np.linalg.norm(x - y, axis=1).max() for x, y in zip(ref[:, ::2], em_c)]
    return np.array(sup_f), np.array(sup_c)


@pytest.mark.parametrize(
    "config, n_paths",
    [
        (dict(_GENTLE, dt=2.0 / 45), 3),  # d = 5, odd step count
        (dict(_GENTLE, dt=2.0 / 44, **_V7), 3),
        (dict(_GENTLE, dt=2.0 / 45, **_V9), 4),
        (dict(_GENTLE, dt=2.0 / 45, **_V7), 1),  # the two-row Euler route
        (dict(n=40, dt=0.125), 4),  # path 2's reference is non-finite from step 8
    ],
)
def test_transform_report_has_the_bits_of_whole_histories(monkeypatch, config, n_paths):
    config = cli.ExperimentConfig(**config)
    sup_f, sup_c = _transform_sups(config, n_paths, seed=1)
    with monkeypatch.context() as mp:
        _whole_histories(mp)
        reference = cli.transform_equivalence_report(config, n_paths, seed=1).to_json()
    for block in _BLOCKS:
        monkeypatch.setattr(solvers, "_BLOCK_STEPS", block)
        with monkeypatch.context() as mp:
            sups = _sup_spy(mp)
            report = cli.transform_equivalence_report(config, n_paths, seed=1).to_json()
        assert report == reference, block
        assert _same_bits(sups[0], sup_f) and _same_bits(sups[1], sup_c), block
    if config.n == 40:
        assert np.isnan(sup_f).any() and np.isfinite(sup_f).any()


@pytest.mark.parametrize(
    "config, n_paths",
    [
        (dict(_GENTLE, dt=2.0 / 43), 3),  # d = 5
        (dict(_GENTLE, dt=2.0 / 44, **_V7), 3),
        (dict(_GENTLE, dt=2.0 / 43, **_V9), 4),
        (dict(_GENTLE, dt=2.0 / 43, **_V7), 1),  # the two-row Euler route
    ],
)
def test_variation_report_has_the_bits_of_whole_histories(monkeypatch, config, n_paths):
    config = cli.ExperimentConfig(**config)
    fd_eps, seed = 1e-5, 4
    # J and the finite difference from the recorded solvers, as the report
    # computed them before it streamed
    gm = cli._build_general(config)
    grid = paths.TimeGrid(T=gm.params.T, steps=config.steps())
    rng = np.random.default_rng(seed)
    x0 = gm.params.v + gm.B @ rng.uniform(-0.3, 0.3, size=gm.params.d)
    h = rng.standard_normal(gm.params.d)
    h /= np.linalg.norm(h)
    w = paths.brownian_values_batch(grid, gm.params.m, seed, 0, n_paths)
    X = solvers.solve_em_batch(gm, grid, w, x0, taming=False)
    Xh = solvers.solve_em_batch(gm, grid, w, x0 + fd_eps * h, taming=False)
    J_ref = solvers.solve_variation_batch(gm, grid, X, h)
    fd_ref = (Xh[:, -1] - X[:, -1]) / fd_eps
    with monkeypatch.context() as mp:
        _whole_histories(mp)
        reference = cli.variation_fd_report(config, n_paths, fd_eps, seed).to_json()

    for block in _BLOCKS:
        seen = {}
        monkeypatch.setattr(solvers, "_BLOCK_STEPS", block)
        with monkeypatch.context() as mp:
            steps, blocks = solvers._variation_steps, solvers._em_blocks

            def variation(*args):
                seen["J"] = steps(*args)
                return seen["J"]

            def euler(*args, **kwargs):
                for both in blocks(*args, **kwargs):
                    seen["fd"] = (both[1, :, -1] - both[0, :, -1]) / fd_eps
                    yield both

            mp.setattr(solvers, "_variation_steps", variation)
            mp.setattr(solvers, "_em_blocks", euler)
            report = cli.variation_fd_report(config, n_paths, fd_eps, seed).to_json()
        assert report == reference, block
        assert _same_bits(seen["J"], J_ref) and _same_bits(seen["fd"], fd_ref), block


@pytest.mark.parametrize("steps", [1, 2, 3, 4, 5, 6, 7, 8, 9, 513])
@pytest.mark.parametrize("block", [1, 2, 3, 7, 256])
def test_step_windows_cover_the_grid_with_even_starts(monkeypatch, steps, block):
    monkeypatch.setattr(solvers, "_BLOCK_STEPS", block)
    windows = solvers._step_windows(steps)
    assert windows[0][0] == 0 and windows[-1][1] == steps
    assert all(a[1] == b[0] for a, b in zip(windows, windows[1:]))
    assert all(k0 % 2 == 0 for k0, _ in windows)
    # at least 3 time rows in every window, unless one step is the grid
    assert all(k1 - k0 >= 2 for k0, k1 in windows) or windows == [(0, 1)]


def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streamed_checks_memory_grows_only_with_the_draw():
    # the bound, fixed before measuring: from 4096 to 16384 steps a check's
    # traced peak may grow by no more than brownian_values_batch's own peak
    # (P paths, m = 1) grows, plus 1 MiB for the O(K) time tables
    n_paths, allowance, ks = 10, 1 << 20, (4096, 16384)
    gentle = dict(_GENTLE, **_V7)

    def draw(k):
        grid = paths.TimeGrid(T=2.0, steps=k)
        return lambda: paths.brownian_values_batch(grid, 1, 1, 0, n_paths)

    def transform(k):
        config = cli.ExperimentConfig(**gentle, dt=2.0 / k)
        return lambda: cli.transform_equivalence_report(config, n_paths, seed=1)

    def variation(k):
        config = cli.ExperimentConfig(**gentle, dt=2.0 / k)
        return lambda: cli.variation_fd_report(config, n_paths, fd_eps=1e-5, seed=1)

    transform(8)(), variation(8)()  # first-call imports and caches
    peaks = {name: [_traced_peak(make(k)) for k in ks]
             for name, make in (("draw", draw), ("transform", transform),
                                ("variation", variation))}
    bound = peaks["draw"][1] - peaks["draw"][0] + allowance
    for name in ("transform", "variation"):
        assert peaks[name][1] - peaks[name][0] <= bound, peaks
