"""Seed-free per-path certificates on the default sweep's paths.

Past tau the third coordinate is frozen at Z = X3(tau), so each path's
state at t, and each sweep distance, is a deterministic function of Z. Three
checks then hold path by path, whatever the sample size:

- first integral: H = x5^2 + x4^2 - 2 a ln x4 with a = Z^n is conserved by
  the exact flow (derived in ``oracles``), so its drift at t measures the
  package's RK4 on that path;
- pathwise distance: each sweep distance against ``oracles.node_distances``
  at the path's Z;
- envelope: ``bounds.sandwich_check`` on the paths' full solves.

The first two bounds come from a dt-halving run of the package's own solver
at each path's Z (zero noise, with X3 started at Z), not from the errors
seen at one seed.
"""

import numpy as np

import oracles
from sde_lab import bounds, cli, montecarlo, paths, solvers

N_PATHS = 256  # the first paths of the default sweep at cli.DEFAULT_SEED
ORACLE_RTOL = 1e-9  # per-node accuracy of node_distances (tests/test_oracles.py)
ROUNDING = 1e-12  # relative floor for H, far above the rounding of its terms


def _zero_noise_pairs(axis, steps, t, z, eps_grid):
    """(x4, x5) at t of the package's cascade RK4 from (0, 0, z, eps, 0) for
    every eps in eps_grid and every z, each of shape (len(eps_grid), len(z)),
    with no noise: X3 then stays at z, as it does past tau. Two epsilons per
    solve keep its (starts, steps) arrays near 100 MB at dt/2."""
    grid = paths.TimeGrid(T=axis.params.T, steps=steps)
    k_obs = grid.nearest_index(t)
    assert grid.times[k_obs] == t  # t lies on both grids of the halving run
    starts = np.zeros((len(eps_grid), len(z), 5))
    starts[:, :, 2] = z
    starts[:, :, 3] = np.asarray(eps_grid)[:, None]
    w = np.zeros((1, k_obs + 1))
    obs = np.concatenate([
        solvers.solve_cascade_observed(axis, grid, w, block.reshape(-1, 5), k_obs)
        for block in np.split(starts, range(2, len(starts), 2))
    ])
    return obs[:, 0, 3:].reshape(len(eps_grid), len(z), 2).transpose(2, 0, 1)


def _first_integral(a, x4, x5):
    return x5**2 + x4**2 - 2.0 * a * np.log(x4)


def test_default_sweep_paths_pass_all_three_certificates():
    cfg = cli.ExperimentConfig()
    gm = cli._build_general(cfg)
    axis, n, steps = gm.base, cfg.n, cfg.steps()
    eps_grid = cfg.epsilons()
    grid = paths.TimeGrid(T=cfg.T, steps=steps)
    k_obs = grid.nearest_index(cfg.t_eval)
    t = float(grid.times[k_obs])
    sweep = montecarlo.sweep_epsilon(gm, cfg.t_eval, eps_grid, N_PATHS, cli.DEFAULT_SEED, steps=steps)
    assert sweep.estimates[0].t == t

    # the sweep's own paths: Z, X4 and X5 at t for every start (B is the identity)
    w = paths.brownian_values_batch(grid, 1, cli.DEFAULT_SEED, 0, N_PATHS)[:, :, 0]
    starts = np.zeros((len(eps_grid) + 1, 5))
    starts[1:, 3] = eps_grid
    obs = solvers.solve_cascade_observed(axis, grid, w, starts, k_obs)
    z = obs[0, :, 2]
    a = z**n

    # the same pair at each path's Z, with no noise, at dt and at dt/2
    half = 2 * steps
    h, d = {}, {}
    for s in (steps, half):
        x4, x5 = _zero_noise_pairs(axis, s, t, z, [0.0, *eps_grid])
        h[s] = _first_integral(a, x4[1:], x5[1:])
        d[s] = np.hypot(x4[1:], x5[0] - x5[1:])
    eps = np.asarray(eps_grid)[:, None]
    h0 = eps**2 - 2.0 * a * np.log(eps)  # H at tau, where the path starts at (eps, 0)

    # RK4 is order 4: halving dt divides the drift of H by about 16
    drift_dt, drift_half = (np.abs(h[s] - h0) / h0 for s in (steps, half))
    resolved = drift_dt > 100.0 * ROUNDING
    ratio = np.median(drift_dt[resolved] / drift_half[resolved])
    assert 14.0 <= ratio <= 18.0, ratio

    # first integral: each sweep path's drift is within twice the Richardson
    # estimate |H(dt) - H(dt/2)| of the RK4 error at its Z
    drift = np.abs(_first_integral(a, obs[1:, :, 3], obs[1:, :, 4]) - h0) / h0
    h_bound = 2.0 * np.abs(h[steps] - h[half]) / h0 + ROUNDING
    assert np.all(drift <= h_bound), np.max(drift / h_bound)

    # pathwise distance: the RK4 error bound as above, plus twice the
    # oracle's own tolerance
    dist = np.array([est.distances for est in sweep.estimates])
    oracle = oracles.node_distances(axis.f, axis.params.tau, t, n, eps_grid, z, ORACLE_RTOL)
    d_bound = 2.0 * np.abs(d[steps] - d[half]) + 2.0 * ORACLE_RTOL * oracle
    assert np.all(np.abs(dist - oracle) <= d_bound), np.max(np.abs(dist - oracle) / d_bound)

    # envelope: every path's full solve, one epsilon at a time, and the
    # eps = 0 reference, whose X4 stays exactly 0
    for e in [0.0, *eps_grid]:
        states = solvers.solve_cascade_batch(axis, grid, w, [0.0, 0.0, 0.0, e, 0.0])
        rep = bounds.sandwich_check(axis, grid, states, e)
        assert rep.passed, rep.params
