"""Acceptance suite: the nine headline checks, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Every test is deterministic (pinned seeds) and asserts the stated
tolerance and, where one is stated, the runtime budget. Full suite takes
about five minutes single-threaded; the epsilon sweep dominates.
"""

import io
import math
import time

import numpy as np

import oracles
from sde_lab import bounds, bumps, cli, model, montecarlo, paths, solvers


def _line(index: int, ok: bool, detail: str) -> None:
    print(f"[ACCEPTANCE {index}] {'PASS' if ok else 'FAIL'}: {detail}")


def _default_axis() -> model.AxisAlignedModel:
    return model.build_axis_aligned(cli.ExperimentConfig().model_params())


def _default_general() -> model.GeneralModel:
    return model.build_general(_default_axis())


def _gentle_config(**kw) -> cli.ExperimentConfig:
    """Quadratic member on width-1 supports; see notes on criteria 4 and 6."""
    return cli.ExperimentConfig(n=2, tau=1.0, T=2.0, **kw)


def test_headline_1_normal_expectation_lower_bound():
    t0 = time.perf_counter()
    reports = [
        bounds.check_lemma21(bounds.Lemma21Params(p=p, kappa=kappa, eps=math.exp(-k)))
        for p in (1.0, 2.0, 4.0)
        for kappa in (0.1, 1.0, 10.0)
        for k in range(1, 9)
    ]
    elapsed = time.perf_counter() - t0
    worst = max(r.max_violation for r in reports)
    ok = all(r.passed for r in reports) and elapsed < 10.0
    _line(1, ok, f"{len(reports)} (p,kappa,eps) combos, worst margin "
                 f"{worst:.3e} <= 0, {elapsed:.2f}s < 10s")
    assert ok


def test_headline_2_frozen_coordinate_is_standard_normal():
    t0 = time.perf_counter()
    axis = _default_axis()
    var_quad = bounds.stdnorm_variance(axis.g, axis.params.tau)
    report = montecarlo.stdnormality_test(axis, 100_000, 1, steps=2048)
    elapsed = time.perf_counter() - t0
    var_mc = report.params["var"]
    ok = (
        abs(var_quad - 1.0) <= 1e-6
        and 0.97 <= var_mc <= 1.03
        and report.params["ks"] < report.params["ks_critical_1pct"]
        and report.passed
        and elapsed < 60.0
    )
    _line(2, ok, f"quadrature variance {var_quad:.9f} = 1 +- 1e-6, sampled "
                 f"variance {var_mc:.4f} in [0.97, 1.03], KS {report.params['ks']:.5f} "
                 f"< {report.params['ks_critical_1pct']:.5f}, {elapsed:.1f}s < 60s")
    assert ok


def test_headline_3_growth_and_lyapunov_sampling():
    t0 = time.perf_counter()
    report = model.verify_model_bounds(_default_general(), 100_000, 5.0, 5.0, seed=1)
    elapsed = time.perf_counter() - t0
    ok = report.passed and elapsed < 30.0
    _line(3, ok, f"10^5 (x,h,z) draws in radius-5 boxes, zero violations over "
                 f"{report.grid_size} checks, {elapsed:.1f}s < 30s")
    assert ok


def test_headline_4_jacobian_and_variation_consistency():
    axis = _default_axis()
    rng = np.random.default_rng(4)
    worst_jac = 0.0
    for _ in range(1000):
        x = rng.uniform(-2.0, 2.0, size=5)
        x[0] = rng.uniform(-0.25, 1.25)  # cover both bump supports and outside
        exact = model.eval_nu_jacobian(axis, x)
        step = 1e-6 * (1.0 + np.linalg.norm(x))
        fd = oracles.fd_jacobian(lambda xx: model.eval_nu(axis, xx), x, step)
        rel = np.abs(fd - exact) / (1.0 + np.abs(exact))
        worst_jac = max(worst_jac, float(rel.max()))

    report = cli.variation_fd_report(
        _gentle_config(dt=2.0 / 32768), n_paths=20, fd_eps=1e-5, seed=1
    )
    worst_var = report.params["max_rel_error"]
    ok = worst_jac <= 1e-5 and report.passed and worst_var <= 1e-3
    _line(4, ok, f"drift Jacobian vs FD at 10^3 points: {worst_jac:.2e} <= 1e-5; "
                 f"variation vs flow FD on 20 paths: {worst_var:.2e} <= 1e-3")
    assert ok


def test_headline_5_pathwise_sandwich():
    axis = _default_axis()
    grid = paths.TimeGrid(T=axis.params.T, steps=2048)
    schedule = bounds.build_kappa_schedule(axis.f, axis.params.tau, grid.times)
    reports = []
    for eps_index, eps in enumerate((0.2, 0.05, 0.01)):
        w = paths.brownian_values_batch(grid, 1, 1, eps_index * 100, 100)[:, :, 0]
        states = solvers.solve_cascade_batch(axis, grid, w, [0.0, 0.0, 0.0, eps, 0.0])
        for k in range(100):
            reports.append(bounds.sandwich_check(grid, states[k], eps, schedule, n=4))
    worst = max(r.max_violation for r in reports)
    ok = all(r.passed for r in reports)
    _line(5, ok, f"both envelope inequalities on 3 x 100 paths at every grid "
                 f"time t >= tau, worst log-space margin {worst:.3e} <= 0")
    assert ok


def test_headline_6_conjugated_route_equivalence():
    rng = np.random.default_rng(2026)
    details = []
    ok = True
    for d in (5, 7):
        v = rng.uniform(-1.0, 1.0, size=d)
        delta = rng.standard_normal(d)
        delta *= rng.uniform(0.5, 1.5) / np.linalg.norm(delta)
        cfg = _gentle_config(d=d, dt=1.0 / 4096, v=list(v), delta=list(delta))
        report = cli.transform_equivalence_report(cfg, n_paths=50, seed=1)
        p = report.params
        ok = ok and report.passed
        details.append(f"d={d}: max {p['max_distance']:.2e} <= 5e-3, "
                       f"halving ratio {p['halving_ratio']:.2f}")
    _line(6, ok, "; ".join(details))
    assert ok


def test_headline_7_non_hoelder_signature():
    t0 = time.perf_counter()
    cfg = cli.ExperimentConfig()  # n=4, t=0.9, N=10^4, eps = e^-1 .. e^-6
    gm = model.build_general(model.build_axis_aligned(cfg.model_params()))
    result = montecarlo.sweep_epsilon(
        gm, cfg.t_eval, cfg.epsilons(), cfg.n_paths, cli.DEFAULT_SEED,
        q=cfg.q, steps=cfg.steps(), solver="cascade", taming=True, n_threads=1,
    )
    domination = cli.sweep_domination_report(result)
    means = np.array([e.mean for e in result.estimates])
    ses = np.array([e.std_error for e in result.estimates])
    K = result.constants["K"]
    margin = float(np.min(means + 4.0 * ses - K * result.lower_bound_curve))

    slopes = result.local_slopes
    decreasing = bool(np.all(np.diff(slopes) < 0.0))
    ratio = slopes[-1] / slopes[0]

    axis = gm.base
    t_real = result.estimates[0].t  # requested time snapped to the grid
    oracle_means = oracles.oracle_sweep_means(
        axis.f, axis.params.tau, t_real, axis.params.n, result.eps_grid,
        z_nodes=160, rtol=1e-7,
    )
    oracle_slopes = oracles.local_slopes(result.eps_grid, oracle_means)
    gaps = []
    for i in range(len(slopes)):
        se = oracles.paired_slope_se(
            result.eps_grid[i], result.eps_grid[i + 1],
            result.estimates[i], result.estimates[i + 1],
        )
        gaps.append(abs(slopes[i] - oracle_slopes[i]) / se)
    worst_gap = max(gaps)
    elapsed = time.perf_counter() - t0

    ok = (
        result.regime == "non-hoelder"
        and domination.passed
        and margin >= 0.0
        and decreasing
        and ratio <= 0.5
        and worst_gap <= 4.0
        and elapsed < 600.0
    )
    _line(7, ok, f"domination margin {margin:.2e} >= 0, slopes "
                 f"{np.array2string(slopes, precision=3)} strictly decreasing, "
                 f"final/initial {ratio:.3f} <= 0.5, worst slope gap "
                 f"{worst_gap:.2f} sigma <= 4, {elapsed:.0f}s < 600s")
    assert ok


def test_headline_8_log_exponential_domination():
    reports = []
    unconditional_worst = -math.inf
    for c in (0.5, 1.0, 2.0):
        for alpha in (0.5, 1.0, 2.0):
            for beta in (0.25, 0.5, 0.75):
                for R in (0.5, 1.0):
                    K = bounds.hoeldercomp_K(c, R, alpha, beta)
                    assert 0.0 < K <= 1.0
                    prm = bounds.HoelderCompParams(c=c, R=R, alpha=alpha, beta=beta, K=K)
                    r = np.geomspace(1e-12, R, 10_000)
                    r_star = bounds.hoeldercomp_threshold(c, alpha, beta)
                    if 0.0 < r_star <= R:
                        r = np.append(r, r_star)
                    reports.append(bounds.check_hoeldercomp(prm, r))
                    # below the threshold the bound holds without the prefactor
                    y = np.log(r[r <= r_star])
                    if len(y):
                        phi = c * np.abs(y) ** beta + alpha * y
                        unconditional_worst = max(unconditional_worst, float(phi.max()))
    worst = max(r.max_violation for r in reports)
    ok = all(r.passed for r in reports) and unconditional_worst <= 1e-12
    _line(8, ok, f"{len(reports)} (c,alpha,beta,R) combos x 10^4 radii, worst "
                 f"prefactor margin {worst:.3e} <= 0, worst unconditional "
                 f"margin {unconditional_worst:.3e} <= 1e-12")
    assert ok


def test_headline_9_thread_count_determinism():
    cfg = cli.ExperimentConfig(n_paths=2000, eps_grid=[math.exp(-1), math.exp(-2)])
    gm = model.build_general(model.build_axis_aligned(cfg.model_params()))
    outputs = []
    for threads in (1, 2, 7):
        result = montecarlo.sweep_epsilon(
            gm, cfg.t_eval, cfg.epsilons(), cfg.n_paths, 1,
            q=cfg.q, steps=cfg.steps(), solver="cascade", taming=True,
            n_threads=threads,
        )
        buf = io.StringIO()
        montecarlo.sweep_to_csv(result, buf)
        outputs.append(buf.getvalue())
    ok = outputs[0] == outputs[1] == outputs[2]
    _line(9, ok, f"sweep CSV byte-identical across thread counts (1, 2, 7), "
                 f"{len(outputs[0])} bytes")
    assert ok
