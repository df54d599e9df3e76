"""Time-change schedule, lower-bound functional, variance identity,
pathwise envelope, and log-to-power comparison constants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from oracles import gauss_legendre
from sde_lab.bounds import (
    DomainError,
    HoelderCompParams,
    Lemma21Params,
    build_kappa_schedule,
    check_hoeldercomp,
    check_lemma21,
    hoeldercomp_K,
    hoeldercomp_threshold,
    kappa_t,
    lemma21_c,
    lemma21_lhs,
    lemma21_rhs,
    sandwich_check,
    stdnorm_variance,
)
from sde_lab.bumps import BumpFunction, make_normalized_bump
from sde_lab.model import ModelParams, build_axis_aligned
from sde_lab.paths import TimeGrid, brownian_values_batch
from sde_lab.solvers import solve_cascade_batch

# 30-digit-arithmetic reference values for the profile on (0.5, 1)
INT_F = 0.3833828194756589559732
KAPPA_T_FINAL = 0.07349119313455285203674
LHS_P1_K1 = 0.3191103407901299309936  # (p=1, kappa=1, eps=1/e)
LHS_P2_K05 = 0.09755553173680246572397  # (p=2, kappa=0.5, eps=e^-3)


@pytest.fixture(scope="module")
def f_bump():
    return make_normalized_bump(0.5, 1.0)


@pytest.fixture(scope="module")
def g_bump():
    return make_normalized_bump(0.0, 0.5)


def test_lemma21_params_validation():
    with pytest.raises(DomainError, match="p >= 1"):
        Lemma21Params(p=0.5, kappa=1.0, eps=0.1)
    with pytest.raises(DomainError, match="kappa > 0"):
        Lemma21Params(p=1.0, kappa=0.0, eps=0.1)
    with pytest.raises(DomainError, match="eps in"):
        Lemma21Params(p=1.0, kappa=1.0, eps=0.5)  # above 1/e
    with pytest.raises(DomainError, match="eps in"):
        Lemma21Params(p=1.0, kappa=1.0, eps=0.0)


def test_lemma21_constant_closed_form():
    prm = Lemma21Params(p=1.0, kappa=1.0, eps=math.exp(-1))
    assert lemma21_c(prm) == pytest.approx(3.0 + math.sqrt(2.0 * math.pi), rel=1e-15)
    # at eps = 1/e the exponent |ln eps|^(2/p) collapses to 1
    assert lemma21_rhs(prm) == pytest.approx(math.exp(-lemma21_c(prm)), rel=1e-15)


def test_lemma21_lhs_frozen_values():
    v = lemma21_lhs(Lemma21Params(p=1.0, kappa=1.0, eps=math.exp(-1)))
    assert v == pytest.approx(LHS_P1_K1, rel=1e-10)
    v = lemma21_lhs(Lemma21Params(p=2.0, kappa=0.5, eps=math.exp(-3)))
    assert v == pytest.approx(LHS_P2_K05, rel=1e-10)


def test_lemma21_lhs_monte_carlo_oracle():
    # independent estimate of the same expectation from 10^7 normal draws
    prm = Lemma21Params(p=2.0, kappa=0.5, eps=math.exp(-3))
    rng = np.random.default_rng(0)
    z = rng.standard_normal(10_000_000)
    a = prm.kappa * np.abs(z) ** prm.p
    vals = prm.eps * np.exp(a - prm.eps**2 * prm.kappa * np.exp(2.0 * a))
    est = vals.mean()
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(lemma21_lhs(prm) - est) <= 4.0 * se


def test_check_lemma21_subgrid():
    for p in (1.0, 2.0):
        for kappa in (0.1, 10.0):
            for k_eps in (1, 8):
                rep = check_lemma21(Lemma21Params(p, kappa, math.exp(-k_eps)))
                assert rep.passed, rep.params


def test_kappa_t_basics(f_bump):
    assert kappa_t(f_bump, 0.5, 0.5) == 0.0
    with pytest.raises(DomainError, match="t >= tau"):
        kappa_t(f_bump, 0.5, 0.4)
    vals = [kappa_t(f_bump, 0.5, t) for t in (0.6, 0.7, 0.9, 1.0)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_kappa_t_frozen_value(f_bump):
    assert kappa_t(f_bump, 0.5, 1.0) == pytest.approx(KAPPA_T_FINAL, rel=1e-10)


def test_kappa_t_matches_nested_quadrature(f_bump):
    # the analytic collapse against the genuine iterated double integral
    from sde_lab import bumps

    inner = lambda s: integrate.quad(
        lambda u: bumps.eval(f_bump, u, 0), 0.5, s, limit=200
    )[0]
    nested, _ = integrate.quad(
        lambda s: bumps.eval(f_bump, s, 0) * inner(s), 0.5, 1.0, limit=200
    )
    assert kappa_t(f_bump, 0.5, 1.0) == pytest.approx(nested, rel=1e-8)


def test_kappa_schedule_matches_pointwise(f_bump):
    grid = TimeGrid(T=1.0, steps=512)
    kappas = build_kappa_schedule(f_bump, 0.5, grid.times)
    assert kappas[grid.nearest_index(0.5)] == 0.0
    assert np.all(kappas[grid.times <= 0.5] == 0.0)
    assert np.all(np.diff(kappas) >= 0.0)
    for t in (0.6, 0.75, 0.9, 1.0):
        k = grid.nearest_index(t)
        assert kappas[k] == pytest.approx(
            kappa_t(f_bump, 0.5, grid.times[k]), rel=1e-9, abs=1e-12
        )
    assert kappas[-1] == pytest.approx(KAPPA_T_FINAL, rel=1e-9)


def test_stdnorm_variance_is_one(g_bump):
    assert stdnorm_variance(g_bump, 0.5) == pytest.approx(1.0, abs=1e-6)
    narrow = make_normalized_bump(0.1, 0.4)
    assert stdnorm_variance(narrow, 0.5) == pytest.approx(1.0, abs=1e-6)


def test_stdnorm_variance_scales_with_l2_mass(g_bump):
    doubled = BumpFunction(a=g_bump.a, b=g_bump.b, eta=2.0 * g_bump.eta)
    assert stdnorm_variance(doubled, 0.5) == pytest.approx(4.0, abs=1e-5)


def test_stdnorm_variance_equals_l2_norm():
    # integration by parts turns the variance into the squared L2 mass
    from sde_lab import bumps

    odd = BumpFunction(a=0.05, b=0.45, eta=3.3)
    mass = gauss_legendre(lambda t: bumps.eval(odd, t, 0) ** 2, 0.05, 0.45, 400)
    assert stdnorm_variance(odd, 0.5) == pytest.approx(mass, rel=1e-7)


@pytest.mark.parametrize("rows", [1, 7, 64, 333, 800])
def test_stdnorm_variance_bits_do_not_depend_on_the_row_block(monkeypatch, g_bump, rows):
    # each outer node's inner sum is its own row's pairwise sum: the bits of
    # one block of the whole 800 x 800 and 1600 x 1600 grids, short tails too
    from sde_lab import bounds

    narrow = make_normalized_bump(0.1, 0.4)
    monkeypatch.setattr(bounds, "_VARIANCE_ROWS", 1600)
    whole = [stdnorm_variance(g, 0.5) for g in (g_bump, narrow)]
    monkeypatch.setattr(bounds, "_VARIANCE_ROWS", rows)
    assert [stdnorm_variance(g, 0.5) for g in (g_bump, narrow)] == whole
    assert whole[0].hex() == "0x1.ffffffffffd9ep-1"


def test_stdnorm_variance_domain(f_bump):
    with pytest.raises(DomainError, match="not inside"):
        stdnorm_variance(f_bump, 0.5)  # support is (0.5, 1)


def _cascade_paths(eps, seed, idx, count=1, steps=2048):
    axis = build_axis_aligned(ModelParams())
    grid = TimeGrid(T=1.0, steps=steps)
    w = brownian_values_batch(grid, 1, seed, idx, count)[:, :, 0]
    x0 = np.zeros(5)
    x0[3] = eps
    return axis, grid, solve_cascade_batch(axis, grid, w, x0)


def test_sandwich_holds_on_simulated_paths():
    axis, grid, states = _cascade_paths(0.05, seed=101, idx=0, count=5)
    rep = sandwich_check(axis, grid, states, 0.05)
    assert rep.passed, rep.params
    assert rep.max_violation <= 0.0
    assert rep.grid_size == 5 * (2048 - grid.nearest_index(0.5) + 1)


def test_sandwich_batch_is_the_worst_single_path():
    axis, grid, states = _cascade_paths(0.05, seed=101, idx=0, count=6)
    batch = sandwich_check(axis, grid, states, 0.05)
    singles = [sandwich_check(axis, grid, states[k : k + 1], 0.05) for k in range(6)]
    assert batch.max_violation == max(r.max_violation for r in singles)
    assert batch.grid_size == sum(r.grid_size for r in singles)
    # a failing batch names the worst path, its Z and the time of its margin
    k_tau = grid.nearest_index(0.5)
    bad = states.copy()
    bad[4, k_tau + 300 :, 3] *= 1.01
    rep = sandwich_check(axis, grid, bad, 0.05)
    assert not rep.passed
    assert rep.params["worst_path"] == 4
    assert rep.params["z"] == states[4, k_tau, 2]
    assert rep.params["worst_t"] >= grid.times[k_tau + 300]
    assert rep.max_violation == sandwich_check(axis, grid, bad[4:5], 0.05).max_violation


def test_sandwich_value_at_tau_is_eps():
    axis, grid, states = _cascade_paths(0.2, seed=102, idx=0)
    k_tau = grid.nearest_index(0.5)
    # both envelope sides collapse to eps at tau, and the path sits there
    assert states[0, k_tau, 3] == 0.2
    assert build_kappa_schedule(axis.f, 0.5, grid.times)[k_tau] == 0.0


def test_sandwich_eps_zero():
    axis, grid, states = _cascade_paths(0.0, seed=103, idx=0)
    rep = sandwich_check(axis, grid, states, 0.0)
    assert rep.passed
    assert rep.max_violation == 0.0


def test_sandwich_detects_tampering():
    axis, grid, states = _cascade_paths(0.05, seed=104, idx=0)
    k_tau = grid.nearest_index(0.5)
    bad = states.copy()
    bad[0, k_tau + 1 :, 3] *= 1.01  # push above the upper envelope
    rep = sandwich_check(axis, grid, bad, 0.05)
    assert not rep.passed
    assert rep.max_violation > 0.0
    assert "worst_t" in rep.params


@pytest.mark.parametrize("eps, coord, offset", [(0.05, 3, 7), (0.0, 3, 7), (0.05, 2, 0)])
def test_sandwich_fails_on_non_finite_states(eps, coord, offset):
    # X4 after tau, or Z = X3(tau); Z does not enter the eps = 0 check
    axis, grid, states = _cascade_paths(eps, seed=106, idx=0)
    bad = states.copy()
    bad[0, grid.nearest_index(0.5) + offset, coord] = np.nan
    rep = sandwich_check(axis, grid, bad, eps)
    assert not rep.passed


def test_sandwich_grid_mismatch():
    axis, grid, states = _cascade_paths(0.05, seed=105, idx=0)
    with pytest.raises(ValueError, match="does not match grid"):
        sandwich_check(axis, grid, states[:, :-1], 0.05)
    with pytest.raises(ValueError, match="does not match grid"):
        sandwich_check(axis, grid, states[0], 0.05)  # one path needs its batch axis


def test_hoeldercomp_threshold_closed_form():
    assert hoeldercomp_threshold(1.0, 1.0, 0.5) == pytest.approx(
        math.exp(-1.0), rel=1e-14
    )
    # (c/alpha)^(1/(1-beta)) = 2^2 = 4
    assert hoeldercomp_threshold(2.0, 1.0, 0.5) == pytest.approx(
        math.exp(-4.0), rel=1e-14
    )


def test_hoeldercomp_threshold_domain():
    with pytest.raises(DomainError, match="beta in"):
        hoeldercomp_threshold(1.0, 1.0, 1.5)
    with pytest.raises(DomainError, match="c > 0"):
        hoeldercomp_threshold(-1.0, 1.0, 0.5)
    with pytest.raises(DomainError, match="overflows"):
        hoeldercomp_threshold(8.0, 1.0, 0.999)


def test_hoeldercomp_K_quarter_exponent():
    # c=alpha=1, beta=1/2 on (0,1]: max of sqrt|y|+y at |y|=1/4 gives e^{-1/4}
    assert hoeldercomp_K(1.0, 1.0, 1.0, 0.5) == pytest.approx(
        math.exp(-0.25), rel=1e-9
    )


def test_hoeldercomp_K_matches_finer_grid():
    got = hoeldercomp_K(1.0, 1.0, 1.0, 0.5)
    y_star = -1.0
    ys = np.linspace(y_star, 0.0, 100_000)
    phi = np.abs(ys) ** 0.5 + ys
    brute = min(1.0, math.exp(-float(phi.max())))
    assert got == pytest.approx(brute, rel=1e-4)


def test_hoeldercomp_K_is_one_for_tiny_range():
    # r* = e^{-1} far above R: the comparison holds with K = 1 everywhere
    assert hoeldercomp_K(1.0, 1e-6, 1.0, 0.5) == 1.0


def test_hoeldercomp_params_validation():
    with pytest.raises(DomainError, match="beta"):
        HoelderCompParams(c=1.0, R=1.0, alpha=1.0, beta=1.0, K=0.5)
    with pytest.raises(DomainError, match="K in"):
        HoelderCompParams(c=1.0, R=1.0, alpha=1.0, beta=0.5, K=0.0)
    with pytest.raises(DomainError, match="K in"):
        HoelderCompParams(c=1.0, R=1.0, alpha=1.0, beta=0.5, K=2.0)


def test_check_hoeldercomp_passes_with_computed_K():
    c, R, alpha, beta = 1.0, 1.0, 1.0, 0.5
    K = hoeldercomp_K(c, R, alpha, beta)
    prm = HoelderCompParams(c=c, R=R, alpha=alpha, beta=beta, K=K)
    r = np.exp(np.linspace(math.log(1e-8), math.log(R), 10_000))
    r = np.append(r, hoeldercomp_threshold(c, alpha, beta))
    rep = check_hoeldercomp(prm, r)
    assert rep.passed, rep.params
    assert rep.grid_size == len(r)


def test_check_hoeldercomp_rejects_bad_grid():
    prm = HoelderCompParams(c=1.0, R=1.0, alpha=1.0, beta=0.5, K=0.5)
    with pytest.raises(DomainError, match="r grid"):
        check_hoeldercomp(prm, np.array([0.5, 1.5]))
    with pytest.raises(DomainError, match="r grid"):
        check_hoeldercomp(prm, np.array([0.0, 0.5]))


def test_check_hoeldercomp_detects_oversized_K():
    c, R, alpha, beta = 1.0, 1.0, 1.0, 0.5
    K = hoeldercomp_K(c, R, alpha, beta)
    prm = HoelderCompParams(c=c, R=R, alpha=alpha, beta=beta, K=min(1.0, 1.1 * K))
    r = np.exp(np.linspace(math.log(1e-4), math.log(R), 5_000))
    assert not check_hoeldercomp(prm, r).passed


@given(
    st.floats(0.1, 4.0),
    st.floats(0.5, 4.0),
    st.floats(0.1, 0.75),
    st.floats(0.1, 1.0),
)
@settings(max_examples=60, deadline=None)
def test_hoeldercomp_K_in_unit_interval(c, alpha, beta, R):
    K = hoeldercomp_K(c, R, alpha, beta)
    assert 0.0 < K <= 1.0
    thr = hoeldercomp_threshold(c, alpha, beta)
    assert 0.0 <= thr < 1.0
