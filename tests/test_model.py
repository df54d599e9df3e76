"""Drift evaluation, Jacobians, Lyapunov functions, affine conjugation."""

import tracemalloc

import numpy as np
import pytest

import oracles
from sde_lab import bumps, model
from sde_lab.model import (
    GeneralModel,
    InvalidDirectionError,
    ModelParams,
    build_axis_aligned,
    build_general,
    embedded_V,
    eval_general_V,
    eval_mu,
    eval_mu_jacobian,
    eval_nu,
    eval_nu_jacobian,
    eval_U,
    eval_U_grad,
    frobenius_bound_check,
    householder_to,
    log_growth_rhs,
    verify_jacobian_growth,
    verify_lyapunov,
    verify_model_bounds,
)


@pytest.fixture(scope="module")
def axis():
    return build_axis_aligned(ModelParams())


@pytest.fixture(scope="module")
def general(axis):
    return build_general(axis)


def test_params_validation():
    with pytest.raises(ValueError, match="integer >= 2"):
        ModelParams(n=1)
    with pytest.raises(ValueError, match="tau < T"):
        ModelParams(tau=1.0, T=1.0)
    with pytest.raises(ValueError, match="dimension must be >= 5"):
        ModelParams(d=4)
    with pytest.raises(ValueError, match="noise dimension"):
        ModelParams(m=0)
    with pytest.raises(ValueError, match="p >= 1"):
        ModelParams(p=0.5)
    with pytest.raises(ValueError, match="q >= 2"):
        ModelParams(n=4, p=1.0, q=7.0)
    with pytest.raises(ValueError, match="length d"):
        ModelParams(d=5, v=np.zeros(4))
    with pytest.raises(InvalidDirectionError):
        ModelParams(delta=np.zeros(5))


def test_params_defaults():
    prm = ModelParams(n=3, p=2.0)
    assert prm.q == 12.0  # 2*p*n
    assert np.array_equal(prm.v, np.zeros(5))
    expected = np.zeros(5)
    expected[3] = 1.0
    assert np.array_equal(prm.delta, expected)
    assert not prm.v.flags.writeable


def test_envelope_constant_formula():
    m4 = build_axis_aligned(ModelParams(n=4))
    assert m4.C >= 1.0
    assert m4.varkappa == pytest.approx(2.0 + 40.0 * m4.C, rel=1e-14)
    m2 = build_axis_aligned(ModelParams(n=2))
    assert m2.varkappa == pytest.approx(2.0 + 24.0 * m2.C, rel=1e-14)


def test_nu_at_origin(axis):
    assert np.array_equal(eval_nu(axis, np.zeros(5)), [1, 0, 0, 0, 0])


def test_nu_outside_supports(axis):
    # x1 outside both supports kills components 3..5
    for x1 in (-1.0, 0.0, 1.0, 2.0):
        x = np.array([x1, 2.0, 3.0, 4.0, 5.0])
        out = eval_nu(axis, x)
        assert out[0] == 1.0 and out[1] == 0.0
        assert np.array_equal(out[2:], [0.0, 0.0, 0.0])


def test_nu_drift_component_values(axis):
    out = eval_nu(axis, np.array([0.25, 1.0, 0.0, 0.0, 0.0]))
    assert np.array_equal(out, [1.0, 0.0, bumps.eval(axis.g, 0.25, 1), 0.0, 0.0])
    # a point inside supp f with every product term active
    x = np.array([0.7, 2.0, 0.5, 1.5, -0.5])
    fx = bumps.eval(axis.f, 0.7, 0)
    out = eval_nu(axis, x)
    assert out[3] == pytest.approx(fx * 1.5 * (-0.5), rel=1e-14)
    assert out[4] == pytest.approx(fx * (0.5**4 - 1.5**2), rel=1e-14)


def test_nu_batched_evaluation(axis):
    rng = np.random.default_rng(1)
    xs = rng.uniform(-2, 2, size=(7, 3, 5))
    batched = eval_nu(axis, xs)
    for i in range(7):
        for j in range(3):
            assert np.array_equal(batched[i, j], eval_nu(axis, xs[i, j]))


def test_jacobian_zero_at_origin(axis):
    assert np.array_equal(eval_nu_jacobian(axis, np.zeros(5)), np.zeros((5, 5)))


def test_jacobian_first_two_rows_vanish(axis):
    rng = np.random.default_rng(2)
    x = rng.uniform(-3, 3, size=(50, 5))
    jac = eval_nu_jacobian(axis, x)
    assert np.all(jac[:, 0, :] == 0.0)
    assert np.all(jac[:, 1, :] == 0.0)


def test_jacobian_matches_finite_differences(axis):
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.uniform(-2.0, 2.0, size=5)
        step = 1e-6 * (1.0 + np.linalg.norm(x))
        fd = oracles.fd_jacobian(lambda y: eval_nu(axis, y), x, step)
        exact = eval_nu_jacobian(axis, x)
        tol = 1e-5 * np.maximum(1.0, np.abs(exact))
        assert np.all(np.abs(fd - exact) <= tol)


def test_U_at_origin(axis):
    assert eval_U(axis, np.zeros(5)) == 2.0


def test_U_dominates_norm(axis):
    rng = np.random.default_rng(4)
    x = rng.uniform(-5, 5, size=(500, 5))
    assert np.all(np.linalg.norm(x, axis=1) <= eval_U(axis, x))


def test_U_grad_matches_finite_differences(axis):
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.uniform(-2.0, 2.0, size=5)
        for p, q in ((1.0, 8.0), (2.0, 16.0)):
            # wide step: the value is O(100), so a tiny step drowns the
            # small gradient components in cancellation noise
            fd = oracles.fd_jacobian(lambda y: eval_U(axis, y, p, q), x, 1e-3)
            exact = eval_U_grad(axis, x, p, q)
            assert fd == pytest.approx(exact, rel=1e-6, abs=1e-8)


def test_embedding_dimension_five_is_identity(axis):
    x = np.array([0.7, 1.0, -0.5, 0.3, 2.0])
    assert np.array_equal(eval_mu(build_general(axis), x), eval_nu(axis, x))
    assert embedded_V(axis, x) == eval_U(axis, x) + 1.0
    # identity conjugation: the noise enters the second coordinate only
    assert np.array_equal(build_general(axis).sigma[:, 0], [0, 1, 0, 0, 0])


def test_embedding_dimension_seven():
    axis7 = build_axis_aligned(ModelParams(d=7))
    x = np.array([0.7, 1.0, -0.5, 0.3, 2.0, 3.0, 3.0])
    out = eval_mu(build_general(axis7), x)  # B = I: the drift in R^7 itself
    assert np.array_equal(out[5:], [0.0, 0.0])
    assert np.array_equal(out[:5], eval_nu(axis7, x[:5]))
    assert embedded_V(axis7, x) == eval_U(axis7, x[:5]) + 18.0 + 1.0


def test_embedding_dimension_six_origin():
    axis6 = build_axis_aligned(ModelParams(d=6))
    assert embedded_V(axis6, np.zeros(6)) == 3.0


def test_householder_swaps_coordinates():
    target = np.zeros(5)
    target[4] = 1.0
    A = householder_to(target)
    expected = np.eye(5)
    expected[3, 3] = expected[4, 4] = 0.0
    expected[3, 4] = expected[4, 3] = 1.0
    # the reflection arithmetic leaves ~1e-16 residue on the swapped block
    assert np.allclose(A, expected, atol=1e-15)


def test_householder_identity_when_aligned():
    target = np.zeros(5)
    target[3] = 1.0
    assert np.array_equal(householder_to(target), np.eye(5))


def test_build_general_invariants():
    rng = np.random.default_rng(6)
    d = 6
    prm = ModelParams(
        d=d, v=rng.uniform(-1, 1, d), delta=rng.uniform(-1, 1, d)
    )
    gm = build_general(build_axis_aligned(prm))
    eye = np.eye(d)
    assert np.allclose(gm.A.T @ gm.A, eye, atol=1e-12)
    assert np.allclose(gm.B @ gm.Binv, eye, atol=1e-12)
    u = np.zeros(d)
    u[3] = 1.0
    dnorm = np.linalg.norm(prm.delta)
    assert np.allclose(gm.A @ u, prm.delta / dnorm, atol=1e-12)
    x = rng.standard_normal((100, d))
    got = np.linalg.norm(x @ gm.B.T, axis=1)
    want = dnorm * np.linalg.norm(x, axis=1)
    assert np.allclose(got, want, rtol=1e-12)
    # noise enters only through column 1 = B applied to the 2nd unit vector
    sigma0 = np.zeros(d)
    sigma0[1] = 1.0
    assert np.allclose(gm.sigma[:, 0], gm.B @ sigma0, atol=1e-14)
    assert gm.sigma.shape == (d, prm.m)


def test_build_general_identity_case(general):
    # default delta = u, v = 0: the conjugation is trivial
    assert np.array_equal(general.A, np.eye(5))
    assert np.array_equal(general.B, np.eye(5))
    x = np.array([0.7, 1.0, -0.5, 0.3, 2.0])
    assert np.array_equal(eval_mu(general, x), eval_nu(general.base, x))


def test_eval_mu_conjugation_identity():
    rng = np.random.default_rng(7)
    d = 5
    prm = ModelParams(d=d, v=rng.uniform(-1, 1, d), delta=rng.uniform(-1, 1, d))
    gm = build_general(build_axis_aligned(prm))
    for _ in range(50):
        y = rng.uniform(-1, 1, d)
        x = gm.B @ y + prm.v
        assert np.allclose(eval_mu(gm, x), gm.B @ eval_nu(gm.base, y), atol=1e-9)
    assert np.allclose(eval_mu(gm, prm.v), gm.B @ eval_nu(gm.base, np.zeros(d)))


@pytest.mark.parametrize("d", [5, 7, 9])
def test_eval_mu_is_the_padded_drift_bit_for_bit(d):
    # nu~ is zero beyond the fifth coordinate, so the 5-column block B[:, :5]
    # gives the bits of the zero-padded product pad(nu(y[:5])) @ B.T on any
    # input of two or more rows
    rng = np.random.default_rng(40 + d)
    prm = ModelParams(d=d, v=rng.uniform(-1, 1, d), delta=rng.uniform(-1, 1, d))
    gm = build_general(build_axis_aligned(prm))
    for shape in [(2, d), (17, d), (3, 2, d), (2, 9, d)]:
        x = rng.uniform(-2, 2, shape)
        y = (x - prm.v) @ gm.Binv.T
        padded = np.zeros_like(y)
        padded[..., :5] = eval_nu(gm.base, y[..., :5])
        assert np.array_equal(eval_mu(gm, x), padded @ gm.B.T)


def test_eval_mu_jacobian_chain_rule():
    rng = np.random.default_rng(8)
    d = 5
    prm = ModelParams(d=d, v=rng.uniform(-1, 1, d), delta=rng.uniform(-1, 1, d))
    gm = build_general(build_axis_aligned(prm))
    for _ in range(5):
        x = rng.uniform(-1.5, 1.5, d)
        step = 1e-6 * (1.0 + np.linalg.norm(x))
        fd = oracles.fd_jacobian(lambda z: eval_mu(gm, z), x, step)
        exact = eval_mu_jacobian(gm, x)
        tol = 1e-5 * np.maximum(1.0, np.abs(exact))
        assert np.all(np.abs(fd - exact) <= tol)


def _einsum_mu_jacobian(gm, x):
    """Reference conjugation: B nu~' B^{-1} as one three-operand einsum over
    the zero-padded (..., d, d) Jacobian of the embedded drift."""
    x = np.asarray(x, dtype=float)
    d = gm.params.d
    y = (x - gm.params.v) @ gm.Binv.T
    jn = np.zeros(x.shape[:-1] + (d, d))
    jn[..., :5, :5] = eval_nu_jacobian(gm.base, y[..., :5])
    return np.einsum("ij,...jk,kl->...il", gm.B, jn, gm.Binv)


def _jacobian_block(rng, gm):
    """A (257, 20, d) block of states, time leading, as solve_variation_batch
    passes them: x1 sweeps both bump supports, the rest are O(1) in cascade
    coordinates, mapped to R^d by x = B y + v."""
    d = gm.params.d
    y = 2.0 * rng.standard_normal((257, 20, d))
    y[..., 0] = np.linspace(-0.1, 1.1 * gm.params.T, 257)[:, None]
    return y @ gm.B.T + gm.params.v


@pytest.mark.parametrize("d", [5, 7])
def test_mu_jacobian_is_the_reference_bit_for_bit_when_B_is_identity(d):
    gm = build_general(build_axis_aligned(ModelParams(d=d, v=np.full(d, 0.25))))
    assert np.array_equal(gm.B, np.eye(d))
    x = _jacobian_block(np.random.default_rng(20 + d), gm)
    for row, (i, val) in enumerate(
        [(2, np.inf), (3, -np.inf), (4, np.nan), (2, 1e200), (0, np.nan), (1, 1e200),
         (3, -1e200), (4, np.inf)]
    ):
        x[40 + 20 * row, row, i] = val
    x[250, :, 2:] = 1e200
    with np.errstate(all="ignore"):
        got = eval_mu_jacobian(gm, x)
        want = _einsum_mu_jacobian(gm, x)
    assert got.shape == (257, 20, d, d)
    assert np.isnan(want).any() and np.isinf(want).any()
    assert np.array_equal(got, want, equal_nan=True)
    # same signs of zero too: bit for bit wherever the value is not NaN
    num = ~np.isnan(want)
    assert np.array_equal(np.signbit(got[num]), np.signbit(want[num]))


@pytest.mark.parametrize("d", [5, 6, 7, 8])
def test_mu_jacobian_agrees_with_the_reference_for_general_B(d):
    rng = np.random.default_rng(30 + d)
    prm = ModelParams(d=d, v=rng.uniform(-1, 1, d), delta=rng.uniform(-1, 1, d))
    gm = build_general(build_axis_aligned(prm))
    x = _jacobian_block(rng, gm)
    got = eval_mu_jacobian(gm, x)
    want = _einsum_mu_jacobian(gm, x)
    scale = np.max(np.abs(want), axis=(-2, -1), keepdims=True)
    assert np.all(np.abs(got - want) <= 1e-14 * scale)
    assert np.count_nonzero(scale) > 100  # most matrices are nonzero


def test_general_V_dominates_norm():
    rng = np.random.default_rng(9)
    d = 6
    prm = ModelParams(d=d, v=rng.uniform(-1, 1, d), delta=rng.uniform(-1, 1, d))
    gm = build_general(build_axis_aligned(prm))
    x = rng.uniform(-3, 3, size=(500, d))
    assert np.all(np.linalg.norm(x, axis=1) <= eval_general_V(gm, x))


def test_log_growth_rhs_matches_direct_formula():
    # log_kappa = 0 is the kappa = 1 envelope: kappa(1 + r^kappa) = 1 + r
    for r in (0.5, 1.0, 2.0):
        got = log_growth_rhs(0.0, np.array([np.log(r)]))[0]
        assert got == pytest.approx(np.log(1.0 + r), rel=1e-14)


def test_log_growth_rhs_saturates():
    out = log_growth_rhs(800.0, np.array([np.log(2.0), -np.log(2.0), 0.0]))
    assert out[0] == np.inf  # growing direction saturates up
    assert out[1] == 800.0  # shrinking direction: kappa * (1 + 0)
    assert out[2] == pytest.approx(800.0 + np.log(2.0))


def test_verify_jacobian_growth_passes(axis, general):
    rep = verify_jacobian_growth(axis, trials=3000, box_radius=5.0, seed=0)
    assert rep.passed
    assert rep.params["max_ratio"] <= 1.0
    rep = verify_jacobian_growth(general, trials=3000, box_radius=5.0, seed=1)
    assert rep.passed


def test_verify_lyapunov_passes(axis, general):
    rep = verify_lyapunov(axis, trials=3000, box_radius=5.0, z_radius=5.0, seed=0)
    assert rep.passed
    assert rep.params["norm_le_V"]
    rep = verify_lyapunov(general, trials=3000, box_radius=5.0, z_radius=5.0, seed=1)
    assert rep.passed


def test_frobenius_bound_check():
    assert frobenius_bound_check(np.eye(5), 1000).passed
    assert frobenius_bound_check(np.zeros((5, 5)), 100).passed
    rng = np.random.default_rng(10)
    assert frobenius_bound_check(rng.standard_normal((5, 5)), 1000).passed


def test_verify_model_bounds_bundle(general):
    rep = verify_model_bounds(general, trials=2000, box_radius=5.0, z_radius=5.0)
    assert rep.passed
    assert rep.check == "model_bounds"
    assert len(rep.params) == 5  # four inequality checks plus the matrix-norm one
    assert rep.grid_size == 5 * 2000  # total samples across sub-checks


def test_general_model_params_passthrough(general):
    assert isinstance(general, GeneralModel)
    assert general.params is general.base.params
    assert np.isfinite(general.log_kappa)


_V7 = dict(d=7, v=[0.4, -0.3, 0.2, 0.1, -0.5, 0.3, 0.6], delta=[0.7, 0.2, -0.4, 0.3, 0.1, -0.2, 0.5])
_M2 = dict(d=6, m=2, v=[0.3, -0.2, 0.5, 0.1, -0.4, 0.2], delta=[-0.6, 0.4, 0.1, 0.8, -0.3, 0.2])


@pytest.mark.parametrize("kw", [{}, _V7, _M2], ids=["d5", "d7", "d6-m2"])
def test_sampled_checks_are_block_size_invariant(monkeypatch, kw):
    # every report byte is that of one block of all trials, counterexamples
    # included (at radius 1e70 both Lyapunov checks meet NaN and fail); 11,
    # 13 and 4097 leave a one-row tail for some block size
    gm = build_general(build_axis_aligned(ModelParams(**kw)))

    def report(block, trials, radius):
        monkeypatch.setattr(model, "_BLOCK", block)
        with np.errstate(all="ignore"):
            return verify_model_bounds(gm, trials, radius, 5.0, seed=trials).to_json()

    for trials in (2, 3, 11, 13):
        for radius in (5.0, 1e70):
            whole = report(trials, trials, radius)
            assert all(report(block, trials, radius) == whole for block in (2, 3, 5, 4096))
    assert report(4096, 4097, 5.0) == report(4097, 4097, 5.0)
    assert report(model._BLOCK, 1, 5.0) == report(1, 1, 5.0)


def test_block_row_slices_never_leave_a_lone_row(monkeypatch):
    monkeypatch.setattr(model, "_BLOCK", 3)
    sizes = {n: [s.stop - s.start for s in model._blocks(n)] for n in range(1, 12)}
    assert sizes[1] == [1] and sizes[4] == [4] and sizes[7] == [3, 4] and sizes[9] == [3, 3, 3]
    for n, blocks in sizes.items():
        assert sum(blocks) == n and (n == 1 or min(blocks) >= 2) and max(blocks) <= 4


def test_mu_jacobian_two_row_slices_are_the_batch_rows():
    # the blocks of the sampled checks hold two rows or more: a lone row may
    # take numpy's matrix-vector route, with other bits
    gm = build_general(build_axis_aligned(ModelParams(**_V7)))
    x = np.random.default_rng(7).uniform(-5.0, 5.0, (586, 7))
    batch = eval_mu_jacobian(gm, x)
    for start in (0, 1):
        for i in range(start, 585, 2):
            assert np.array_equal(eval_mu_jacobian(gm, x[i:i + 2]), batch[i:i + 2])


def test_sampled_general_checks_fail_on_nan():
    # at radius 1e100 every left-hand side is NaN (inf * 0 in the drift):
    # nothing was shown to hold, so neither check passes
    gm = build_general(build_axis_aligned(ModelParams()))
    with np.errstate(all="ignore"):
        reps = [verify_lyapunov(gm, 200, 1e100, 5.0, seed=3),
                verify_jacobian_growth(gm, 200, 1e100, seed=3)]
    for rep in reps:
        assert not rep.passed and np.isnan(rep.max_violation)
        assert "counterexample" in rep.params


def test_verify_model_bounds_memory_is_the_draws_plus_one_block():
    # the bound is fixed before measuring: the draws x and h of the widest
    # check, 2 * trials * d doubles, plus room for eight (_BLOCK, d, d)
    # Jacobian stacks, which does not grow with trials
    gm = build_general(build_axis_aligned(ModelParams()))
    trials, d = 40_000, gm.params.d
    bound = 2 * trials * d * 8 + 8 * model._BLOCK * d * d * 8
    tracemalloc.start()
    try:
        assert verify_model_bounds(gm, trials, 5.0, 5.0, seed=0).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound


def test_build_general_rejects_non_finite_norms():
    with pytest.raises(InvalidDirectionError, match="delta must have a finite norm"):
        build_general(build_axis_aligned(ModelParams(delta=[0.0, 0.0, 0.0, 1e200, 0.0])))
    with pytest.raises(ValueError, match="v must have a finite norm"):
        build_general(build_axis_aligned(ModelParams(v=[0.0, 0.0, 0.0, 1e200, 0.0])))
