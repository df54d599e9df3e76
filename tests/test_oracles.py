"""The sweep oracle: the stacked intrinsic-time solve against scalar references,
its first integral, and its z quadrature."""

import math

import numpy as np
import pytest

import oracles
from sde_lab import cli, model
from sde_lab.model import ModelParams

T_OBS = 0.9
EPS = [math.exp(-k) for k in range(1, 7)] + [0.0]
# z -> 0 (a = z^n far below eps^2), |z| up to the quadrature's span of 7, and
# for odd n negative z, where a < 0 and x4 decays
Z_NODES = {
    4: [2e-4, 1e-3, 0.01, 0.05, 0.3, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0],
    3: [-7.0, -3.0, -1.0, -0.05, -1e-3, 1e-3, 0.05, 1.0, 3.0, 7.0],
}


@pytest.fixture(scope="module")
def scalar_reference():
    """Per-node distances from one scalar DOP853 solve in t per (eps, z)."""
    out = {}
    for n, z in Z_NODES.items():
        axis = model.build_axis_aligned(ModelParams(n=n))
        f, tau = axis.f, axis.params.tau
        out[n] = np.array([
            [oracles.pair_ode_distance(f, zj**n, tau, T_OBS, e, rtol=1e-12, atol=1e-15)
             if e else 0.0 for zj in z]
            for e in EPS
        ])
    return out


@pytest.mark.parametrize("rtol", [1e-7, 1e-9])
@pytest.mark.parametrize("n", [4, 3])
def test_stacked_distances_match_scalar_reference(scalar_reference, n, rtol):
    axis = model.build_axis_aligned(ModelParams(n=n))
    d = oracles.node_distances(axis.f, axis.params.tau, T_OBS, n, EPS, Z_NODES[n], rtol)
    ref = scalar_reference[n]
    assert np.all(d[-1] == 0.0)  # eps = 0
    assert np.max(np.abs(d[:-1] / ref[:-1] - 1.0)) <= rtol


def test_scalar_reference_matches_high_precision_twin():
    # n = 3, z = -7, eps = e^-6: x4 decays to 3e-14 and the distance is
    # q = 2.9e-7 next to x5 = -131, so reading it as a S - x5 from
    # pair_ode_final would leave about 5.6e-6 of relative error
    axis = model.build_axis_aligned(ModelParams(n=3))
    twin = 2.940113489041141705894778e-7  # 40-digit solve in intrinsic time
    d = oracles.pair_ode_distance(
        axis.f, -343.0, axis.params.tau, T_OBS, math.exp(-6), 1e-12, 1e-15
    )
    assert d == pytest.approx(twin, rel=1e-11)


@pytest.mark.parametrize("rtol", [1e-7, 1e-9])
def test_first_integral_is_conserved_at_oracle_end_states(rtol):
    # H = x5^2 + x4^2 - 2 a ln x4 is constant along the flow in s; checked at
    # headline 7's nodes (default model, 160 z nodes, six epsilons)
    cfg = cli.ExperimentConfig()
    axis = model.build_axis_aligned(cfg.model_params())
    n = axis.params.n
    z, _ = oracles.z_quadrature(n, 160)
    a = z**n
    eps = np.array(cfg.epsilons())[:, None]
    S = oracles.drift_integral(axis.f, axis.params.tau, cfg.t_eval)
    x4, x5, _ = oracles.intrinsic_pair_final(a, eps, S, rtol)
    h0 = eps**2 - 2.0 * a * np.log(eps)
    h1 = x5**2 + x4**2 - 2.0 * a * np.log(x4)
    assert np.max(np.abs(h1 / h0 - 1.0)) <= rtol


@pytest.mark.parametrize("n", [3, 4])
def test_z_quadrature_integrates_truncated_normal_moments(n):
    # E[Z^k; |Z| <= 7] in closed form: the rule covers |z| <= 7 only
    z, w = oracles.z_quadrature(n, 160)
    mass = math.erf(7.0 / math.sqrt(2.0))
    phi = math.exp(-24.5) / math.sqrt(2.0 * math.pi)
    assert np.sum(w) == pytest.approx(mass, abs=1e-13)
    assert np.sum(w * z**2) == pytest.approx(mass - 14.0 * phi, abs=1e-13)
    assert np.sum(w * z**4) == pytest.approx(3.0 * mass - 2.0 * 364.0 * phi, abs=1e-12)
    if n % 2:
        assert np.sum(w * z) == pytest.approx(0.0, abs=1e-13)


def test_sweep_means_match_scalar_route():
    # headline 7's oracle settings; the frozen means were computed one
    # scalar DOP853 solve per (eps, z) node at rtol 1e-10
    axis = model.build_axis_aligned(cli.ExperimentConfig().model_params())
    scalar_route = [
        0.8445140996941124, 0.4557758011176495, 0.27183074240819777,
        0.17760098426210083, 0.12451335895704044, 0.09171486305811428,
    ]
    means = oracles.oracle_sweep_means(
        axis.f, axis.params.tau, 0.89990234375, axis.params.n, EPS,
        z_nodes=160, rtol=1e-7,
    )
    assert means[-1] == 0.0
    assert np.max(np.abs(means[:-1] / scalar_route - 1.0)) <= 1e-7
