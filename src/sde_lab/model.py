"""Drift, Lyapunov functions, and affine conjugation for the SDE family.

The core object is the 5-d cascade drift

    nu(x) = (1, 0, g'(x1) x2, f(x1) x4 x5, f(x1) [(x3)^n - (x4)^2]),

with f, g smooth bumps on (tau, T) and (0, tau). It acts on the first five
coordinates of R^d, zero beyond, and is conjugated by an affine map x -> B x
+ v, B = ||delta|| * (Householder reflection taking the 4th unit vector to
delta/||delta||), so only B[:, :5] meets it (eval_mu, eval_mu_jacobian).
Everything downstream (solvers, Monte Carlo, bound checks) consumes these
two model records.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import bumps
from .bumps import BumpFunction
from .reports import CheckReport, merge_reports

# trials per row block of the sampled checks' evaluation: the draws are held
# whole, a block's Jacobians and temporaries one block at a time
_BLOCK = 4096


class InvalidDirectionError(ValueError):
    """Perturbation direction delta must be nonzero, with a finite norm."""


def _norm(a: np.ndarray) -> float:
    """Euclidean norm, inf where its square overflows (without a warning)."""
    with np.errstate(over="ignore"):
        return float(np.linalg.norm(a))


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class ModelParams:
    """Static parameters of one model instance.

    q defaults to 2*p*n (the smallest admissible value), v to the origin and
    delta to the 4th unit vector of R^d.
    """

    n: int = 4
    tau: float = 0.5
    T: float = 1.0
    d: int = 5
    m: int = 1
    p: float = 1.0
    q: float | None = None
    v: np.ndarray | None = None
    delta: np.ndarray | None = None

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 2:
            raise ValueError(f"drift power n must be an integer >= 2, got {self.n}")
        if not 0.0 < self.tau < self.T:
            raise ValueError(f"need 0 < tau < T, got tau={self.tau}, T={self.T}")
        if self.d < 5:
            raise ValueError(f"state dimension must be >= 5, got {self.d}")
        if self.m < 1:
            raise ValueError(f"noise dimension must be >= 1, got {self.m}")
        if self.p < 1.0:
            raise ValueError(f"need p >= 1, got {self.p}")
        q = 2.0 * self.p * self.n if self.q is None else float(self.q)
        if q < 2.0 * self.p * self.n:
            raise ValueError(f"need q >= 2*p*n = {2.0*self.p*self.n}, got {q}")
        v = np.zeros(self.d) if self.v is None else np.asarray(self.v, dtype=float)
        if self.delta is None:
            delta = np.zeros(self.d)
            delta[3] = 1.0
        else:
            delta = np.asarray(self.delta, dtype=float)
        if v.shape != (self.d,) or delta.shape != (self.d,):
            raise ValueError("v and delta must be vectors of length d")
        if not _norm(delta) > 0.0:
            raise InvalidDirectionError("delta must be nonzero")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "v", _readonly(v))
        object.__setattr__(self, "delta", _readonly(delta))


@dataclass(frozen=True, eq=False)
class AxisAlignedModel:
    """The cascade model in its native coordinates (v=0, delta=u)."""

    params: ModelParams
    f: BumpFunction  # support (tau, T)
    g: BumpFunction  # support (0, tau)
    C: float  # max(1, sup|f|, sup|f'|, sup|g'|, sup|g''|)
    varkappa: float  # growth/Lyapunov envelope constant 2 + 8(n+1)C
    rho: np.ndarray = field(repr=False)  # (0,1,0,0,0)


@dataclass(frozen=True, eq=False)
class GeneralModel:
    """Affine-conjugated model on R^d with drift mu(x) = B nu~(B^{-1}(x-v)).

    log_kappa is the log of the growth constant
    kappa = 2*vk*(1 + ||delta||^-1 2^vk max(1,||v||^vk)) (vk = base.varkappa),
    kept in log space because kappa overflows float64 for every interesting
    bump.
    """

    base: AxisAlignedModel
    A: np.ndarray = field(repr=False)
    B: np.ndarray = field(repr=False)
    Binv: np.ndarray = field(repr=False)
    sigma: np.ndarray = field(repr=False)  # d x m, only column 1 nonzero
    log_kappa: float

    @property
    def params(self) -> ModelParams:
        return self.base.params


def build_axis_aligned(params: ModelParams) -> AxisAlignedModel:
    """Construct bumps and envelope constants for the given parameters."""
    f = bumps.make_normalized_bump(params.tau, params.T)
    g = bumps.make_normalized_bump(0.0, params.tau)
    C = bumps.sup_bounds(f, g)
    varkappa = 2.0 + 8.0 * (params.n + 1) * C
    rho = _readonly([0.0, 1.0, 0.0, 0.0, 0.0])
    return AxisAlignedModel(params=params, f=f, g=g, C=C, varkappa=varkappa, rho=rho)


def eval_nu(model: AxisAlignedModel, x) -> np.ndarray:
    """Cascade drift on R^5; x may carry leading batch dimensions."""
    x = np.asarray(x, dtype=float)
    n = model.params.n
    x1, x2, x3, x4, x5 = (x[..., i] for i in range(5))
    fx = bumps.eval(model.f, x1, 0)
    out = np.empty_like(x)
    out[..., 0] = 1.0
    out[..., 1] = 0.0
    out[..., 2] = bumps.eval(model.g, x1, 1) * x2
    out[..., 3] = fx * x4 * x5
    out[..., 4] = fx * (x3**n - x4**2)
    return out


def eval_nu_jacobian(model: AxisAlignedModel, x) -> np.ndarray:
    """Exact Jacobian of eval_nu; shape (..., 5, 5), rows 1-2 zero."""
    x = np.asarray(x, dtype=float)
    n = model.params.n
    x1, x2, x3, x4, x5 = (x[..., i] for i in range(5))
    fx = bumps.eval(model.f, x1, 0)
    fpx = bumps.eval(model.f, x1, 1)
    out = np.zeros(x.shape[:-1] + (5, 5))
    out[..., 2, 0] = bumps.eval(model.g, x1, 2) * x2
    out[..., 2, 1] = bumps.eval(model.g, x1, 1)
    out[..., 3, 0] = fpx * x4 * x5
    out[..., 3, 3] = fx * x5
    out[..., 3, 4] = fx * x4
    out[..., 4, 0] = fpx * (x3**n - x4**2)
    out[..., 4, 2] = n * fx * x3 ** (n - 1)
    out[..., 4, 3] = -2.0 * fx * x4
    return out


def eval_U(model: AxisAlignedModel, x, p: float | None = None, q: float | None = None):
    """Lyapunov core (1+x1^2+x4^2+x5^2)^p + |x2|^q + |x3|^q + 1 on R^5.

    Defaults p=1, q=2n, giving the quadratic-plus-even-powers form with
    value 2 at the origin.
    """
    x = np.asarray(x, dtype=float)
    p = 1.0 if p is None else p
    q = 2.0 * model.params.n if q is None else q
    core = 1.0 + x[..., 0] ** 2 + x[..., 3] ** 2 + x[..., 4] ** 2
    return core**p + np.abs(x[..., 1]) ** q + np.abs(x[..., 2]) ** q + 1.0


def eval_U_grad(
    model: AxisAlignedModel, x, p: float | None = None, q: float | None = None
) -> np.ndarray:
    """Closed-form gradient of eval_U."""
    x = np.asarray(x, dtype=float)
    p = 1.0 if p is None else p
    q = 2.0 * model.params.n if q is None else q
    core = 1.0 + x[..., 0] ** 2 + x[..., 3] ** 2 + x[..., 4] ** 2
    cp = p * core ** (p - 1.0)
    out = np.empty_like(x)
    out[..., 0] = cp * 2.0 * x[..., 0]
    out[..., 1] = q * np.abs(x[..., 1]) ** (q - 1.0) * np.sign(x[..., 1])
    out[..., 2] = q * np.abs(x[..., 2]) ** (q - 1.0) * np.sign(x[..., 2])
    out[..., 3] = cp * 2.0 * x[..., 3]
    out[..., 4] = cp * 2.0 * x[..., 4]
    return out


def embedded_V(model: AxisAlignedModel, x):
    """Lyapunov function on R^d: U(first five) + sum of squares beyond + 1."""
    x = np.asarray(x, dtype=float)
    tail = np.sum(x[..., 5:] ** 2, axis=-1)
    return eval_U(model, x[..., :5], p=1.0, q=2.0 * model.params.n) + tail + 1.0


def embedded_V_grad(model: AxisAlignedModel, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    out[..., :5] = eval_U_grad(model, x[..., :5], p=1.0, q=2.0 * model.params.n)
    out[..., 5:] = 2.0 * x[..., 5:]
    return out


def householder_to(target: np.ndarray) -> np.ndarray:
    """Orthogonal matrix mapping the 4th unit vector to the given unit vector.

    Reflection A = I - 2 nn^T with n along (u - target); identity when the
    two directions already agree to 1e-12.
    """
    d = target.shape[0]
    u = np.zeros(d)
    u[3] = 1.0
    diff = u - target
    nrm = np.linalg.norm(diff)
    if nrm < 1e-12:
        return np.eye(d)
    nvec = diff / nrm
    return np.eye(d) - 2.0 * np.outer(nvec, nvec)


def build_general(model: AxisAlignedModel) -> GeneralModel:
    """Conjugate the embedded model by B = ||delta|| A and the shift v.

    Raises ValueError unless the norms of delta and v are finite and that of
    delta is nonzero: an overflowing norm leaves B or kappa non-finite."""
    params = model.params
    delta = params.delta
    dnorm = _norm(delta)
    if not dnorm > 0.0:
        raise InvalidDirectionError("delta must be nonzero")
    if not np.isfinite(dnorm):
        raise InvalidDirectionError(f"delta must have a finite norm, got {dnorm}")
    vnorm = _norm(params.v)
    if not np.isfinite(vnorm):
        raise ValueError(f"v must have a finite norm, got {vnorm}")
    A = householder_to(delta / dnorm)
    B = dnorm * A
    Binv = A.T / dnorm  # A orthogonal => B^{-1} = A^T / ||delta||
    sigma = np.zeros((params.d, params.m))
    sigma[:, 0] = B[:, 1]  # the cascade's noise enters the second coordinate only
    vk = model.varkappa
    # kappa = 2 vk (1 + 2^vk max(1, ||v||^vk) / ||delta||), assembled in logs
    log_max_term = max(0.0, vk * np.log(vnorm)) if vnorm > 0.0 else 0.0
    s = vk * np.log(2.0) + log_max_term - np.log(dnorm)
    log_kappa = float(np.log(2.0 * vk) + np.logaddexp(0.0, s))
    return GeneralModel(
        base=model,
        A=_readonly(A),
        B=_readonly(B),
        Binv=_readonly(Binv),
        sigma=_readonly(sigma),
        log_kappa=log_kappa,
    )


def eval_mu(gm: GeneralModel, x) -> np.ndarray:
    """General drift mu(x) = B nu~(B^{-1}(x - v)); nu~ is zero past y5."""
    y = (np.asarray(x, dtype=float) - gm.params.v) @ gm.Binv.T
    return eval_nu(gm.base, y[..., :5]) @ gm.B[:, :5].T


def eval_mu_jacobian(gm: GeneralModel, x) -> np.ndarray:
    """mu'(x) = B nu~'(B^{-1}(x-v)) B^{-1}, shape (..., d, d). Only the 5x5
    block of nu~' is nonzero, so only B[:, :5] and B^{-1}[:5] enter; the
    right product runs as one flat (N d, 5) x (5, d) matmul."""
    y = (np.asarray(x, dtype=float) - gm.params.v) @ gm.Binv.T
    left = gm.B[:, :5] @ eval_nu_jacobian(gm.base, y[..., :5])
    return (left.reshape(-1, 5) @ gm.Binv[:5]).reshape(left.shape[:-1] + (gm.params.d,))


def eval_general_V(gm: GeneralModel, x):
    """V(x) = ||delta|| V~(B^{-1}(x-v)) + ||v||; satisfies ||x|| <= V(x)."""
    y = (np.asarray(x, dtype=float) - gm.params.v) @ gm.Binv.T
    dnorm = np.linalg.norm(gm.params.delta)
    return dnorm * embedded_V(gm.base, y) + np.linalg.norm(gm.params.v)


def eval_general_V_directional(gm: GeneralModel, x, w) -> np.ndarray:
    """Directional derivative V'(x) w via the chain rule."""
    y = (np.asarray(x, dtype=float) - gm.params.v) @ gm.Binv.T
    grad = embedded_V_grad(gm.base, y)
    dnorm = np.linalg.norm(gm.params.delta)
    return dnorm * np.sum(grad * (np.asarray(w, dtype=float) @ gm.Binv.T), axis=-1)


def _box(rng: np.random.Generator, count: int, dim: int, radius: float):
    """count points drawn uniformly from the cube [-radius, radius]^dim. The
    cube's width must be a finite float, else no uniform draw exists."""
    if not np.isfinite(2.0 * radius):
        raise ValueError(f"need a box radius with a finite width 2 * radius, got {radius}")
    return rng.uniform(-radius, radius, size=(count, dim))


def _sphere(rng: np.random.Generator, count: int, dim: int, radius: float):
    """count points drawn uniformly from the sphere of the given radius,
    normalized in place one row block at a time."""
    z = rng.standard_normal((count, dim))
    for rows in _blocks(count):
        z[rows] /= np.linalg.norm(z[rows], axis=1, keepdims=True)
    z *= radius
    return z


def _blocks(count: int, size: int | None = None):
    """Row slices of size (default _BLOCK) rows that cover range(count), the
    last one shorter. A one-row tail joins the block before it: numpy
    multiplies a lone row by a matrix on its matrix-vector route, whose bits
    can differ from a batch row's."""
    size = _BLOCK if size is None else size
    start = 0
    while start < count:
        stop = min(start + size, count)
        if count - stop == 1:
            stop = count
        yield slice(start, stop)
        start = stop


def _blockwise(stat, *draws):
    """stat(*rows of draws) on each row block of the draws, each of its
    outputs gathered into one full-length array. A trial's statistic depends
    on its own draws alone, so it has the same bits in any block."""
    parts = [stat(*(a[rows] for a in draws)) for rows in _blocks(len(draws[0]))]
    return [np.concatenate(column) for column in zip(*parts)]


def log_growth_rhs(log_kappa: float, lognorm_x: np.ndarray) -> np.ndarray:
    """log of kappa (1 + ||x||^kappa) with kappa given in log space.

    kappa * ln||x|| is formed as sign(ln||x||) * exp(log_kappa + ln|ln||x|||)
    and saturates to +-inf rather than overflowing.
    """
    lognorm_x = np.asarray(lognorm_x, dtype=float)
    with np.errstate(divide="ignore"):
        mag = log_kappa + np.log(np.abs(lognorm_x))
    term = np.sign(lognorm_x) * np.where(mag > 709.0, np.inf, np.exp(np.minimum(mag, 709.0)))
    return log_kappa + np.logaddexp(0.0, term)


def verify_jacobian_growth(
    model, trials: int, box_radius: float, seed: int = 0
) -> CheckReport:
    """Sampled check of the Jacobian growth envelope.

    Axis-aligned: ||nu'(x)h|| <= 4 n C (1 + ||x||^n) ||h|| with the ratio as
    the violation scale. General: the same statement conjugated, against the
    (astronomically large) kappa envelope, compared in log space; a NaN
    left-hand side fails. The draws x and h are held whole (2 d 8 bytes per
    trial), the Jacobians one row block of _BLOCK trials at a time.
    """
    rng = np.random.default_rng(seed)
    if isinstance(model, AxisAlignedModel):
        n = model.params.n
        x = _box(rng, trials, 5, box_radius)
        h = _sphere(rng, trials, 5, 1.0)

        def ratio_of(x, h):
            lhs = np.linalg.norm(np.einsum("pij,pj->pi", eval_nu_jacobian(model, x), h), axis=1)
            rhs = 4.0 * n * model.C * (1.0 + np.linalg.norm(x, axis=1) ** n)
            return (lhs / rhs,)

        (ratio,) = _blockwise(ratio_of, x, h)
        worst = int(np.argmax(ratio))
        max_violation = float(ratio[worst] - 1.0)
        params = {
            "model": "axis_aligned",
            "n": n,
            "C": model.C,
            "box_radius": box_radius,
            "violation_scale": "ratio_minus_one",
            "max_ratio": float(ratio[worst]),
        }
        passed = max_violation <= 0.0
        if not passed:
            params["counterexample"] = {"x": x[worst].tolist(), "h": h[worst].tolist()}
        return CheckReport("jacobian_growth", params, max_violation, trials, passed)

    gm: GeneralModel = model
    d = gm.params.d
    x = _box(rng, trials, d, box_radius)
    h = _sphere(rng, trials, d, 1.0)

    def excess_of(x, h):
        lhs = np.linalg.norm(np.einsum("pij,pj->pi", eval_mu_jacobian(gm, x), h), axis=1)
        with np.errstate(divide="ignore"):
            log_lhs = np.log(lhs)
            log_rhs = log_growth_rhs(gm.log_kappa, np.log(np.linalg.norm(x, axis=1)))
        # lhs = 0 passes trivially, whatever the envelope; a NaN stays NaN
        return (np.where(lhs == 0.0, -np.inf, log_lhs - log_rhs),)

    (excess,) = _blockwise(excess_of, x, h)
    worst = int(np.argmax(excess))
    max_violation = float(excess[worst])
    params = {
        "model": "general",
        "log_kappa": gm.log_kappa,
        "box_radius": box_radius,
        "violation_scale": "log_excess",
    }
    passed = max_violation <= 0.0
    if not passed:
        params["counterexample"] = {"x": x[worst].tolist(), "h": h[worst].tolist()}
    return CheckReport("jacobian_growth", params, max_violation, trials, passed)


def verify_lyapunov(
    model, trials: int, box_radius: float, z_radius: float, seed: int = 0
) -> CheckReport:
    """Sampled check of the Lyapunov drift inequality plus ||x|| <= V(x).

    Axis-aligned: V'(x) nu(x + rho z) <= (2p + (2p+q) c)(1+|z|) V(x) with
    c = max(sup|f|, sup|g'|) and the (p, q) of the params. General:
    V'(x) mu(x + sigma z) <= kappa (1+||z||) V(x) in log space; a NaN
    left-hand side fails. The draws x and z are held whole ((d + m) 8 bytes
    per trial), the drift and V one row block of _BLOCK trials at a time.
    """
    rng = np.random.default_rng(seed)
    if isinstance(model, AxisAlignedModel):
        p, q = model.params.p, model.params.q
        c = max(bumps.sup_abs(model.f, 0), bumps.sup_abs(model.g, 1))
        x = _box(rng, trials, 5, box_radius)
        z = _sphere(rng, trials, 1, z_radius)[:, 0]

        def ratio_of(x, z):
            shifted = x + model.rho[None, :] * z[:, None]
            lhs = np.sum(eval_U_grad(model, x, p, q) * eval_nu(model, shifted), axis=1)
            V = eval_U(model, x, p, q)
            rhs = (2.0 * p + (2.0 * p + q) * c) * (1.0 + np.abs(z)) * V
            return lhs / rhs, np.linalg.norm(x, axis=1) <= V

        ratio, norm_ok = _blockwise(ratio_of, x, z)
        worst = int(np.argmax(ratio))
        max_violation = float(ratio[worst] - 1.0)
        passed = max_violation <= 0.0 and bool(np.all(norm_ok))
        params = {
            "model": "axis_aligned",
            "p": p,
            "q": q,
            "drift_sup": c,
            "box_radius": box_radius,
            "z_radius": z_radius,
            "max_lyapunov_ratio": float(ratio[worst]),
            "violation_scale": "ratio_minus_one",
            "norm_le_V": bool(np.all(norm_ok)),
        }
        if not passed:
            params["counterexample"] = {"x": x[worst].tolist(), "z": float(z[worst])}
        return CheckReport("lyapunov", params, max_violation, trials, passed)

    gm: GeneralModel = model
    d, m = gm.params.d, gm.params.m
    x = _box(rng, trials, d, box_radius)
    z = _sphere(rng, trials, m, z_radius)

    def excess_of(x, z):
        lhs = eval_general_V_directional(gm, x, eval_mu(gm, x + z @ gm.sigma.T))
        V = eval_general_V(gm, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            # lhs <= 0 passes trivially; a NaN stays NaN
            log_lhs = np.where(lhs <= 0.0, -np.inf, np.log(np.maximum(lhs, 1e-300)))
            log_rhs = gm.log_kappa + np.log1p(np.linalg.norm(z, axis=1)) + np.log(V)
        return log_lhs - log_rhs, np.linalg.norm(x, axis=1) <= V

    excess, norm_ok = _blockwise(excess_of, x, z)
    worst = int(np.argmax(excess))
    max_violation = float(excess[worst])
    passed = max_violation <= 0.0 and bool(np.all(norm_ok))
    params = {
        "model": "general",
        "log_kappa": gm.log_kappa,
        "box_radius": box_radius,
        "z_radius": z_radius,
        # ratio in log space; <= 0 means the drift inequality holds
        "max_lyapunov_log_excess": max_violation,
        "violation_scale": "log_excess",
        "norm_le_V": bool(np.all(norm_ok)),
    }
    if not passed:
        params["counterexample"] = {"x": x[worst].tolist(), "z": z[worst].tolist()}
    return CheckReport("lyapunov", params, max_violation, trials, passed)


def frobenius_bound_check(matrix: np.ndarray, trials: int, seed: int = 0) -> CheckReport:
    """Operator norm dominated by the Frobenius norm, on random vectors."""
    matrix = np.asarray(matrix, dtype=float)
    rng = np.random.default_rng(seed)
    d = matrix.shape[1]
    x = rng.standard_normal((trials, d))
    lhs = np.linalg.norm(x @ matrix.T, axis=1)
    rhs = np.linalg.norm(matrix) * np.linalg.norm(x, axis=1)
    # 0 <= 0 at matrix = 0; tiny rounding headroom, the claim is exact algebra
    violation = lhs - rhs * (1.0 + 1e-14)
    worst = int(np.argmax(violation))
    max_violation = float(violation[worst])
    passed = max_violation <= 0.0
    params = {
        "frobenius_norm": float(np.linalg.norm(matrix)),
        "violation_scale": "absolute_excess",
    }
    if not passed:
        params["counterexample"] = {"x": x[worst].tolist()}
    return CheckReport("frobenius_bound", params, max_violation, trials, passed)


def verify_model_bounds(
    gm: GeneralModel, trials: int, box_radius: float, z_radius: float, seed: int = 0
) -> CheckReport:
    """Bundle: growth and Lyapunov checks for both coordinate systems."""
    reports = [
        verify_jacobian_growth(gm.base, trials, box_radius, seed),
        verify_jacobian_growth(gm, trials, box_radius, seed + 1),
        verify_lyapunov(gm.base, trials, box_radius, z_radius, seed + 2),
        verify_lyapunov(gm, trials, box_radius, z_radius, seed + 3),
        frobenius_bound_check(gm.B, min(trials, 10_000), seed + 4),
    ]
    return merge_reports("model_bounds", reports)
