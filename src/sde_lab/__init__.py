"""Numerical laboratory for additive-noise SDEs whose solutions depend on
the initial value only logarithmically.

Layout:

  bumps       smooth compactly supported bump profiles and sup norms
  quadrature  adaptive Simpson and per-cell Gauss-Legendre
  model       drift/diffusion fields, Lyapunov functions, inequality checks
  paths       counter-based Brownian path sampling (reproducible by index)
  solvers     cascade integrator, (tamed) Euler, first-variation flow
  bounds      closed-form bounds: expectation lower bound, sandwich,
              variance identity, Hoelder-comparison failure
  montecarlo  distance estimates, epsilon sweeps, normality diagnostics
  cli         sde-lab command line front end
  reports     uniform pass/fail check records
"""

from .bumps import BumpFunction, InvalidIntervalError, make_normalized_bump, sup_bounds
from .model import (
    AxisAlignedModel,
    GeneralModel,
    InvalidDirectionError,
    ModelParams,
    build_axis_aligned,
    build_general,
    eval_mu,
    eval_nu,
    eval_nu_jacobian,
    eval_U,
    verify_model_bounds,
)
from .paths import TimeGrid, path_seed
from .solvers import SolverExplosionError
from .bounds import (
    DomainError,
    HoelderCompParams,
    KappaSchedule,
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
from .montecarlo import (
    DistanceEstimate,
    EstimationFailedError,
    SweepResult,
    estimate_distance,
    fit_exponent,
    stdnormality_test,
    sweep_epsilon,
)
from .quadrature import QuadratureToleranceError, adaptive_simpson
from .reports import CheckReport

__all__ = [
    "AxisAlignedModel",
    "BumpFunction",
    "CheckReport",
    "DistanceEstimate",
    "DomainError",
    "EstimationFailedError",
    "GeneralModel",
    "HoelderCompParams",
    "InvalidDirectionError",
    "InvalidIntervalError",
    "KappaSchedule",
    "Lemma21Params",
    "ModelParams",
    "QuadratureToleranceError",
    "SolverExplosionError",
    "SweepResult",
    "TimeGrid",
    "adaptive_simpson",
    "build_axis_aligned",
    "build_general",
    "build_kappa_schedule",
    "check_hoeldercomp",
    "check_lemma21",
    "estimate_distance",
    "eval_U",
    "eval_mu",
    "eval_nu",
    "eval_nu_jacobian",
    "fit_exponent",
    "hoeldercomp_K",
    "hoeldercomp_threshold",
    "kappa_t",
    "lemma21_c",
    "lemma21_lhs",
    "lemma21_rhs",
    "make_normalized_bump",
    "path_seed",
    "sandwich_check",
    "stdnorm_variance",
    "stdnormality_test",
    "sup_bounds",
    "sweep_epsilon",
    "__version__",
]

__version__ = "0.1.0"
