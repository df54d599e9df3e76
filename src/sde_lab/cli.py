"""Command-line entry point.

Subcommands map one-to-one onto the verification and experiment pipelines:

  verify-bounds    sampled growth/Lyapunov/Frobenius inequality checks
  lemma21          normal-expectation lower bound on an epsilon ladder
  stdnorm-check    variance identity (quadrature) + normality of X3(tau) (MC)
  simulate         dump one Brownian path and one solution path as CSV
  sweep            epsilon sweep with CSV + JSON summary and bound checks
  transform-check  cascade-vs-Euler equivalence through the affine transform
  variation-check  first-variation solver vs finite differences of the flow

Exit codes: 0 all checks passed; 1 a check failed, a solver exploded or
every sampled path aborted (JSON report on stdout); 2 configuration/parse
error or a quadrature that cannot certify its tolerance ({"error": ...} on
stderr). Configuration comes from defaults, then an optional flat-key JSON
file (--config), then explicit flags; each subcommand offers only the flags
it reads.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import bounds as bounds_mod
from . import bumps, model as model_mod, montecarlo, paths as paths_mod, solvers
from .quadrature import QuadratureToleranceError
from .reports import CheckReport, merge_reports

DEFAULT_SEED = 1  # pinned default-experiment master seed; see acceptance suite


class ConfigError(ValueError):
    """Configuration file or flag combination cannot be parsed."""


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


# each part of a config field's type: the values it takes and how an error
# names them (a JSON file may hold any value; bool is a subclass of int)
_FIELD_TYPES = {
    "int": (lambda x: isinstance(x, int) and not isinstance(x, bool), "an integer"),
    "float": (_is_number, "a number"),
    "bool": (lambda x: isinstance(x, bool), "true or false"),
    "str": (lambda x: isinstance(x, str), "a string"),
    "list[float]": (lambda x: isinstance(x, list) and all(map(_is_number, x)), "a list of numbers"),
    "list": (lambda x: isinstance(x, list), "a list"),
    "dict": (lambda x: isinstance(x, dict), "an exponent-ladder dict"),
    "None": (lambda x: x is None, "null"),
}

# size keys, each checked by the commands that read it (validate)
_LOWER_BOUNDS = {"dt": 0, "n_paths": 1, "threads": 0}


@dataclass
class ExperimentConfig:
    """Flat experiment configuration; JSON files mirror these keys."""

    n: int = 4
    tau: float = 0.5
    T: float = 1.0
    d: int = 5
    m: int = 1
    p: float = 1.0
    q: float | None = None
    v: list[float] | None = None
    delta: list[float] | None = None
    dt: float = 1.0 / 2048.0
    n_paths: int = 10_000
    eps_grid: list | dict | None = None  # list of floats or exponent-ladder dict
    t_eval: float = 0.9
    seed: int = DEFAULT_SEED
    output_dir: str = "."
    taming: bool = True
    threads: int = 1
    solver: str = "cascade"

    def __post_init__(self):
        """Check each key's value against its field type."""
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            kinds = [_FIELD_TYPES[part] for part in f.type.split(" | ")]
            if not any(accepts(value) for accepts, _ in kinds):
                bound = f" > {_LOWER_BOUNDS[f.name]}" if f.name in _LOWER_BOUNDS else ""
                names = " or ".join(name for _, name in kinds)
                raise ConfigError(f"bad {f.name} {value!r}: need {f.name}{bound} as {names}")

    def validate(self, keys) -> None:
        """Check the values of ``keys``, the config keys a command reads; a
        config file may carry out-of-range values for the others."""
        for key, low in _LOWER_BOUNDS.items():
            value = getattr(self, key)
            if key in keys and not value > low:
                raise ConfigError(f"need {key} > {low}, got {value!r}")
        if "n" in keys:
            self.model_params()

    def model_params(self) -> model_mod.ModelParams:
        return model_mod.ModelParams(
            n=self.n,
            tau=self.tau,
            T=self.T,
            d=self.d,
            m=self.m,
            p=self.p,
            q=self.q,
            v=None if self.v is None else np.asarray(self.v, dtype=float),
            delta=None if self.delta is None else np.asarray(self.delta, dtype=float),
        )

    def steps(self) -> int:
        s = round(self.T / self.dt)
        if s < 1 or abs(s * self.dt - self.T) > 1e-9 * self.T:
            raise ConfigError(f"dt={self.dt} does not divide horizon T={self.T}")
        return s

    def epsilons(self) -> np.ndarray:
        grid = self.eps_grid
        if grid is None:
            grid = {"start_exponent": 1, "stop_exponent": 6, "per_decade": 1}
        if isinstance(grid, dict):
            try:
                start = float(grid["start_exponent"])
                stop = float(grid["stop_exponent"])
                per = float(grid.get("per_decade", 1))
            except KeyError as exc:
                raise ConfigError(f"eps_grid ladder missing key {exc}") from exc
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad eps_grid ladder {grid}") from exc
            if stop < start or per <= 0:
                raise ConfigError(f"bad eps_grid ladder {grid}")
            count = int(round((stop - start) * per)) + 1
            expo = start + np.arange(count) / per
            return np.exp(-expo)
        try:
            eps = np.atleast_1d(np.asarray(grid, dtype=float))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad eps_grid {grid!r}") from exc
        if eps.ndim != 1 or len(eps) < 1:
            raise ConfigError(f"bad eps_grid {grid!r}")
        return eps


_CONFIG_KEYS = {f.name for f in dataclasses.fields(ExperimentConfig)}


def _parse_eps_value(text: str) -> float:
    if text.strip() == "1/e":
        return 1.0 / math.e
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"cannot parse epsilon {text!r}") from exc


def load_config(path: str | None, overrides: dict) -> ExperimentConfig:
    """Defaults <- JSON file <- explicit flag overrides."""
    data: dict = {}
    if path is not None:
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        unknown = set(data) - _CONFIG_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    data.update({k: v for k, v in overrides.items() if v is not None})
    try:
        return ExperimentConfig(**data)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def _emit(report: CheckReport) -> int:
    print(report.to_json(indent=2))
    return 0 if report.passed else 1


def _build_general(config: ExperimentConfig) -> model_mod.GeneralModel:
    return model_mod.build_general(model_mod.build_axis_aligned(config.model_params()))


def cmd_verify_bounds(config: ExperimentConfig, args) -> int:
    gm = _build_general(config)
    # a term that overflows leaves inf or NaN where a verdict should be: the
    # radius is past the range in which float64 can evaluate the checks
    try:
        with np.errstate(over="raise", invalid="raise"):
            report = model_mod.verify_model_bounds(
                gm, args.trials, args.radius, args.z_radius, seed=config.seed
            )
    except FloatingPointError as exc:
        raise ValueError(
            f"radius {args.radius} (z-radius {args.z_radius}) is past the float64 range "
            f"of the sampled checks on this model: {exc}"
        ) from exc
    return _emit(report)


def cmd_lemma21(config: ExperimentConfig, args) -> int:
    eps_max = _parse_eps_value(args.eps_max)
    ladder = [eps_max * math.exp(-i) for i in range(args.eps_count)]
    reports = [
        bounds_mod.check_lemma21(
            bounds_mod.Lemma21Params(p=args.lemma_p, kappa=args.kappa, eps=e)
        )
        for e in ladder
    ]
    return _emit(merge_reports("lemma21_ladder", reports))


def cmd_stdnorm_check(config: ExperimentConfig, args) -> int:
    axis = model_mod.build_axis_aligned(config.model_params())
    var = bounds_mod.stdnorm_variance(axis.g, axis.params.tau)
    var_report = CheckReport(
        check="stdnorm_variance",
        params={"value": var, "violation_scale": "absolute_excess"},
        max_violation=abs(var - 1.0) - 1e-6,
        grid_size=1,
        passed=abs(var - 1.0) <= 1e-6,
    )
    mc_report = montecarlo.stdnormality_test(
        axis, args.check_paths, config.seed, steps=config.steps()
    )
    return _emit(merge_reports("stdnorm", [var_report, mc_report]))


def cmd_simulate(config: ExperimentConfig, args) -> int:
    gm = _build_general(config)
    grid = paths_mod.TimeGrid(T=config.T, steps=config.steps())
    w = paths_mod.brownian_values_batch(grid, config.m, config.seed, args.path_index, 1)
    params = gm.params
    x0 = params.v + args.x0_eps * params.delta
    if config.solver == "cascade":
        y0 = gm.Binv @ (x0 - params.v)
        states = solvers.solve_cascade_general(gm, grid, w[:, :, 0], y0)
    else:
        states = solvers.solve_em_batch(gm, grid, w, x0, taming=config.taming)
    first_bad = int(solvers._first_bad_steps(states)[0])
    if first_bad >= 0:
        raise solvers.SolverExplosionError(first_bad)
    os.makedirs(config.output_dir, exist_ok=True)
    files = ["brownian.csv", "solution.csv"]  # relative to --output
    with open(os.path.join(config.output_dir, files[0]), "w") as fh:
        paths_mod.write_brownian_csv(grid, w[0], fh)
    with open(os.path.join(config.output_dir, files[1]), "w") as fh:
        solvers.write_solution_csv(grid, states[0], fh)
    print(json.dumps({"check": "simulate", "passed": True, "files": files}))
    return 0


def sweep_domination_report(result: montecarlo.SweepResult) -> CheckReport:
    """mean + 4 SE must dominate K * lower bound curve; aborts must be rare."""
    K = result.constants["K"]
    means = np.array([e.mean for e in result.estimates])
    ses = np.array([e.std_error for e in result.estimates])
    slack = means + 4.0 * ses - K * result.lower_bound_curve
    aborted = sum(e.aborted for e in result.estimates)
    total = sum(e.n_paths for e in result.estimates)
    abort_ok = aborted <= 0.001 * total
    checked = result.regime == "non-hoelder"
    passed = (not checked or bool(np.all(slack >= 0.0))) and abort_ok
    return CheckReport(
        check="sweep_domination",
        params={
            "regime": result.regime,
            "K": K,
            "aborted": aborted,
            "abort_fraction_max": 0.001,
            "checked": checked,
            "violation_scale": "absolute_excess",
        },
        max_violation=float(np.max(-slack)) if checked else 0.0,
        grid_size=len(means),
        passed=passed,
    )


def cmd_sweep(config: ExperimentConfig, args) -> int:
    gm = _build_general(config)
    result = montecarlo.sweep_epsilon(
        gm,
        config.t_eval,
        config.epsilons(),
        config.n_paths,
        config.seed,
        steps=config.steps(),
        solver=config.solver,
        taming=config.taming,
        n_threads=config.threads,
    )
    os.makedirs(config.output_dir, exist_ok=True)
    csv_path = os.path.join(config.output_dir, "sweep.csv")
    json_path = os.path.join(config.output_dir, "sweep_summary.json")
    with open(csv_path, "w") as fh:
        montecarlo.sweep_to_csv(result, fh)
    with open(json_path, "w") as fh:
        json.dump(montecarlo.sweep_summary(result), fh, indent=2)
        fh.write("\n")
    return _emit(sweep_domination_report(result))


def cmd_transform_check(config: ExperimentConfig, args) -> int:
    return _emit(transform_equivalence_report(config, n_paths=args.paths, seed=config.seed))


def _sup_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per path, the largest Euclidean distance over time between two (P, K+1,
    d) path arrays, one path at a time: no (P, K+1, d) temporary. A
    non-finite path gives inf or nan, without a warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.array([np.linalg.norm(x - y, axis=1).max() for x, y in zip(a, b)])


def transform_equivalence_report(
    config: ExperimentConfig, n_paths: int, seed: int
) -> CheckReport:
    """Cascade-through-transform vs direct Euler, with a step-halving ratio.

    Runs untamed: the taming correction is an O(dt ||mu||) drift bias that
    would swamp the discretization error this check measures.
    """
    gm = _build_general(config)
    params = gm.params
    fine = paths_mod.TimeGrid(T=params.T, steps=config.steps())
    coarse = paths_mod.TimeGrid(T=params.T, steps=config.steps() // 2)
    rng = np.random.default_rng(seed)
    y0 = rng.uniform(-0.3, 0.3, size=params.d)
    x0 = gm.B @ y0 + params.v

    wf = paths_mod.brownian_values_batch(fine, params.m, seed, 0, n_paths)
    ref = solvers.solve_cascade_general(gm, fine, wf[:, :, 0], y0)
    em_f = solvers.solve_em_batch(gm, fine, wf, x0, taming=False)
    em_c = solvers.solve_em_batch(gm, coarse, wf[:, ::2], x0, taming=False)
    per_path_fine = _sup_distances(ref, em_f)
    per_path_coarse = _sup_distances(ref[:, ::2], em_c)
    max_fine = float(per_path_fine.max())

    # step-halving ratio on per-path means: the max over paths and times is
    # too noisy an order estimate, the mean of path-wise sups is stable
    mean_fine = float(per_path_fine.mean())
    mean_coarse = float(per_path_coarse.mean())
    ratio = mean_coarse / mean_fine if mean_fine > 0 else float("nan")
    tol = 5e-3
    ratio_ok = 1.5 <= ratio <= 2.5
    passed = max_fine <= tol and ratio_ok
    return CheckReport(
        check="transform_equivalence",
        params={
            "d": params.d,
            "dt": fine.dt,
            "n_paths": n_paths,
            "max_distance": max_fine,
            "mean_distance": mean_fine,
            "mean_distance_coarse": mean_coarse,
            "halving_ratio": ratio,
            "tolerance": tol,
            "violation_scale": "absolute_excess",
        },
        max_violation=float(max_fine - tol if ratio_ok else np.max([max_fine - tol, 1.0])),
        grid_size=n_paths,
        passed=passed,
    )


def cmd_variation_check(config: ExperimentConfig, args) -> int:
    report = variation_fd_report(config, n_paths=args.paths, fd_eps=args.fd_eps, seed=config.seed)
    return _emit(report)


def variation_fd_report(
    config: ExperimentConfig, n_paths: int, fd_eps: float, seed: int
) -> CheckReport:
    """First-variation solution vs (X^{x+eps h} - X^x)/eps on shared noise."""
    gm = _build_general(config)
    params = gm.params
    grid = paths_mod.TimeGrid(T=params.T, steps=config.steps())
    rng = np.random.default_rng(seed)
    x0 = params.v + gm.B @ rng.uniform(-0.3, 0.3, size=params.d)
    h = rng.standard_normal(params.d)
    h /= np.linalg.norm(h)

    w = paths_mod.brownian_values_batch(grid, params.m, seed, 0, n_paths)
    # both starts in one Euler loop on the shared paths, as two separate solves
    starts = np.broadcast_to(np.stack([x0, x0 + fd_eps * h])[:, None], (2, n_paths, params.d))
    X, Xh = solvers.solve_em_batch(gm, grid, w, starts, taming=False)
    J = solvers.solve_variation_batch(gm, grid, X, h)
    fd = (Xh[:, -1] - X[:, -1]) / fd_eps
    denom = np.maximum(np.linalg.norm(J, axis=1), 1.0)
    worst = float(np.max(np.linalg.norm(fd - J, axis=1) / denom))

    tol = 1e-3
    return CheckReport(
        check="variation_fd",
        params={
            "d": params.d,
            "steps": grid.steps,
            "n_paths": n_paths,
            "fd_eps": fd_eps,
            "max_rel_error": worst,
            "tolerance": tol,
            "violation_scale": "absolute_excess",
        },
        max_violation=float(worst - tol),
        grid_size=n_paths,
        passed=worst <= tol,
    )


_COMMANDS = {
    "verify-bounds": cmd_verify_bounds,
    "lemma21": cmd_lemma21,
    "stdnorm-check": cmd_stdnorm_check,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "transform-check": cmd_transform_check,
    "variation-check": cmd_variation_check,
}


def run(command: str, config: ExperimentConfig, args=None) -> int:
    """Execute one subcommand against a resolved configuration."""
    if command not in _COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    if args is None:
        args = _build_parser().parse_args([command])  # the subcommand's defaults
    return _COMMANDS[command](config, args)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # a prefix of a flag is an error, never the flag: --kap is not --kappa
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _positive(kind):
    """argparse type: a ``kind`` value above zero (for ints: at least 1)."""
    def parse(text: str):
        if not kind(text) > 0:
            raise argparse.ArgumentTypeError(f"need a value > 0, got {text}")
        return kind(text)
    parse.__name__ = kind.__name__  # argparse names the type in its errors
    return parse


def _build_parser() -> argparse.ArgumentParser:
    desc = "Numerical laboratory for SDEs with logarithmic initial-value sensitivity"
    parser = _Parser(prog="sde-lab", description=desc)
    sub = parser.add_subparsers(dest="command", required=True)

    # flag groups, one per group of config keys; a subcommand lists the ones it reads
    run_g = _Parser(add_help=False)
    run_g.add_argument("--config", help="flat-key JSON configuration file")
    run_g.add_argument("--seed", type=int, help="master seed")
    run_g.add_argument("--output", dest="output_dir", help="output directory")

    model_g = _Parser(add_help=False)
    model_g.add_argument("--n", type=int, help="drift power")
    model_g.add_argument("--tau", type=float)
    model_g.add_argument("--T", type=float, dest="T")
    model_g.add_argument("--d", type=int)
    model_g.add_argument("--m", type=int)
    model_g.add_argument("--model-p", type=float, dest="p", help="Lyapunov exponent p")
    model_g.add_argument("--q", type=float, help="Lyapunov / upper-bound exponent q")
    model_g.add_argument("--v", help="comma-separated shift vector")
    model_g.add_argument("--delta", help="comma-separated direction vector")

    dt_g = _Parser(add_help=False)
    dt_g.add_argument("--dt", type=float)

    solver_g = _Parser(add_help=False)
    solver_g.add_argument("--solver", choices=["cascade", "em"])
    solver_g.add_argument("--taming", dest="taming", action="store_true", default=None)
    solver_g.add_argument("--no-taming", dest="taming", action="store_false", default=None)

    sweep_g = _Parser(add_help=False)
    sweep_g.add_argument("--threads", type=int, help="worker count (never affects results)")
    sweep_g.add_argument("--n-paths", type=int, dest="n_paths")
    sweep_g.add_argument("--t-eval", type=float, dest="t_eval")
    sweep_g.add_argument("--eps", help="comma-separated epsilon grid")
    sweep_g.add_argument("--eps-start-exponent", type=float)
    sweep_g.add_argument("--eps-stop-exponent", type=float)
    sweep_g.add_argument("--eps-per-decade", type=float)

    modelled = [run_g, model_g]
    sp = sub.add_parser("verify-bounds", parents=modelled, help="sampled inequality suites")
    sp.add_argument("--trials", type=_positive(int), default=100_000)
    sp.add_argument("--radius", type=float, default=5.0)
    sp.add_argument("--z-radius", type=float, default=5.0, dest="z_radius")

    sp = sub.add_parser("lemma21", parents=[run_g], help="normal-expectation lower bound ladder")
    # own dest: "p" is the model's config key
    sp.add_argument("--p", type=float, default=1.0, dest="lemma_p")
    sp.add_argument("--kappa", type=float, default=1.0)
    sp.add_argument("--eps-max", default="1/e", dest="eps_max")
    sp.add_argument("--eps-count", type=_positive(int), default=8, dest="eps_count")

    on_grid, solving = modelled + [dt_g], modelled + [dt_g, solver_g]
    sp = sub.add_parser("stdnorm-check", parents=on_grid, help="variance identity and normality")
    sp.add_argument("--check-paths", type=int, default=100_000, dest="check_paths")

    sp = sub.add_parser("simulate", parents=solving, help="dump one W and one solution path")
    sp.add_argument("--path-index", type=int, default=0, dest="path_index")
    sp.add_argument("--x0-eps", type=float, default=0.05, dest="x0_eps")

    sub.add_parser("sweep", parents=solving + [sweep_g], help="epsilon sweep with bound checks")

    sp = sub.add_parser("transform-check", parents=on_grid, help="cascade vs Euler equivalence")
    sp.add_argument("--paths", type=_positive(int), default=50)

    sp = sub.add_parser("variation-check", parents=on_grid, help="variation vs flow differences")
    sp.add_argument("--paths", type=_positive(int), default=20)
    sp.add_argument("--fd-eps", type=_positive(float), default=1e-5, dest="fd_eps")

    return parser


def _config_overrides(ns: argparse.Namespace) -> dict:
    over = {k: getattr(ns, k) for k in _CONFIG_KEYS if getattr(ns, k, None) is not None}
    for key in {"v", "delta"} & over.keys():
        over[key] = [float(s) for s in str(over[key]).split(",")]
    names = ("start_exponent", "stop_exponent", "per_decade")
    ladder = {k: getattr(ns, "eps_" + k, None) for k in names}
    ladder = {k: v for k, v in ladder.items() if v is not None}
    eps = getattr(ns, "eps", None)
    if eps is not None and ladder:
        raise ConfigError(f"eps_grid: --eps excludes the ladder flags, got {ladder}")
    if eps is not None:
        over["eps_grid"] = [_parse_eps_value(s) for s in eps.split(",")]
    elif ladder:  # a partial ladder fails in ExperimentConfig.epsilons
        over["eps_grid"] = ladder
    return over


def main(argv=None) -> int:
    try:
        code = _main(argv)
        sys.stdout.flush()  # a closed stdout shows here, not in the final flush
        return code
    except BrokenPipeError:
        # the reader closed stdout before the report was out: exit 1, and let
        # the interpreter flush what is left into /dev/null
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def _main(argv) -> int:
    try:
        ns = _build_parser().parse_args(argv)
        config = load_config(ns.config, _config_overrides(ns))
        config.validate(vars(ns))  # a command offers a flag for each key it reads
        return run(ns.command, config, ns)
    except (montecarlo.EstimationFailedError, solvers.SolverExplosionError) as exc:
        print(json.dumps({"check": ns.command, "passed": False, "error": str(exc)}))
        return 1
    except (ConfigError, ValueError, QuadratureToleranceError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
