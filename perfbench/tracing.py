"""Span tracing of sde-lab from the outside, and the per-layer metrics.

A Tracer replaces the functions of the traced modules with thin wrappers for
the duration of one traced job. Each wrapper records one span (name, start,
end, parent span, job id) in flat in-memory arrays; counting hooks read the
call's arguments or result at the same boundary. Nothing in the program is
edited: wrappers are installed at every module-level name (and module-level
dict entry, such as ``cli._COMMANDS``) that holds the original function, so
``montecarlo.solve_cascade_batch`` is traced as well as
``solvers.solve_cascade_batch``, and every binding is restored afterwards.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import threading
import time
from array import array
from collections import Counter, defaultdict

# private functions traced besides every public one
EXTRA_FUNCTIONS = {"solvers": ("_first_bad_steps",), "cli": ("_emit",)}

# per-layer counts that must repeat exactly across traced runs of one seed
EXACT_COUNTS = (
    "solvers.cascade_path_steps",
    "paths.paths_drawn",
    "paths.draws_per_distinct_path",
    "solvers.cascade_useful_frac",
    "solvers.out_bytes",
    "model.eval_mu_jacobian_calls",
    "quadrature.simpson_evals",
    "oracles.ode_solves",
)

# spans whose inclusive time is the CLI's output writing
WRITER_SPANS = (
    "cli._emit",
    "cli.json.dump",
    "montecarlo.sweep_to_csv",
    "paths.write_brownian_csv",
    "solvers.write_solution_csv",
)

def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _size(x) -> int:
    """Element count of an array, a sequence or a scalar."""
    size = getattr(x, "size", None)
    if size is not None:
        return int(size)
    return len(x) if hasattr(x, "__len__") else 1


def _fingerprint(arr) -> str:
    """Identity of an array's shape and contents."""
    import numpy as np

    a = np.ascontiguousarray(arr)
    return hashlib.sha1(repr(a.shape).encode() + a.tobytes()).hexdigest()


def _useful_steps(dt: float, steps: int, k_obs: int, a: float, b: float) -> int:
    """RK4 steps k < k_obs whose interval [t_k, t_k+1] meets the support (a, b)
    of f; every other step of the (X4, X5) loop is an exact no-op."""
    return sum(1 for k in range(min(k_obs, steps)) if (k + 1) * dt > a and k * dt < b)


class _JsonProxy:
    """Stand-in for the ``json`` module inside ``cli``, tracing ``dump``."""

    def __init__(self, module, dump):
        self._module = module
        self.dump = dump

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """In-memory span recorder plus counting hooks for one traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.job_id = -1
        self.counters: Counter = Counter()
        self.info: dict[int, dict] = {}
        self.cascade_calls: list[dict] = []
        self.draws: dict[tuple, list] = defaultdict(list)
        self._local = threading.local()
        self._patches: list[tuple] = []
        self._hooks = {
            "bumps.eval": self._hook_bump_eval,
            "paths.normals_for_seeds": self._hook_normals,
            "paths.brownian_values_batch": self._hook_brownian,
            "quadrature.adaptive_simpson": self._hook_simpson,
            "montecarlo.estimate_distance": self._hook_estimate,
            "solvers.solve_cascade_batch": self._hook_cascade,
            "solvers.solve_em_batch": self._hook_path_steps("em_path_steps", "w"),
            "solvers.solve_variation_batch": self._hook_path_steps(
                "variation_path_steps", "states"
            ),
        }

    # -- span recording -------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open_span(self, name: str) -> int:
        stack = self._stack()
        idx = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(stack[-1] if stack else -1)
        self.job.append(self.job_id)
        self.end.append(0.0)
        stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close_span(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack().pop()

    def active_info(self, name: str) -> dict | None:
        """Info dict of the innermost open span called ``name``."""
        nid = self._name_ids.get(name)
        for idx in reversed(self._stack()):
            if self.name_id[idx] == nid:
                return self.info.get(idx)
        return None

    def wrap(self, name: str, fn):
        hook = self._hooks.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open_span(name)
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                args, kwargs, after = hook(idx, args, kwargs)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result)
                return result
            finally:
                tracer.close_span(idx)

        wrapper.__perfbench_traced__ = True
        return wrapper

    # -- installing and removing wrappers -------------------------------

    def install(self, modules: dict) -> None:
        """Wrap the functions of ``modules`` (short name -> module) at every
        binding in those modules, including module-level dict values."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        targets = {}
        for short, mod in modules.items():
            extra = EXTRA_FUNCTIONS.get(short, ())
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and (not attr.startswith("_") or attr in extra)
                ):
                    targets[obj] = self.wrap(f"{short}.{attr}", obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("__"):
                    continue
                if inspect.isfunction(obj) and obj in targets:
                    self._patch(mod, attr, obj, targets[obj])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if inspect.isfunction(val) and val in targets:
                            self._patch(obj, key, val, targets[val])
        cli = modules.get("cli")
        if cli is not None:
            real = cli.json
            dump = self.wrap("cli.json.dump", real.dump)
            self._patch(cli, "json", real, _JsonProxy(real, dump))

    def _patch(self, owner, key, original, replacement) -> None:
        if isinstance(owner, dict):
            owner[key] = replacement
        else:
            setattr(owner, key, replacement)
        self._patches.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    # -- counting hooks -------------------------------------------------

    def _hook_bump_eval(self, idx, args, kwargs):
        self.counters["bumps.eval_points"] += _size(_arg(args, kwargs, 1, "t"))
        return args, kwargs, None

    def _hook_normals(self, idx, args, kwargs):
        rows = _size(_arg(args, kwargs, 0, "seeds"))
        self.counters["paths.normals"] += rows * int(_arg(args, kwargs, 1, "count"))
        return args, kwargs, None

    def _hook_brownian(self, idx, args, kwargs):
        grid = _arg(args, kwargs, 0, "grid")
        m = int(_arg(args, kwargs, 1, "m"))
        seed = int(_arg(args, kwargs, 2, "master_seed"))
        lo = int(_arg(args, kwargs, 3, "start_index"))
        n = int(_arg(args, kwargs, 4, "n_paths"))
        self.counters["paths.paths_drawn"] += n
        key = (self.job_id, seed, m, grid.steps, float(grid.T))
        self.draws[key].append((lo, lo + n))
        return args, kwargs, None

    def _hook_simpson(self, idx, args, kwargs):
        func = _arg(args, kwargs, 0, "func")
        counters = self.counters

        def counted(x):
            counters["quadrature.simpson_evals"] += 1
            return func(x)

        if args:
            args = (counted,) + tuple(args[1:])
        else:
            kwargs = dict(kwargs, func=counted)
        return args, kwargs, None

    def _hook_estimate(self, idx, args, kwargs):
        self.info[idx] = {"t": float(_arg(args, kwargs, 3, "t"))}
        return args, kwargs, None

    def _hook_cascade(self, idx, args, kwargs):
        axis = _arg(args, kwargs, 0, "axis")
        grid = _arg(args, kwargs, 1, "grid")
        w = _arg(args, kwargs, 2, "w")
        x0 = _arg(args, kwargs, 3, "x0")
        P, K1 = w.shape
        K = K1 - 1
        est = self.active_info("montecarlo.estimate_distance")
        k_obs = K if est is None else min(max(int(round(est["t"] / grid.dt)), 0), K)
        self.cascade_calls.append(
            {
                "job": self.job_id,
                "paths": P,
                "steps": K,
                "useful_steps": _useful_steps(grid.dt, K, k_obs, axis.f.a, axis.f.b),
                # a noise block is identified by its first and last increments
                "key": (_fingerprint(w[:, [1, -1]]), _fingerprint(x0), K, k_obs),
            }
        )
        self.counters["solvers.cascade_path_steps"] += P * K
        return args, kwargs, self._count_out_bytes

    def _hook_path_steps(self, counter, arg_name):
        """Count P*K path-steps from the (P, K+1, ...) array in argument 2."""

        def hook(idx, args, kwargs):
            arr = _arg(args, kwargs, 2, arg_name)
            self.counters[f"solvers.{counter}"] += arr.shape[0] * (arr.shape[1] - 1)
            return args, kwargs, self._count_out_bytes

        return hook

    def _count_out_bytes(self, result) -> None:
        self.counters["solvers.out_bytes"] += int(result.nbytes)

    # -- reduction ------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the union of its child spans' intervals."""
        children = defaultdict(list)
        for idx, par in enumerate(self.parent):
            if par >= 0:
                children[par].append(idx)
        out = []
        for idx in range(len(self.start)):
            s, e = self.start[idx], self.end[idx]
            covered = 0.0
            cur_lo = cur_hi = None
            for lo, hi in sorted(
                (max(self.start[c], s), min(self.end[c], e)) for c in children[idx]
            ):
                if hi <= lo:
                    continue
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            out.append((e - s) - covered)
        return out

    def totals(self):
        """(calls, inclusive seconds, self seconds) per span name.

        Inclusive time counts only the outermost span of a name, so a
        function that recurses into itself is not counted twice.
        """
        selfs = self.self_times()
        calls, incl, excl = Counter(), defaultdict(float), defaultdict(float)
        for idx in range(len(self.start)):
            name = self.names[self.name_id[idx]]
            calls[name] += 1
            excl[name] += selfs[idx]
            par = self.parent[idx]
            nested = False
            while par >= 0:
                if self.name_id[par] == self.name_id[idx]:
                    nested = True
                    break
                par = self.parent[par]
            if not nested:
                incl[name] += self.end[idx] - self.start[idx]
        return calls, incl, excl

    def distinct_paths(self) -> int:
        total = 0
        for ranges in self.draws.values():
            hi_seen = None
            for lo, hi in sorted(ranges):
                if hi_seen is None or lo >= hi_seen:
                    total += hi - lo
                    hi_seen = hi
                elif hi > hi_seen:
                    total += hi - hi_seen
                    hi_seen = hi
        return total

    def useful_frac(self) -> float:
        computed = sum(c["paths"] * c["steps"] for c in self.cascade_calls)
        unique = {}
        for c in self.cascade_calls:
            unique[(c["job"],) + c["key"]] = c["paths"] * c["useful_steps"]
        return sum(unique.values()) / computed if computed else 0.0

    def write_spans(self, fileobj) -> None:
        fileobj.write("name\tstart\tend\tparent\tjob\n")
        for idx in range(len(self.start)):
            fileobj.write(
                f"{self.names[self.name_id[idx]]}\t{self.start[idx]!r}\t"
                f"{self.end[idx]!r}\t{self.parent[idx]}\t{self.job[idx]}\n"
            )


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name's suffix."""
    for suffix, unit in (("_per_s", "1/s"), ("_s", "s"), ("_frac", "frac"),
                         ("_bytes", "B"), ("_per_distinct_path", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def layer_better(name: str) -> str:
    """Direction of improvement: rates and useful fractions go up."""
    return "higher" if name.endswith(("_per_s", "useful_frac")) else "lower"


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(tracer: Tracer, output_bytes: int, overhead_frac: float) -> dict:
    """Per-layer metric values, keyed as in BENCHMARK.json's per_layer list."""
    calls, incl, excl = tracer.totals()
    cnt = tracer.counters
    drawn = cnt["paths.paths_drawn"]
    cascade_steps = cnt["solvers.cascade_path_steps"]
    cascade_s = incl["solvers.solve_cascade_batch"]
    return {
        "paths.normals": cnt["paths.normals"],
        "paths.normals_s": incl["paths.normals_for_seeds"],
        "paths.normals_per_s": _ratio(cnt["paths.normals"], incl["paths.normals_for_seeds"]),
        "paths.path_seed_calls": calls["paths.path_seed"],
        "paths.path_seed_s": incl["paths.path_seed"],
        "paths.brownian_self_s": excl["paths.brownian_values_batch"],
        "paths.paths_drawn": drawn,
        "paths.draws_per_distinct_path": _ratio(drawn, tracer.distinct_paths()),
        "solvers.cascade_calls": calls["solvers.solve_cascade_batch"],
        "solvers.cascade_path_steps": cascade_steps,
        "solvers.cascade_s": cascade_s,
        "solvers.cascade_path_steps_per_s": _ratio(cascade_steps, cascade_s),
        "solvers.bad_scan_s": incl["solvers._first_bad_steps"],
        "solvers.cascade_useful_frac": tracer.useful_frac(),
        "solvers.out_bytes": cnt["solvers.out_bytes"],
        "solvers.em_calls": calls["solvers.solve_em_batch"],
        "solvers.em_path_steps": cnt["solvers.em_path_steps"],
        "solvers.em_s": incl["solvers.solve_em_batch"],
        "solvers.variation_path_steps": cnt["solvers.variation_path_steps"],
        "solvers.variation_s": incl["solvers.solve_variation_batch"],
        "model.eval_mu_calls": calls["model.eval_mu"],
        "model.eval_mu_self_s": excl["model.eval_mu"],
        "model.eval_mu_jacobian_calls": calls["model.eval_mu_jacobian"],
        "model.eval_mu_jacobian_self_s": excl["model.eval_mu_jacobian"],
        "bumps.eval_calls": calls["bumps.eval"],
        "bumps.eval_points": cnt["bumps.eval_points"],
        "bumps.eval_self_s": excl["bumps.eval"],
        "model.build_s": incl["model.build_axis_aligned"] + incl["model.build_general"],
        "bumps.sup_bounds_s": incl["bumps.sup_bounds"],
        "quadrature.simpson_calls": calls["quadrature.adaptive_simpson"],
        "quadrature.simpson_evals": cnt["quadrature.simpson_evals"],
        "quadrature.simpson_s": incl["quadrature.adaptive_simpson"],
        "montecarlo.estimate_calls": calls["montecarlo.estimate_distance"],
        "montecarlo.estimate_self_s": excl["montecarlo.estimate_distance"],
        "bounds.kappa_t_s": incl["bounds.kappa_t"],
        "oracles.ode_solves": calls["oracles.pair_ode_final"],
        "oracles.sweep_means_s": incl["oracles.oracle_sweep_means"],
        "montecarlo.stdnorm_self_s": excl["montecarlo.stdnormality_test"],
        "bounds.stdnorm_variance_s": incl["bounds.stdnorm_variance"],
        "model.verify_bounds_s": incl["model.verify_model_bounds"],
        "cli.write_s": sum(incl[name] for name in WRITER_SPANS),
        "cli.output_bytes": output_bytes,
        "trace.overhead_frac": overhead_frac,
    }
