"""Call tracing from outside the program: wrap mixedde's functions, count and time.

`Tracer.install()` replaces each traced function at every binding site where
callers look it up: the defining module, `from .x import name` copies in
sibling modules, and the package's re-exports. Methods are replaced on their
class. `uninstall()` puts every original object back. Spans nest: a span's
self time is its duration minus the time of the traced spans it encloses.

The public functions of every module are wrapped, so self times are exact;
the metrics reported are the ones listed in LAYER_METRICS.
"""

from __future__ import annotations

import importlib
import inspect
import math
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

MODULES = ("model", "gridfn", "construct", "criteria", "charroots", "simulate")
CLI_SUBCOMMANDS = ("check", "construct", "region", "roots", "simulate")


@dataclass
class Stat:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0
    counts: dict = field(default_factory=lambda: defaultdict(float))


# -- hooks: per-call counters read from arguments and results -----------------

def _points(stat, args, kwargs, result):
    stat.counts["points"] += np.size(args[1])


def _nodes(stat, args, kwargs, result):
    stat.counts["nodes"] += len(args[1].values)


def _iterate(stat, args, kwargs, result):
    stat.counts["success"] += 1
    stat.counts["iterations"] += result.iterations


def _sys30(stat, args, kwargs, result):
    route = result.witness.get("route", "unknown") if result.holds else "fails"
    stat.counts[route] += 1


def _sweep(stat, args, kwargs, result):
    stat.counts["cells"] += result.feasible.size


def _roots(stat, args, kwargs, result):
    # the scan grid of find_real_roots; no caller passes scan_step
    lo, hi = result.brackets_scanned
    stat.counts["scan_points"] += math.ceil((hi - lo) / kwargs.get("scan_step", 1e-3)) + 1
    stat.counts["roots"] += len(result.roots)


def _relax(stat, args, kwargs, result):
    stat.counts["sweeps"] += result.relaxation_iterations
    stat.counts["nodes"] += result.x.values.size
    stat.counts["converged"] += bool(result.converged)


# (module, owner inside the module or None for a module function, attribute,
#  span name, hook) for the targets that are private or need a hook
_TARGETS = (
    ("model", "CoefficientExpr", "__call__", "model.expr_eval", _points),
    ("model", None, "read_ivp", "model.read_spec", None),
    ("gridfn", "CumulativeIntegral", "__init__", "gridfn.cumulative_build", _nodes),
    ("gridfn", "CumulativeIntegral", "__call__", "gridfn.cumulative_eval", _points),
    ("gridfn", "GridFunction", "from_callable", "gridfn.from_callable", None),
    ("gridfn", "GridFunction", "integrate_flagged", "gridfn.integrate", None),
    ("construct", "IterationKernel", "__init__", "construct.kernel_build", None),
    ("construct", "IterationKernel", "apply", "construct.kernel_apply", None),
    ("construct", None, "_iterate", "construct.iterate", _iterate),
    ("criteria", "_Context", "__init__", "criteria.context_build", None),
    ("criteria", None, "_bisect_slack_root", "criteria.boundary_bisect", None),
    ("criteria", None, "check_sys30", "criteria.check_sys30", _sys30),
    ("criteria", None, "sweep_region", "criteria.sweep_region", _sweep),
    ("charroots", None, "find_real_roots", "charroots.find_real_roots", _roots),
    ("simulate", None, "relax", "simulate.relax", _relax),
)

# (metric name, unit) in the order BENCHMARK.json lists them
LAYER_METRICS = [
    ("model.expr_eval.calls", "count"), ("model.expr_eval.points", "count"),
    ("model.expr_eval.s", "s"), ("model.validate_spec.s", "s"),
    ("model.extract_bounds.s", "s"), ("model.read_spec.s", "s"),
    ("gridfn.cumulative_build.calls", "count"), ("gridfn.cumulative_build.nodes", "count"),
    ("gridfn.cumulative_build.s", "s"),
    ("gridfn.cumulative_eval.calls", "count"), ("gridfn.cumulative_eval.points", "count"),
    ("gridfn.cumulative_eval.s", "s"),
    ("gridfn.from_callable.calls", "count"), ("gridfn.from_callable.s", "s"),
    ("gridfn.integrate.calls", "count"), ("gridfn.integrate.s", "s"),
    ("construct.auto_construct.s", "s"),
    ("construct.kernel_build.calls", "count"), ("construct.kernel_build.s", "s"),
    ("construct.kernel_apply.calls", "count"), ("construct.kernel_apply.s", "s"),
    ("construct.iterations", "count"), ("construct.seeds_tried", "count"),
    ("construct.seed_success_ratio", "ratio"),
    ("criteria.check_all.calls", "count"), ("criteria.check_all.s", "s"),
    ("criteria.context_build.calls", "count"), ("criteria.context_build.s", "s"),
    ("criteria.check_sys30.calls", "count"), ("criteria.check_sys30.s", "s"),
    ("criteria.boundary_bisect.calls", "count"), ("criteria.boundary_bisect.s", "s"),
    ("criteria.sys30_route.monotone-inversion", "count"),
    ("criteria.sys30_route.grid-sweep", "count"),
    ("criteria.sys30_route.degenerate", "count"),
    ("criteria.sys30_route.fails", "count"),
    ("criteria.sys30_feasible_ratio", "ratio"),
    ("criteria.sweep_region.cells", "count"), ("criteria.sweep_region.s", "s"),
    ("charroots.find_real_roots.calls", "count"), ("charroots.find_real_roots.s", "s"),
    ("charroots.scan_points", "count"), ("charroots.roots_found", "count"),
    ("simulate.relax.calls", "count"), ("simulate.relax.s", "s"),
    ("simulate.relax.sweeps", "count"), ("simulate.relax.nodes", "count"),
    ("simulate.relax.converged_ratio", "ratio"), ("simulate.relax.s_per_sweep", "s"),
    ("simulate.equation_residual.calls", "count"), ("simulate.equation_residual.s", "s"),
] + [(f"cli.{sub}.self_s", "s") for sub in CLI_SUBCOMMANDS]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Counts and times calls into mixedde; install() patches, uninstall() restores."""

    def __init__(self):
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.absent: list[str] = []
        self.active = True   # cleared while the caller checks outputs
        self._children: list[float] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def reset(self) -> None:
        self.stats = defaultdict(Stat)

    def take(self) -> dict[str, Stat]:
        """The calls recorded since the last reset() or take(); recording restarts."""
        stats, self.stats = self.stats, defaultdict(Stat)
        return stats

    def add(self, stats: dict[str, Stat]) -> None:
        """Fold calls returned by take() back into the record."""
        for name, st in stats.items():
            mine = self.stats[name]
            mine.calls += st.calls
            mine.s += st.s
            mine.self_s += st.self_s
            for key, value in st.counts.items():
                mine.counts[key] += value

    def _wrap(self, fn, name, hook=None):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = name(args, kwargs) if callable(name) else name
            self._children.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = self._children.pop()
                stat = self.stats[span]
                stat.calls += 1
                stat.s += dt
                stat.self_s += dt - child
                if self._children:
                    self._children[-1] += dt
            if hook is not None:
                hook(stat, args, kwargs, result)
            return result
        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    # -- patching -------------------------------------------------------------

    def _patch_function(self, fn, wrapper) -> None:
        """Replace fn wherever a mixedde module binds it."""
        for mod in [m for n, m in sys.modules.items()
                    if n == "mixedde" or n.startswith("mixedde.")]:
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    self._restore.append((mod, attr, val))
                    setattr(mod, attr, wrapper)

    def _patch_method(self, cls, attr, name, hook) -> None:
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            wrapper = classmethod(self._wrap(original.__func__, name, hook))
        else:
            wrapper = self._wrap(original, name, hook)
        self._restore.append((cls, attr, original))
        setattr(cls, attr, wrapper)

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        self.absent = []
        special = {}
        for mod_name, owner, attr, name, hook in _TARGETS:
            mod = importlib.import_module(f"mixedde.{mod_name}")
            if owner is None:
                fn = getattr(mod, attr, None)
                if fn is None:
                    self.absent.append(name)
                else:
                    special[fn] = (name, hook)
                continue
            cls = getattr(mod, owner, None)
            if cls is None or attr not in cls.__dict__:
                self.absent.append(name)
            else:
                self._patch_method(cls, attr, name, hook)
        functions = dict(special)
        for mod_name in MODULES:
            mod = importlib.import_module(f"mixedde.{mod_name}")
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    functions.setdefault(fn, (f"{mod_name}.{attr}", None))
        for fn, (name, hook) in functions.items():
            self._patch_function(fn, self._wrap(fn, name, hook))
        cli = importlib.import_module("mixedde.cli")
        self._patch_function(cli.main, self._wrap(
            cli.main, lambda args, kwargs: f"cli.{(args[0] if args else kwargs['argv'])[0]}"))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- reporting ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """LAYER_METRICS values from the calls recorded since reset()."""
        st = self.stats
        out: dict[str, float] = {}
        for span in ("model.expr_eval", "gridfn.cumulative_build", "gridfn.cumulative_eval",
                     "gridfn.from_callable", "gridfn.integrate", "construct.kernel_build",
                     "construct.kernel_apply", "criteria.check_all", "criteria.context_build",
                     "criteria.check_sys30", "criteria.boundary_bisect",
                     "charroots.find_real_roots", "simulate.relax",
                     "simulate.equation_residual"):
            out[f"{span}.calls"] = st[span].calls
            out[f"{span}.s"] = st[span].s
        for span in ("model.validate_spec", "model.extract_bounds", "model.read_spec",
                     "construct.auto_construct", "criteria.sweep_region"):
            out[f"{span}.s"] = st[span].s
        out["model.expr_eval.points"] = st["model.expr_eval"].counts["points"]
        out["gridfn.cumulative_build.nodes"] = st["gridfn.cumulative_build"].counts["nodes"]
        out["gridfn.cumulative_eval.points"] = st["gridfn.cumulative_eval"].counts["points"]
        it = st["construct.iterate"]
        out["construct.iterations"] = it.counts["iterations"]
        out["construct.seeds_tried"] = it.calls
        out["construct.seed_success_ratio"] = _ratio(it.counts["success"], it.calls)
        sys30 = st["criteria.check_sys30"]
        for route in ("monotone-inversion", "grid-sweep", "degenerate", "fails"):
            out[f"criteria.sys30_route.{route}"] = sys30.counts[route]
        out["criteria.sys30_feasible_ratio"] = _ratio(sys30.calls - sys30.counts["fails"],
                                                      sys30.calls)
        out["criteria.sweep_region.cells"] = st["criteria.sweep_region"].counts["cells"]
        roots = st["charroots.find_real_roots"]
        out["charroots.scan_points"] = roots.counts["scan_points"]
        out["charroots.roots_found"] = roots.counts["roots"]
        relax = st["simulate.relax"]
        out["simulate.relax.sweeps"] = relax.counts["sweeps"]
        out["simulate.relax.nodes"] = relax.counts["nodes"]
        out["simulate.relax.converged_ratio"] = _ratio(relax.counts["converged"], relax.calls)
        # approximate: relax time includes the gain probe and set-up
        out["simulate.relax.s_per_sweep"] = _ratio(relax.s, relax.counts["sweeps"])
        for sub in CLI_SUBCOMMANDS:
            out[f"cli.{sub}.self_s"] = st[f"cli.{sub}"].self_s
        return {name: float(out[name]) for name, _ in LAYER_METRICS}
