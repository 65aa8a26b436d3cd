"""Constructive route to positive monotone solutions via integral inequalities.

For the sign pattern x' + a*x(g) - b*x(h) = 0 the logarithmic-derivative
substitution turns the equation into a fixed-point problem for a generating
function u >= 0 (u = -x'/x in the delay-dominant case a >= b, u = x'/x in the
advance-dominant case b >= a). A nonnegative u whose inequality residual is
nonpositive (a supersolution) seeds a pointwise-monotone iteration

    delay:    u <- a(t) * exp(I[g(t),t] u) - b(t) * exp(-I[t,h(t)] u)
    advance:  u <- b(t) * exp(I[t,h(t)] u) - a(t) * exp(-I[g(t),t] u)

whose limit generates the solution x(t) = exp(-/+ I[t1,t] u), x(t1) = 1. The
candidate convention u = 0 for t < t1 means delay integrals are truncated at
t1; advance integrals beyond the grid use the clamped last value and flag the
result, and reported residuals exclude margins of width tau/sigma accordingly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, TextIO

import numpy as np

from . import criteria
from .gridfn import GridFunction, GridPoints
from .model import ProblemSpec, SampledProblem, _exp
from .simulate import _equation_residual

__all__ = [
    "GeneratingCandidate",
    "ConstructionResult",
    "IterationKernel",
    "ineq_residual",
    "iterate",
    "synthesize_solution",
    "witness_candidate",
    "auto_construct",
]

CAVEAT_EXTRAPOLATED = "extrapolation-flagged"
_CASES = ("delay", "advance")
_NEG_TOL = 1e-12


@dataclass(frozen=True)
class GeneratingCandidate:
    """A nonnegative u on [t1, T] with t1 = u.t_start, understood to vanish before t1."""

    u: GridFunction
    case: str  # "delay" (nonincreasing solutions) or "advance" (nondecreasing)

    def __post_init__(self):
        if self.case not in _CASES:
            raise ValueError(f"case must be one of {_CASES}")
        if float(np.min(self.u.values)) < -_NEG_TOL:
            raise ValueError("generating candidate must be nonnegative")

    @classmethod
    def constant(cls, value: float, case: str, window: tuple[float, float],
                 step: float) -> "GeneratingCandidate":
        return cls(GridFunction.constant(value, *window, step), case)

    @classmethod
    def from_callable(cls, fn: Callable, case: str, window: tuple[float, float],
                      step: float) -> "GeneratingCandidate":
        return cls(GridFunction.from_callable(fn, *window, step), case)


@dataclass(frozen=True)
class ConstructionResult:
    u_limit: GridFunction
    x: GridFunction
    iterations: int
    max_ineq_residual: float  # fixed-point defect |u - map(u)| at the limit
    max_eq_residual: float
    converged: bool
    caveats: tuple[str, ...] = ()

    def to_csv(self, dest: TextIO) -> None:
        dest.write("t,u,x\n")
        for t, u, x in zip(self.u_limit.times(), self.u_limit.values, self.x.values):
            dest.write(f"{float(t)!r},{float(u)!r},{float(x)!r}\n")


class IterationKernel:
    """One application of the generating-function map on a sampled window grid."""

    def __init__(self, sampled: SampledProblem, case: str):
        if case not in _CASES:
            raise ValueError(f"case must be one of {_CASES}")
        self.sampled = sampled
        self.case = case
        t1, step, ts = sampled.window[0], sampled.step, sampled.ts
        # u vanishes before t1, so delay integrals start no earlier than t1;
        # u lives on the window grid, so each point set is placed on it once
        self._points = tuple(GridPoints(t1, step, ts.size, t)
                             for t in (ts, np.maximum(sampled.g, t1), sampled.h))
        self.extrapolates = bool(np.any(sampled.h > ts[-1] + 1e-12 * step))

    def apply(self, u_vals: np.ndarray) -> np.ndarray:
        sp = self.sampled
        cum = GridFunction(sp.window[0], sp.step, u_vals).cumulative()
        at_nodes, at_g, at_h = (cum.at(p) for p in self._points)
        int_delay, int_advance = at_nodes - at_g, at_h - at_nodes
        with np.errstate(over="ignore", invalid="ignore"):  # overflow saturates to inf
            if self.case == "delay":
                return sp.a * np.exp(int_delay) - sp.b * np.exp(-int_advance)
            return sp.b * np.exp(int_advance) - sp.a * np.exp(-int_delay)


def _require_pattern(spec: ProblemSpec, who: str) -> None:
    if spec.sign_pattern != (1, -1):
        raise ValueError(
            f"{who} needs the sign pattern delta1=+1, delta2=-1, "
            f"got {spec.sign_pattern}")


def _require_stopping_rule(tol: float, max_iter: int) -> None:
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError("tol must be positive and finite")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")


def _candidate_values(u0: GeneratingCandidate, sp: SampledProblem) -> np.ndarray:
    if abs(u0.u.t_start - sp.window[0]) > 1e-9 * sp.step:
        raise ValueError("candidate activation time must match the window start")
    return np.asarray(u0.u(sp.ts), dtype=float)


def ineq_residual(u: GeneratingCandidate, spec: ProblemSpec, t: float) -> float:
    """The inequality residual of u at t; nonpositive = inequality holds.

    delay case:   a(t)*e^{int_g^t u} - b(t)*e^{-int_t^h u} - u(t)
    advance case: b(t)*e^{int_t^h u} - a(t)*e^{-int_g^t u} - u(t)
    """
    _require_pattern(spec, "ineq_residual")
    if t < u.u.t_start:
        raise ValueError("t must not precede the candidate's activation time")
    d = u.u.integrate(max(float(spec.g(t)), u.u.t_start), t)
    adv = u.u.integrate(t, float(spec.h(t)))
    a, b = float(spec.a(t)), float(spec.b(t))
    if u.case == "delay":
        return a * _exp(d) - b * _exp(-adv) - u.u(t)
    return b * _exp(adv) - a * _exp(-d) - u.u(t)


def _iterate(kernel: IterationKernel, u0: GeneratingCandidate, tol: float,
             max_iter: int) -> ConstructionResult:
    case, sp = kernel.case, kernel.sampled
    dom = sp.a - sp.b if case == "delay" else sp.b - sp.a
    if float(np.min(dom)) < -_NEG_TOL:
        i = int(np.argmin(dom))
        need = "a(t) >= b(t)" if case == "delay" else "b(t) >= a(t)"
        raise ValueError(f"dominance hypothesis {need} fails at t={sp.ts[i]:.6g}")

    u_prev = _candidate_values(u0, sp)
    first = kernel.apply(u_prev)
    worst = float(np.max(first - u_prev))
    if worst > tol:
        i = int(np.argmax(first - u_prev))
        raise ValueError(
            f"u0 is not a supersolution: inequality residual {worst:.3e} > {tol:.1e} "
            f"at t={sp.ts[i]:.6g}")

    u = first
    iterations = 1
    delta = float(np.max(np.abs(u - u_prev)))
    while delta > tol and iterations < max_iter:
        nxt = kernel.apply(u)
        iterations += 1
        delta = float(np.max(np.abs(nxt - u)))
        u = nxt
    converged = delta <= tol

    u_limit = GridFunction(sp.window[0], sp.step, u)
    defect = float(np.max(np.abs(kernel.apply(u) - u)))
    x = synthesize_solution(u_limit, case)
    eq_res = _equation_residual(x, sp)  # x lies on the kernel's grid
    caveats = (CAVEAT_EXTRAPOLATED,) if kernel.extrapolates else ()
    return ConstructionResult(u_limit, x, iterations, defect, eq_res, converged, caveats)


def iterate(u0: GeneratingCandidate, spec: ProblemSpec, window: tuple[float, float],
            tol: float = 1e-8, max_iter: int = 10000) -> ConstructionResult:
    """Monotone iteration from the supersolution u0 on a grid of u0's step.

    u0.case picks the map: "delay" needs a >= b and gives a nonincreasing x,
    "advance" needs b >= a and gives a nondecreasing x. tol must be positive
    and finite and max_iter at least 1, or ValueError is raised.
    """
    _require_pattern(spec, "iterate")
    _require_stopping_rule(tol, max_iter)
    kernel = IterationKernel(SampledProblem(spec, window, u0.u.step), u0.case)
    return _iterate(kernel, u0, tol, max_iter)


def synthesize_solution(u: GridFunction, case: str) -> GridFunction:
    """x(t) = exp(-/+ int_{t1}^{t} u) on u's grid with t1 = u.t_start, so x(t1) = 1;
    the sign is minus (x nonincreasing) for case "delay", plus for "advance"."""
    if case not in _CASES:
        raise ValueError(f"case must be one of {_CASES}")
    if float(np.min(u.values)) < -_NEG_TOL:
        raise ValueError("u must be nonnegative")
    cum = u.cumulative()
    integral = cum(u.times()) - cum(u.t_start)
    with np.errstate(over="ignore"):  # overflow saturates to inf
        vals = np.exp(-integral) if case == "delay" else np.exp(integral)
    return GridFunction(u.t_start, u.step, vals)


# ---------------------------------------------------------------------------
# Starter candidates
# ---------------------------------------------------------------------------

def witness_candidate(condition_id: str, spec: ProblemSpec,
                      window: tuple[float, float], step: float,
                      lam: float | None = None) -> GeneratingCandidate:
    """The constructive witness u0 behind an explicit sufficient condition.

    COR_1_2 -> u = a, COR_1_4_REMARK -> u = e*a, COR_1_3 -> the constant
    characteristic root; mirrored with b for the COR_2_x family.
    """
    t1, T = window
    delay = {"COR_1_2": 1.0, "COR_1_4_REMARK": math.e}
    advance = {"COR_2_2": 1.0, "COR_2_4_REMARK": math.e}
    if condition_id in delay:
        scale = delay[condition_id]
        return GeneratingCandidate.from_callable(
            lambda t: scale * spec.a(t), "delay", window, step)
    if condition_id in advance:
        scale = advance[condition_id]
        return GeneratingCandidate.from_callable(
            lambda t: scale * spec.b(t), "advance", window, step)
    if condition_id in ("COR_1_3", "COR_2_3"):
        if lam is None:
            raise ValueError(f"{condition_id} witness needs its characteristic root")
        case = "delay" if condition_id == "COR_1_3" else "advance"
        return GeneratingCandidate.constant(lam, case, window, step)
    raise ValueError(f"no constructive witness for {condition_id}")


def auto_construct(spec: ProblemSpec, window: tuple[float, float],
                   step: float = 1e-3, tol: float = 1e-8,
                   max_iter: int = 10000) -> ConstructionResult:
    """Construct a positive monotone solution trying default seeds in order.

    Samples the window once, picks the dominant case from a and b on that grid,
    then runs u0 = dominant coefficient, u0 = constant characteristic-envelope
    root and u0 = e * dominant coefficient through one kernel. Each seed is
    built only after the one before it fails, so the envelope bounds and the
    root scan behind the second seed cost nothing when the first converges. A
    caller with a seed of its own uses `iterate`. tol and max_iter are checked
    as in `iterate`, once, before any seed is tried.
    """
    _require_pattern(spec, "auto_construct")
    _require_stopping_rule(tol, max_iter)
    sampled = SampledProblem(spec, window, step)
    gap = sampled.a - sampled.b
    if float(np.min(gap)) >= -_NEG_TOL:
        case = "delay"
    elif float(np.max(gap)) <= _NEG_TOL:
        case = "advance"
    else:
        raise ValueError("neither dominance hypothesis holds: a-b changes sign "
                         "on the window")

    base, envelope, remark = (("COR_1_2", "COR_1_3", "COR_1_4_REMARK") if case == "delay"
                              else ("COR_2_2", "COR_2_3", "COR_2_4_REMARK"))

    def seeds():
        yield witness_candidate(base, spec, window, step)
        root = criteria._run(envelope, sampled)
        if root.holds:
            yield witness_candidate(envelope, spec, window, step, lam=root.witness["lambda"])
        yield witness_candidate(remark, spec, window, step)

    kernel = IterationKernel(sampled, case)
    last_error: Exception | None = None
    for seed in seeds():
        try:
            return _iterate(kernel, seed, tol, max_iter)
        except ValueError as exc:
            last_error = exc
    raise ValueError(f"no admissible starter candidate found: {last_error}")
