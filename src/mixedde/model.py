"""Equation model: expressions, specs, hypothesis checks, envelope bounds, window sampling.

The equation under study is

    x'(t) + delta1 * a(t) * x(g(t)) + delta2 * b(t) * x(h(t)) = 0,   t >= t0,

with a, b >= 0, a delayed argument g(t) <= t and an advanced argument h(t) >= t.
Coefficients and arguments are expression trees over t closed under the small
grammar below, which keeps evaluation total on the whole real line:

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := number | 't' | fn '(' expr ')' | '(' expr ')' | '-' factor
    fn     := sin | cos | exp

Besides the leaves const and t, the node kinds are the rows of `_OPERATORS`,
the one list of operator kinds, which evaluation, printing, constant folding
and the parser's function names all read.
"""

from __future__ import annotations

import json
import math
import operator
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .gridfn import (CHUNK, CumulativeIntegral, GridFunction, GridPoints,
                     check_grid_size, grid_cells, node_times)

__all__ = [
    "CoefficientExpr",
    "ExprSyntaxError",
    "ProblemSpec",
    "IVP",
    "Bounds",
    "HypothesisCheck",
    "ValidationReport",
    "SampledProblem",
    "parse_expr",
    "validate_spec",
    "extract_bounds",
    "read_spec",
    "read_ivp",
]


class _Operator(NamedTuple):
    array: Callable  # numpy function, applied to the evaluated arguments
    scalar: Callable  # the same on Python floats, for constant folding
    form: str  # printed form, a format string over the printed arguments


def _exp(x: float) -> float:
    """math.exp, giving inf where math.exp raises OverflowError, as np.exp does."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


_OPERATORS = {
    "add": _Operator(np.add, operator.add, "({}+{})"),
    "sub": _Operator(np.subtract, operator.sub, "({}-{})"),
    "mul": _Operator(np.multiply, operator.mul, "({}*{})"),
    "neg": _Operator(np.negative, operator.neg, "(-{})"),
    "sin": _Operator(np.sin, math.sin, "sin({})"),
    "cos": _Operator(np.cos, math.cos, "cos({})"),
    "exp": _Operator(np.exp, _exp, "exp({})"),
}
# operators printed as calls are the function names the parser accepts
_FUNCTIONS = frozenset(k for k, op in _OPERATORS.items() if op.form == k + "({})")
_MAX_DEPTH = 150  # parsed trees and brackets nest at most this deep
_INFLATION = 1e-6  # relative outward margin of sampled envelope bounds
_ENVELOPE_SAMPLES = 10001  # points per window where no closed form exists


class ExprSyntaxError(ValueError):
    """Raised on malformed expression text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class CoefficientExpr:
    """Expression tree over the time variable t.

    Node kinds: the leaves const and t, and the operators of _OPERATORS over
    one or two subtrees. Evaluation is total for all finite t and vectorises
    over numpy arrays. `parse_expr(str(e))` evaluates identically to e.
    """

    kind: str
    value: float = 0.0
    args: tuple["CoefficientExpr", ...] = ()

    def __post_init__(self):
        if self.kind not in _OPERATORS and self.kind not in ("const", "t"):
            raise ValueError(f"unknown node kind {self.kind!r}")
        # leaves have depth 1; the parser bounds it
        object.__setattr__(self, "_depth", 1 + max((a._depth for a in self.args), default=0))

    # -- constructors ----------------------------------------------------------

    @classmethod
    def const(cls, v: float) -> "CoefficientExpr":
        return cls("const", float(v))

    @classmethod
    def var_t(cls) -> "CoefficientExpr":
        return cls("t")

    def __add__(self, other):
        return CoefficientExpr("add", args=(self, _as_expr(other)))

    def __sub__(self, other):
        return CoefficientExpr("sub", args=(self, _as_expr(other)))

    def __mul__(self, other):
        return CoefficientExpr("mul", args=(self, _as_expr(other)))

    def __neg__(self):
        return CoefficientExpr("neg", args=(self,))

    # -- evaluation ------------------------------------------------------------

    def __call__(self, t):
        arr = np.asarray(t, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            out = self._eval(arr)
        if type(out) is float:  # a constant expression
            out = np.full(arr.shape, out)
        if arr.ndim == 0:
            return float(out)
        return out

    def _eval(self, t: np.ndarray):
        """The value on t: a float for a constant leaf, else t itself or an array
        this evaluation owns, which the operator above writes its result into.

        A float operand gives the bits of its np.full array: add, sub and mul
        round each element alike either way. An operator over constants alone
        runs on an np.full array of t's shape, since sin, cos and exp of a lone
        float may take another numpy loop than they do on an array.
        """
        k = self.kind
        if k == "const":
            return self.value
        if k == "t":
            return t
        args = [a._eval(t) for a in self.args]
        if all(type(x) is float for x in args):
            args[0] = np.full(t.shape, args[0])
        own = next((x for x in args if isinstance(x, np.ndarray) and x is not t), None)
        return _OPERATORS[k].array(*args, out=own)

    # -- printing ----------------------------------------------------------------

    def __str__(self) -> str:
        k = self.kind
        if k == "const":
            v = self.value
            return repr(v) if v >= 0 else f"(-{-v!r})"
        if k == "t":
            return "t"
        return _OPERATORS[k].form.format(*self.args)


def _as_expr(v) -> CoefficientExpr:
    if isinstance(v, CoefficientExpr):
        return v
    return CoefficientExpr.const(float(v))


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_NUMBER_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
_NAME_RE = re.compile(r"[A-Za-z_]\w*")


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.brackets = 0  # currently open '(' of groups and function calls

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> tuple[str, str, int]:
        """(type, text, position); type in {num, name, op, end}."""
        self._skip_ws()
        if self.pos >= len(self.text):
            return ("end", "", self.pos)
        m = _NUMBER_RE.match(self.text, self.pos)
        if m:
            return ("num", m.group(), self.pos)
        m = _NAME_RE.match(self.text, self.pos)
        if m:
            return ("name", m.group(), self.pos)
        return ("op", self.text[self.pos], self.pos)

    def take(self) -> tuple[str, str, int]:
        tok = self.peek()
        self.pos = tok[2] + len(tok[1])
        return tok


def parse_expr(text: str) -> CoefficientExpr:
    """Parse expression text into a CoefficientExpr.

    Raises ExprSyntaxError with the offending position on malformed input, an
    unknown function name, or nesting deeper than _MAX_DEPTH.
    """
    toks = _Tokens(text)
    expr = _parse_sum(toks)
    kind, tok, pos = toks.peek()
    if kind != "end":
        raise ExprSyntaxError(f"unexpected {tok!r} after expression", pos)
    return expr


def _node(kind: str, pos: int, *args: CoefficientExpr) -> CoefficientExpr:
    node = CoefficientExpr(kind, args=args)
    if node._depth > _MAX_DEPTH:
        raise ExprSyntaxError(f"expression nested deeper than {_MAX_DEPTH} levels", pos)
    return node


def _parse_sum(toks: _Tokens) -> CoefficientExpr:
    node = _parse_term(toks)
    while True:
        kind, tok, pos = toks.peek()
        if kind == "op" and tok in "+-":
            toks.take()
            rhs = _parse_term(toks)
            node = _node("add" if tok == "+" else "sub", pos, node, rhs)
        else:
            return node


def _parse_term(toks: _Tokens) -> CoefficientExpr:
    node = _parse_factor(toks)
    while True:
        kind, tok, pos = toks.peek()
        if kind == "op" and tok == "*":
            toks.take()
            node = _node("mul", pos, node, _parse_factor(toks))
        else:
            return node


def _parse_group(toks: _Tokens, pos: int, closing: str) -> CoefficientExpr:
    """The expression after the '(' at pos, up to and including its ')'."""
    toks.brackets += 1
    if toks.brackets > _MAX_DEPTH:
        raise ExprSyntaxError(f"brackets nested deeper than {_MAX_DEPTH} levels", pos)
    inner = _parse_sum(toks)
    k, p, ppos = toks.take()
    if not (k == "op" and p == ")"):
        raise ExprSyntaxError(closing, ppos)
    toks.brackets -= 1
    return inner


def _parse_factor(toks: _Tokens) -> CoefficientExpr:
    kind, tok, pos = toks.take()
    if kind == "num":
        return CoefficientExpr.const(float(tok))
    if kind == "name":
        if tok == "t":
            return CoefficientExpr.var_t()
        if tok in _FUNCTIONS:
            k, p, ppos = toks.take()
            if not (k == "op" and p == "("):
                raise ExprSyntaxError(f"expected '(' after {tok!r}", ppos)
            inner = _parse_group(toks, ppos, "expected ')' to close function argument")
            return _node(tok, pos, inner)
        raise ExprSyntaxError(f"unknown function or variable {tok!r}", pos)
    if kind == "op" and tok == "(":
        return _parse_group(toks, pos, "expected ')'")
    if kind == "op" and tok == "-":
        # a run of signs is read in a loop, not by recursion
        signs = 1
        while toks.peek()[:2] == ("op", "-"):
            toks.take()
            signs += 1
        node = _parse_factor(toks)
        if node.kind == "const":  # a negated number is a number
            node, signs = CoefficientExpr.const(-node.value), signs - 1
        for _ in range(signs):
            node = _node("neg", pos, node)
        return node
    if kind == "end":
        raise ExprSyntaxError("unexpected end of input", pos)
    raise ExprSyntaxError(f"unexpected {tok!r}", pos)


# ---------------------------------------------------------------------------
# Problem types
# ---------------------------------------------------------------------------

HistoryFn = Callable[[float], float]


@dataclass(frozen=True)
class ProblemSpec:
    """The equation x' + delta1*a*x(g) + delta2*b*x(h) = 0 for t >= t0."""

    a: CoefficientExpr
    b: CoefficientExpr
    g: CoefficientExpr
    h: CoefficientExpr
    delta1: int
    delta2: int
    t0: float = 0.0

    def __post_init__(self):
        if self.delta1 not in (-1, 1) or self.delta2 not in (-1, 1):
            raise ValueError("delta1 and delta2 must be +1 or -1")
        if not math.isfinite(self.t0):
            raise ValueError("t0 must be finite")

    @property
    def sign_pattern(self) -> tuple[int, int]:
        return (self.delta1, self.delta2)


@dataclass(frozen=True)
class IVP:
    """Initial value problem: x(t) = phi(t) for t < t0, x(t0) = x0.

    phi may be any callable of t (a CoefficientExpr or a GridFunction both
    qualify).
    """

    spec: ProblemSpec
    phi: HistoryFn
    x0: float

    def __post_init__(self):
        if not math.isfinite(self.x0):
            raise ValueError("x0 must be finite")


@dataclass(frozen=True)
class Bounds:
    """Constant envelope a1 <= a(t) <= a2, b1 <= b(t) <= b2 plus worst-case
    delay tau >= t - g(t) and advance sigma >= h(t) - t on a window."""

    a1: float
    a2: float
    b1: float
    b2: float
    tau: float
    sigma: float
    window: tuple[float, float]
    exact: bool = True

    def __post_init__(self):
        if self.a1 > self.a2 or self.b1 > self.b2:
            raise ValueError("envelope bounds out of order")
        if self.tau < 0 or self.sigma < 0:
            raise ValueError("tau and sigma must be nonnegative")


# ---------------------------------------------------------------------------
# Window sampling
# ---------------------------------------------------------------------------

def _require_finite(name: str, vals, ts: np.ndarray) -> np.ndarray:
    vals = np.asarray(vals, dtype=float)
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        raise ValueError(f"{name}(t) is not finite at t={float(ts[bad[0]]):.6g}")
    return vals


class SampledProblem:
    """a, b, g, h sampled once on the window grid ts = t1 + k*step, k = 0..cells.

    Certificate checks, the seeds and the iteration kernel of the construction,
    relax and equation_residual take their samples from it, and each quantity
    they read off the window is derived here once: the dominance margin, the
    sups of the deviated integrals and of the pointwise test, and the gap
    integrals. A step that is not positive and finite, a grid of more than
    MAX_GRID_POINTS nodes, and any non-finite sample raise ValueError.
    """

    def __init__(self, spec: ProblemSpec, window: tuple[float, float], step: float):
        t1, T = window
        if not (math.isfinite(t1) and math.isfinite(T) and T > t1):
            raise ValueError("window must be finite and nonempty")
        self.spec = spec
        self.window = (t1, T)
        self.step = step
        self.ts = node_times(t1, step, grid_cells(t1, T, step) + 1)
        self.a, self.b, self.g, self.h = (
            _require_finite(name, getattr(spec, name)(self.ts), self.ts)
            for name in "abgh")
        self._gap_integrals: dict[str, tuple[tuple[float, float], ...]] = {}

    @cached_property
    def tau(self) -> float:
        """Largest delay t - g(t) on the grid, at least 0."""
        return max(float(np.max(self.ts - self.g)), 0.0)

    @cached_property
    def sigma(self) -> float:
        """Largest advance h(t) - t on the grid, at least 0."""
        return max(float(np.max(self.h - self.ts)), 0.0)

    @cached_property
    def bounds(self) -> Bounds:
        """extract_bounds on the window."""
        return extract_bounds(self.spec, self.window)

    @cached_property
    def _margins(self) -> dict[str, tuple[float, int]]:
        # fl(b - a) = -fl(a - b): the least b - a sits at the first argmax of a - b
        gap = self.a - self.b
        lo, hi = int(np.argmin(gap)), int(np.argmax(gap))
        return {"delay": (float(gap[lo]), lo),
                "advance": (float(self.b[hi] - self.a[hi]), hi)}

    def margin(self, case: str) -> tuple[float, int]:
        """(least value, first node where it occurs) of a - b on the grid for case
        "delay", of b - a for case "advance"; negative where dominance fails."""
        return self._margins[case]

    def widened_cumulative(self, name: str) -> CumulativeIntegral:
        """The cumulative integral of coefficient `name` on the window grid widened
        by 2*tau + step and 2*sigma + step, built anew: every deviated integral."""
        t1, T = self.window
        lo, hi = t1 - 2.0 * self.tau - self.step, T + 2.0 * self.sigma + self.step
        grid = GridFunction.from_callable(getattr(self.spec, name), lo, hi, self.step)
        if not np.all(np.isfinite(grid.values)):  # the grid's times name the culprit
            _require_finite(name, grid.values, grid.times())
        return grid.cumulative()

    @cached_property
    def _deviated_sups(self) -> dict[tuple[str, str], tuple[float, int]]:
        # over the window nodes, block by block of gridfn.CHUNK, on cumulative
        # integrals of a and b over the widened grid, which are freed on return
        cum_a, cum_b = self.widened_cumulative("a"), self.widened_cumulative("b")
        f = cum_a.f
        n = self.ts.size
        buffers = tuple(np.empty(min(n, CHUNK)) for _ in range(5))
        sups: dict[tuple[str, str], tuple[float, int]] = {}

        def place(t: np.ndarray) -> GridPoints:
            return GridPoints(f.t_start, f.step, len(f.values), t)

        def subtract(x: np.ndarray, y: np.ndarray, out: np.ndarray, saturate: bool) -> None:
            both = (x == math.inf) & (y == math.inf) if saturate else None
            np.subtract(x, y, out=out)
            if both is not None:
                out[both] = math.inf

        def reduce(key: tuple[str, str], values: np.ndarray, lo: int) -> None:
            # np.argmax over the window: its first maximum, or its first nan
            i = int(np.argmax(values))
            value = float(values[i])
            best = sups.get(key)
            if best is None or (not math.isnan(best[0])
                                and (math.isnan(value) or value > best[0])):
                sups[key] = (value, lo + i)

        sat_a, sat_b = cum_a.total == math.inf, cum_b.total == math.inf
        with np.errstate(over="ignore", invalid="ignore"):  # inf - inf: see subtract
            for lo in range(0, n, CHUNK):
                block = slice(lo, lo + CHUNK)
                a, b = self.a[block], self.b[block]
                a_g, a_h, b_g, b_h, h = (x[:a.size] for x in buffers)
                p = place(self.ts[block])
                a_t, b_t = cum_a.at(p, a_h), cum_b.at(p, b_h)
                del p  # one placement is alive at a time
                p = place(self.g[block])
                subtract(a_t, cum_a.at(p, a_g), a_g, sat_a)
                subtract(b_t, cum_b.at(p, b_g), b_g, sat_b)
                del p
                p = place(self.h[block])
                subtract(cum_a.at(p, h), a_t, a_h, sat_a)
                subtract(cum_b.at(p, h), b_t, b_h, sat_b)
                del p
                reduce(("integral", "delay"), a_g, lo)
                reduce(("integral", "advance"), b_h, lo)
                # main * (e^back - 1) * e^ahead - other, in place in back
                for case, main, other, back, ahead in (("delay", a, b, a_g, a_h),
                                                       ("advance", b, a, b_h, b_g)):
                    np.expm1(back, out=back)
                    np.multiply(main, back, out=back)
                    back *= np.exp(ahead, out=ahead)
                    back -= other
                    reduce(("rhs", case), back, lo)
        return sups

    def deviated_sup(self, case: str) -> tuple[float, int]:
        """(sup, first node where it occurs) over the window grid of int_g^t a for
        case "delay", of int_t^h b for case "advance".

        All four sups of the deviated integrals are reduced in one pass over the
        window, a block at a time, so no window-sized integral is kept. Where the
        last node sum of a or b is +inf (past the float range; for a nonnegative
        coefficient it is wherever any is), a difference of two +inf integrals
        saturates to +inf without a warning. Any other nan stays, and a nan is
        the sup at the first node that holds one, as np.argmax reads it.
        """
        return self._deviated_sups[("integral", case)]

    def rhs_sup(self, case: str) -> tuple[float, int]:
        """(sup, first node) of the pointwise test's right-hand side minus the
        other coefficient, a*(e^{int_g^t a} - 1)*e^{int_t^h a} - b for case
        "delay" and b*(e^{int_t^h b} - 1)*e^{int_g^t b} - a for "advance";
        overflow saturates to inf. Reduced with `deviated_sup`'s sups."""
        return self._deviated_sups[("rhs", case)]

    def gap_integrals(self, case: str) -> tuple[tuple[float, float], ...]:
        """(c, int_{t1}^{c} gap) at the window's quarter points c = t1 + k*(T - t1)/4,
        k = 1..4, where the gap is a - b for case "delay" and b - a for "advance",
        by the trapezoid rule on the window grid. Computed once per case, with
        t1 and the four points placed on the grid in one call."""
        if case not in self._gap_integrals:
            gap = self.a - self.b if case == "delay" else self.b - self.a
            t1, T = self.window
            points = tuple(t1 + k * (T - t1) / 4.0 for k in (1, 2, 3, 4))
            at = GridFunction(t1, self.step, gap).cumulative()(np.array((t1, *points)))
            self._gap_integrals[case] = tuple(zip(points, (at[1:] - at[0]).tolist()))
        return self._gap_integrals[case]


# ---------------------------------------------------------------------------
# Hypothesis validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HypothesisCheck:
    hypothesis: str
    passed: bool
    t_violation: float | None = None
    value: float | None = None


@dataclass(frozen=True)
class ValidationReport:
    window: tuple[float, float]
    samples: int
    checks: tuple[HypothesisCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[HypothesisCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)


def validate_spec(spec: ProblemSpec, window: tuple[float, float],
                  samples: int) -> ValidationReport:
    """Sampling check of the standing hypotheses: a, b >= 0 and g <= t <= h.

    A pass is evidence at the sampling fidelity, not a proof; the first
    violating sample point is reported per failed hypothesis. A non-finite
    sample of a, b, g or h raises ValueError.
    """
    lo, hi = window
    if not hi > lo:
        raise ValueError("validation window must be nonempty")
    if samples < 2:
        raise ValueError("need at least 2 samples")
    check_grid_size(samples - 1, f"sampling {samples} points")
    ts = np.linspace(lo, hi, samples)
    a, b, g, h = (_require_finite(name, getattr(spec, name)(ts), ts) for name in "abgh")
    checks = []
    for name, vals, ok in (
        ("a_nonnegative", a, lambda v: v >= 0),
        ("b_nonnegative", b, lambda v: v >= 0),
        ("g_is_delay", g - ts, lambda v: v <= 0),
        ("h_is_advance", h - ts, lambda v: v >= 0),
    ):
        bad = np.flatnonzero(~ok(vals))
        if bad.size:
            i = int(bad[0])
            checks.append(HypothesisCheck(name, False, float(ts[i]), float(vals[i])))
        else:
            checks.append(HypothesisCheck(name, True))
    return ValidationReport((lo, hi), samples, tuple(checks))


# ---------------------------------------------------------------------------
# Envelope bounds
# ---------------------------------------------------------------------------

def _constant_value(e: CoefficientExpr) -> float | None:
    """Value of a t-free subtree, else None."""
    if e.kind == "t":
        return None
    if e.kind == "const":
        return e.value
    parts = [_constant_value(c) for c in e.args]
    if any(p is None for p in parts):
        return None
    return _OPERATORS[e.kind].scalar(*parts)


def _affine_parts(e: CoefficientExpr) -> tuple[float, float, float, float] | None:
    """Decompose e as c0 + ct*t + cs*sin(t) + cc*cos(t) when possible."""
    c = _constant_value(e)
    if c is not None:
        return (c, 0.0, 0.0, 0.0)
    k = e.kind
    if k == "t":
        return (0.0, 1.0, 0.0, 0.0)
    if k == "sin" and e.args[0].kind == "t":
        return (0.0, 0.0, 1.0, 0.0)
    if k == "cos" and e.args[0].kind == "t":
        return (0.0, 0.0, 0.0, 1.0)
    if k == "mul":
        ca, cb = _constant_value(e.args[0]), _constant_value(e.args[1])
        if ca is not None:
            p = _affine_parts(e.args[1])
            return None if p is None else tuple(ca * x for x in p)
        if cb is not None:
            p = _affine_parts(e.args[0])
            return None if p is None else tuple(cb * x for x in p)
        return None
    if k in _FUNCTIONS:
        return None
    # the other operators are linear: they act on the parts one by one
    parts = [_affine_parts(c) for c in e.args]
    if any(p is None for p in parts):
        return None
    return tuple(map(_OPERATORS[k].scalar, *parts))


def _exact_range(e: CoefficientExpr, lo: float, hi: float) -> tuple[float, float] | None:
    """Closed-form min/max over [lo, hi] for affine-plus-sinusoid expressions."""
    parts = _affine_parts(e)
    if parts is None:
        return None
    c0, ct, cs, cc = parts
    val = lambda t: c0 + ct * t + cs * math.sin(t) + cc * math.cos(t)
    cands = [val(lo), val(hi)]
    r = math.hypot(cs, cc)
    if r > 0.0:
        # critical points of ct*t + r*sin(t + phase): cos(t + phase) = -ct/r
        phase = math.atan2(cc, cs)
        if abs(ct) <= r:
            # one candidate per period and base: count the periods as points
            check_grid_size((hi - lo) / (2 * math.pi),
                            f"the critical-point scan of an envelope over [{lo:g}, {hi:g}]")
            psi = math.acos(max(-1.0, min(1.0, -ct / r)))
            for base in (psi, -psi):
                k0 = math.floor((lo + phase - base) / (2 * math.pi))
                t = base - phase + 2 * math.pi * k0
                while t <= hi:
                    if t >= lo:
                        cands.append(val(t))
                    t += 2 * math.pi
    return (min(cands), max(cands))


def extract_bounds(spec: ProblemSpec, window: tuple[float, float]) -> Bounds:
    """Envelope constants for the autonomous-style criteria.

    Ranges of a, b, t-g(t) and h(t)-t over the window. Expressions affine in
    {1, t, sin t, cos t} get closed-form extrema (no inflation); anything else
    is sampled at _ENVELOPE_SAMPLES points and inflated outward by the
    relative margin _INFLATION. Assumes validate_spec passed on the window. A
    closed form over more than MAX_GRID_POINTS periods, or a range that is not
    finite, raises ValueError.
    """
    lo, hi = window
    if not hi > lo:
        raise ValueError("window must be nonempty")
    t = CoefficientExpr.var_t()
    ranges = {}
    all_exact = True
    for key, expr in (("a", spec.a), ("b", spec.b),
                      ("delay", t - spec.g), ("advance", spec.h - t)):
        rng = _exact_range(expr, lo, hi)
        if rng is None:
            all_exact = False
            vals = expr(np.linspace(lo, hi, _ENVELOPE_SAMPLES))
            vlo, vhi = float(np.min(vals)), float(np.max(vals))
            pad_lo = _INFLATION * max(1.0, abs(vlo))
            pad_hi = _INFLATION * max(1.0, abs(vhi))
            rng = (vlo - pad_lo, vhi + pad_hi)
        if not all(map(math.isfinite, rng)):
            raise ValueError(f"the range of {key} on the window is not finite")
        ranges[key] = rng
    return Bounds(
        a1=ranges["a"][0], a2=ranges["a"][1],
        b1=ranges["b"][0], b2=ranges["b"][1],
        tau=max(ranges["delay"][1], 0.0),
        sigma=max(ranges["advance"][1], 0.0),
        window=(lo, hi),
        exact=all_exact,
    )


# ---------------------------------------------------------------------------
# Problem spec files
# ---------------------------------------------------------------------------

def _load_document(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read problem file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed problem file {path!r}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"problem file {path!r} must hold a JSON object")
    return doc


def _number(doc: dict, field: str, origin: str, default: float | None = None) -> float:
    value = doc.get(field, default)
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{field} in {origin!r} must be a number, got {value!r}") from None


def _spec_from_document(doc: dict, origin: str) -> ProblemSpec:
    for field in ("a", "b", "g", "h", "delta1", "delta2", "t0"):
        if field not in doc:
            raise ValueError(f"problem file {origin!r} is missing field {field!r}")
    try:
        exprs = {k: parse_expr(str(doc[k])) for k in ("a", "b", "g", "h")}
    except ExprSyntaxError as exc:
        raise ValueError(f"bad expression in {origin!r}: {exc}") from exc
    d1, d2 = doc["delta1"], doc["delta2"]
    if d1 not in (-1, 1) or d2 not in (-1, 1):
        raise ValueError(f"delta1/delta2 in {origin!r} must be +1 or -1")
    return ProblemSpec(exprs["a"], exprs["b"], exprs["g"], exprs["h"],
                       int(d1), int(d2), _number(doc, "t0", origin))


def read_spec(path: str) -> ProblemSpec:
    """Load a problem spec file (JSON with fields a, b, g, h, delta1, delta2, t0)."""
    return _spec_from_document(_load_document(path), path)


def read_ivp(path: str) -> IVP:
    """Load spec file plus initial data; phi defaults to the constant x0, x0 to 1."""
    doc = _load_document(path)
    spec = _spec_from_document(doc, path)
    x0 = _number(doc, "x0", path, 1.0)
    if "phi" in doc:
        try:
            phi = parse_expr(str(doc["phi"]))
        except ExprSyntaxError as exc:
            raise ValueError(f"bad phi expression in {path!r}: {exc}") from exc
    else:
        phi = CoefficientExpr.const(x0)
    return IVP(spec, phi, x0)
