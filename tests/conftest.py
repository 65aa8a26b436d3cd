import json
import math
import tracemalloc

import numpy as np
import pytest

from mixedde import ProblemSpec, construct, criteria, model, parse_expr, simulate
from mixedde.gridfn import CHUNK, GridPoints

# frozen oracle values (independent computation: closed forms and bracketed
# bisection at 1e-14, see individual tests for the defining equations)
LAM2 = 0.5436172582885277          # positive root of -l + 1.4 e^{0.3l} - 1.3 e^{-0.3l}
EX1_ROOTS = (-4.2281707151223165, 0.5436172582885253, 3.3540851027634084)
EX1_INEQ_VALUE = 0.926738643720171            # 1.4 e^{0.3} - 1.3 e^{-0.3}
EX2_RESIDUAL_T0 = -0.14404873750331482        # 1.375 e^{0.3} - 1.35 e^{-0.3} - 1
EX3_PROBE = (1.9004548649617536, 2.475429785460149)
EX2_I100 = 5.016101169220552                  # int_0^100 (a - b)


# the paper's example problems, as overrides of the spec_fields defaults
EXAMPLES = {
    "ex1": {},
    "ex2": dict(a="1.375+0.025*sin(t)", b="1.325+0.025*cos(t)"),
    "ex3": dict(a="1.3+0.1*sin(t)", b="1.7+0.1*cos(t)",
                g="t-0.1-0.1*cos(t)", h="t+0.2+0.1*sin(t)", delta1=-1, delta2=1),
    "ex4": dict(a="1", b="1", g="t-0.2", h="t+0.3", delta1=-1, delta2=1),
}


def spec_fields(**kw) -> dict:
    doc = {"a": "1.4", "b": "1.3", "g": "t-0.3", "h": "t+0.3",
           "delta1": 1, "delta2": -1, "t0": 0.0}
    doc.update(kw)
    return doc


def make_spec(**kw) -> ProblemSpec:
    doc = spec_fields(**kw)
    return ProblemSpec(parse_expr(doc["a"]), parse_expr(doc["b"]),
                       parse_expr(doc["g"]), parse_expr(doc["h"]),
                       doc["delta1"], doc["delta2"], doc["t0"])


@pytest.fixture
def ex1_spec() -> ProblemSpec:
    return make_spec()


@pytest.fixture
def ex2_spec() -> ProblemSpec:
    return make_spec(**EXAMPLES["ex2"])


@pytest.fixture
def ex3_spec() -> ProblemSpec:
    return make_spec(**EXAMPLES["ex3"])


def write_spec_file(path, **kw) -> str:
    path.write_text(json.dumps(spec_fields(**kw)))
    return str(path)


def peak_window_arrays(run, n: int) -> float:
    """The traced peak of run(), in float arrays of a window grid of n nodes."""
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (8 * n)


@pytest.fixture
def sampled_builds(monkeypatch) -> list:
    """Arguments of every SampledProblem built while the test runs."""
    built = []

    class Counting(model.SampledProblem):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    for module in (model, criteria, construct, simulate):
        monkeypatch.setattr(module, "SampledProblem", Counting)
    return built


# -- CumulativeIntegral as first written, the oracle of its placed evaluation ----

def _where_nodes(f):
    """Node sums of CumulativeIntegral.__init__ as first written (temporaries)."""
    v = f.values
    cells = 0.5 * (v[:-1].astype(np.longdouble) + v[1:]) * np.longdouble(f.step)
    nodes = np.concatenate(([np.longdouble(0.0)], np.cumsum(cells)))
    return nodes.astype(float)


def _where_eval(self, t):
    """CumulativeIntegral.__call__ as first written (two full-array np.where
    passes, positions recomputed per call), kept as the oracle of `at`."""
    f = self.f
    tt = np.asarray(t, dtype=float)
    v = f.values
    pos = (tt - f.t_start) / f.step
    idx = np.clip(np.floor(pos).astype(int), 0, len(v) - 2)
    frac = pos - idx
    inside = self._nodes[idx] + f.step * (
        v[idx] * frac + 0.5 * (v[idx + 1] - v[idx]) * frac * frac
    )
    below = v[0] * (tt - f.t_start)
    above = self._nodes[-1] + v[-1] * (tt - f.t_end)
    out = np.where(pos < 0.0, below, np.where(pos > len(v) - 1.0, above, inside))
    if tt.ndim == 0:
        return float(out)
    return out


# -- SampledProblem's deviated integrals as full arrays, the oracle of its sups --

def deviated_as_first_written(sp):
    """int_g^t a, int_t^h a, int_g^t b and int_t^h b at every window node, as
    SampledProblem built them before it kept only their sups: full arrays,
    block by block, with +inf - +inf saturated where a node sum is +inf."""
    cum_a, cum_b = sp.widened_cumulative("a"), sp.widened_cumulative("b")
    f = cum_a.f
    n = sp.ts.size
    a_g, a_h, b_g, b_h = out = tuple(np.empty(n) for _ in range(4))
    scratch = np.empty(min(n, CHUNK))

    def place(t):
        return GridPoints(f.t_start, f.step, len(f.values), t)

    def subtract(x, y, out, saturate):
        both = (x == math.inf) & (y == math.inf) if saturate else None
        np.subtract(x, y, out=out)
        if both is not None:
            out[both] = math.inf

    sat_a, sat_b = cum_a.total == math.inf, cum_b.total == math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n, CHUNK):
            block = slice(lo, lo + CHUNK)
            p = place(sp.ts[block])
            a_t, b_t = cum_a.at(p, a_h[block]), cum_b.at(p, b_h[block])
            p = place(sp.g[block])
            subtract(a_t, cum_a.at(p, a_g[block]), a_g[block], sat_a)
            subtract(b_t, cum_b.at(p, b_g[block]), b_g[block], sat_b)
            p = place(sp.h[block])
            h = scratch[:a_t.size]
            subtract(cum_a.at(p, h), a_t, a_t, sat_a)
            subtract(cum_b.at(p, h), b_t, b_t, sat_b)
    return out


def rhs_as_first_written(sp, case, deviated):
    """The pointwise test's right-hand side minus the other coefficient at every
    window node, as criteria._cor_x_2 computed it from the four full arrays."""
    a_g, a_h, b_g, b_h = deviated
    main, other, back, ahead = ((sp.a, sp.b, a_g, a_h) if case == "delay"
                                else (sp.b, sp.a, b_h, b_g))
    with np.errstate(over="ignore", invalid="ignore"):
        rhs = np.expm1(back)
        np.multiply(main, rhs, out=rhs)
        rhs *= np.exp(ahead)
        rhs -= other
    return rhs


def _bits(x):
    """Bit patterns, so that signed zeros and NaN payloads count too."""
    return np.asarray(x, dtype=float).view(np.int64)


# -- CoefficientExpr's walks as first written, the oracles of its operator table --
# Copied from the if-chains over node kinds that the table replaced; only the
# recursive calls are renamed, so that they reach these copies.

def _chain_eval(self, t: np.ndarray):
    """CoefficientExpr._eval as first written."""
    k = self.kind
    if k == "const":
        return np.full(t.shape, self.value)
    if k == "t":
        return t
    a = self.args
    if k == "add":
        return _chain_eval(a[0], t) + _chain_eval(a[1], t)
    if k == "sub":
        return _chain_eval(a[0], t) - _chain_eval(a[1], t)
    if k == "mul":
        return _chain_eval(a[0], t) * _chain_eval(a[1], t)
    if k == "neg":
        return -_chain_eval(a[0], t)
    if k == "sin":
        return np.sin(_chain_eval(a[0], t))
    if k == "cos":
        return np.cos(_chain_eval(a[0], t))
    return np.exp(_chain_eval(a[0], t))


def _chain_str(self) -> str:
    """CoefficientExpr.__str__ as first written."""
    k = self.kind
    if k == "const":
        v = self.value
        return repr(v) if v >= 0 else f"(-{-v!r})"
    if k == "t":
        return "t"
    a = self.args
    if k == "add":
        return f"({_chain_str(a[0])}+{_chain_str(a[1])})"
    if k == "sub":
        return f"({_chain_str(a[0])}-{_chain_str(a[1])})"
    if k == "mul":
        return f"({_chain_str(a[0])}*{_chain_str(a[1])})"
    if k == "neg":
        return f"(-{_chain_str(a[0])})"
    return f"{k}({_chain_str(a[0])})"


def _exp_or_inf(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _chain_constant_value(e) -> float | None:
    """model._constant_value as first written, with exp giving inf past the range
    where math.exp raises OverflowError."""
    if e.kind == "t":
        return None
    if e.kind == "const":
        return e.value
    parts = [_chain_constant_value(c) for c in e.args]
    if any(p is None for p in parts):
        return None
    if e.kind == "add":
        return parts[0] + parts[1]
    if e.kind == "sub":
        return parts[0] - parts[1]
    if e.kind == "mul":
        return parts[0] * parts[1]
    if e.kind == "neg":
        return -parts[0]
    fn = {"sin": math.sin, "cos": math.cos, "exp": _exp_or_inf}[e.kind]
    return fn(parts[0])


def _chain_affine_parts(e) -> tuple[float, float, float, float] | None:
    """model._affine_parts as first written."""
    c = _chain_constant_value(e)
    if c is not None:
        return (c, 0.0, 0.0, 0.0)
    k = e.kind
    if k == "t":
        return (0.0, 1.0, 0.0, 0.0)
    if k in ("sin", "cos"):
        if e.args[0].kind == "t":
            return (0.0, 0.0, 1.0, 0.0) if k == "sin" else (0.0, 0.0, 0.0, 1.0)
        return None
    if k == "neg":
        p = _chain_affine_parts(e.args[0])
        return None if p is None else tuple(-x for x in p)
    if k in ("add", "sub"):
        pa, pb = _chain_affine_parts(e.args[0]), _chain_affine_parts(e.args[1])
        if pa is None or pb is None:
            return None
        sgn = 1.0 if k == "add" else -1.0
        return tuple(x + sgn * y for x, y in zip(pa, pb))
    if k == "mul":
        ca, cb = _chain_constant_value(e.args[0]), _chain_constant_value(e.args[1])
        if ca is not None:
            p = _chain_affine_parts(e.args[1])
            return None if p is None else tuple(ca * x for x in p)
        if cb is not None:
            p = _chain_affine_parts(e.args[0])
            return None if p is None else tuple(cb * x for x in p)
        return None
    return None
