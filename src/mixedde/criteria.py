"""Explicit sufficient-condition engine: evaluate nonoscillation criteria on a window.

Every check returns a Certificate: an identified condition, a verdict
(holds_on_window / fails_on_window / inapplicable), witness data, and caveats.
All asymptotic hypotheses (limsup bounds, divergent integrals, "for t
sufficiently large") are evaluated on the finite window only, so certificates
carry the window-limited caveat; conditions whose derivation assumes
equicontinuous arguments additionally carry unverified-equicontinuity.

Naming of the condition catalog:

  COR_1_2 / COR_1_4_REMARK / COR_1_3   pointwise, 1/e and characteristic-root
                                       tests for the delay-dominant pattern
                                       x' + a x(g) - b x(h) = 0 with a >= b
  COR_2_2 / COR_2_4_REMARK / COR_2_3   mirrored tests for b >= a
  COR_1_5 / COR_1_6 / COR_2_5          divergent-integral refinements pinning
                                       the limit of the constructed solution;
                                       in check_all, applicable only where a
                                       base test of the same case holds
  THM_A_EXPLICIT / THM_B_EXPLICIT      nested 1/e integral tests for the
                                       same-sign patterns (+,+) and (-,-)
  COR_3_1_C1 / COR_3_1_C2 / SYS_30_FEASIBLE
                                       closed-form and search-based feasibility
                                       of the two-exponential inequality system
                                       for the pattern x' - a x(g) + b x(h) = 0
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TextIO

import numpy as np

from . import charroots
from .gridfn import GridFunction
from .model import Bounds, ProblemSpec, SampledProblem, extract_bounds

__all__ = [
    "Certificate",
    "FeasibilityRegion",
    "ALL_CONDITION_IDS",
    "HOLDS",
    "FAILS",
    "INAPPLICABLE",
    "CAVEAT_WINDOW_LIMITED",
    "CAVEAT_EQUICONTINUITY",
    "check_cor_1_2",
    "check_cor_1_3",
    "check_cor_1_4_remark",
    "check_cor_2_x",
    "check_thm_A_explicit",
    "check_thm_B_explicit",
    "check_cor_3_1",
    "check_sys30",
    "sys30_values",
    "sweep_region",
    "check_divergence",
    "subequation_one_over_e_note",
    "check_all",
]

HOLDS = "holds_on_window"
FAILS = "fails_on_window"
INAPPLICABLE = "inapplicable"

CAVEAT_WINDOW_LIMITED = "window-limited"
CAVEAT_EQUICONTINUITY = "unverified-equicontinuity"

ALL_CONDITION_IDS = (
    "COR_1_2", "COR_1_3", "COR_1_4_REMARK", "COR_1_5", "COR_1_6",
    "COR_2_2", "COR_2_3", "COR_2_4_REMARK", "COR_2_5",
    "THM_A_EXPLICIT", "THM_B_EXPLICIT",
    "COR_3_1_C1", "COR_3_1_C2", "SYS_30_FEASIBLE",
)

ONE_OVER_E = 1.0 / math.e
_STRICT_MARGIN = 1e-9     # strict "< 1/e" tested as <= 1/e - margin
_SLACK = 1e-12            # nonstrict comparisons absorb this much grid noise
_WITNESS_SLACK = 1e-12
_MAX_CELLS = 10**6        # sweep_region grid size, checked before allocating
_SYS30_MAX = 50.0         # check_sys30 searches x, y in (0, _SYS30_MAX]
_SYS30_RESOLUTION = 0.01  # spacing of check_sys30's fallback grid


@dataclass(frozen=True)
class Certificate:
    condition_id: str
    verdict: str
    window: tuple[float, float]
    witness: dict | None = None
    caveats: tuple[str, ...] = ()

    @property
    def holds(self) -> bool:
        return self.verdict == HOLDS


@dataclass(frozen=True)
class FeasibilityRegion:
    axis1_name: str
    axis2_name: str
    axis1_values: np.ndarray
    axis2_values: np.ndarray
    feasible: np.ndarray                 # bool matrix [len(axis1), len(axis2)]
    reference: np.ndarray | None = None  # same shape; the 1/e comparison line

    def __post_init__(self):
        if self.feasible.shape != (len(self.axis1_values), len(self.axis2_values)):
            raise ValueError("feasibility matrix does not match the axis resolutions")

    @property
    def nonempty(self) -> bool:
        return bool(np.any(self.feasible))

    def to_csv(self, dest: TextIO) -> None:
        header = f"{self.axis1_name},{self.axis2_name},feasible"
        if self.reference is not None:
            header += ",reference"
        dest.write(header + "\n")
        for i, v1 in enumerate(self.axis1_values):
            for j, v2 in enumerate(self.axis2_values):
                row = f"{float(v1)!r},{float(v2)!r},{int(self.feasible[i, j])}"
                if self.reference is not None:
                    row += f",{int(self.reference[i, j])}"
                dest.write(row + "\n")


def _inapplicable(condition_id: str, window: tuple[float, float],
                  reason: str) -> Certificate:
    return Certificate(condition_id, INAPPLICABLE, window, {"reason": reason})


def _needs(pattern: tuple[int, int]) -> str:
    return f"needs sign pattern delta1={pattern[0]:+d}, delta2={pattern[1]:+d}"


def _sup_witness(ts: np.ndarray, values: np.ndarray) -> tuple[float, float]:
    i = int(np.argmax(values))
    return float(values[i]), float(ts[i])


# ---------------------------------------------------------------------------
# Dominant-coefficient families (pattern +, -): case "delay" is a >= b
# (COR_1_x), case "advance" is b >= a (COR_2_x, the mirror images)
# ---------------------------------------------------------------------------

def check_cor_1_2(spec: ProblemSpec, window: tuple[float, float],
                  step: float = 1e-3) -> Certificate:
    """Pointwise test: a >= b and b(t) >= a(t)*(e^{int_g^t a} - 1)*e^{int_t^h a}."""
    return _cor_x_2(SampledProblem(spec, window, step), "delay")


def _cor_x_2(sp: SampledProblem, case: str) -> Certificate:
    delay = case == "delay"
    condition_id = "COR_1_2" if delay else "COR_2_2"
    m, o = ("a", "b") if delay else ("b", "a")  # dominant and other coefficient
    if sp.spec.sign_pattern != (1, -1):
        return _inapplicable(condition_id, sp.window, _needs((1, -1)))
    main, other = getattr(sp, m), getattr(sp, o)
    back, ahead = ((sp.int_a_over_delay(), sp.int_a_over_advance()) if delay
                   else (sp.int_b_over_advance(), sp.int_b_over_delay()))
    with np.errstate(over="ignore", invalid="ignore"):  # overflow saturates to inf
        margin, t_at = _sup_witness(sp.ts, main * np.expm1(back) * np.exp(ahead) - other)
    gap = float(np.min(main - other))
    ok = gap >= -_SLACK and margin <= _SLACK
    witness = {f"sup_rhs_minus_{o}": margin, "t_at_sup": t_at, f"min_{m}_minus_{o}": gap}
    return Certificate(condition_id, HOLDS if ok else FAILS, sp.window, witness,
                       (CAVEAT_WINDOW_LIMITED,))


def check_cor_1_3(spec: ProblemSpec, window: tuple[float, float],
                  step: float = 1e-3) -> Certificate:
    """Characteristic-root test on the envelope constants (a2 on top, b1 below)."""
    return _cor_x_3(SampledProblem(spec, window, step), "delay")


def _cor_x_3(sp: SampledProblem, case: str) -> Certificate:
    """The root found is the witness; the advance case uses the envelope a1, b2."""
    delay = case == "delay"
    condition_id, window = ("COR_1_3" if delay else "COR_2_3"), sp.window
    if sp.spec.sign_pattern != (1, -1):
        return _inapplicable(condition_id, window, _needs((1, -1)))
    if float(np.min(sp.a - sp.b if delay else sp.b - sp.a)) < -_SLACK:
        need = "b(t) <= a(t)" if delay else "a(t) <= b(t)"
        return _inapplicable(condition_id, window,
                             f"envelope hypothesis {need} fails on the window")
    bounds = extract_bounds(sp.spec, window)
    a, b = (bounds.a2, bounds.b1) if delay else (bounds.a1, bounds.b2)
    if (b if delay else a) <= 0.0:
        return _inapplicable(condition_id, window,
                             f"needs a positive lower envelope for {'b' if delay else 'a'}")
    problem = charroots.CharProblem(a, b, bounds.tau, bounds.sigma, 1, -1,
                                    "minus_exponent" if delay else "plus_exponent")
    root = charroots.positive_root_exists(problem)
    witness = {"a": a, "b": b, "tau": bounds.tau, "sigma": bounds.sigma}
    if root is None:
        witness.update(scan_lo=charroots.DEFAULT_SCAN[0], scan_hi=charroots.DEFAULT_SCAN[1])
        return Certificate(condition_id, FAILS, window, witness, (CAVEAT_WINDOW_LIMITED,))
    witness["lambda"] = root
    return Certificate(condition_id, HOLDS, window, witness, (CAVEAT_WINDOW_LIMITED,))


def check_cor_1_4_remark(spec: ProblemSpec, window: tuple[float, float],
                         step: float = 1e-3) -> Certificate:
    """1/e test for the delayed part: a >= b and sup_t int_g^t a <= 1/e."""
    return _cor_x_4_remark(SampledProblem(spec, window, step), "delay")


def _cor_x_4_remark(sp: SampledProblem, case: str) -> Certificate:
    delay = case == "delay"
    condition_id = "COR_1_4_REMARK" if delay else "COR_2_4_REMARK"
    m, o = ("a", "b") if delay else ("b", "a")
    if sp.spec.sign_pattern != (1, -1):
        return _inapplicable(condition_id, sp.window, _needs((1, -1)))
    sup, t_at = _sup_witness(sp.ts, sp.int_a_over_delay() if delay
                             else sp.int_b_over_advance())
    gap = float(np.min(getattr(sp, m) - getattr(sp, o)))
    ok = gap >= -_SLACK and sup <= ONE_OVER_E + _SLACK
    witness = {f"sup_{case}_integral": sup, "t_at_sup": t_at,
               "one_over_e": ONE_OVER_E, f"min_{m}_minus_{o}": gap}
    return Certificate(condition_id, HOLDS if ok else FAILS, sp.window, witness,
                       (CAVEAT_WINDOW_LIMITED,))


def check_cor_2_x(spec: ProblemSpec, window: tuple[float, float],
                  step: float = 1e-3) -> list[Certificate]:
    """COR_2_2, COR_2_3 and COR_2_4_REMARK: mirror images of the 1.x checks."""
    sp = SampledProblem(spec, window, step)
    return [_cor_x_2(sp, "advance"), _cor_x_3(sp, "advance"),
            _cor_x_4_remark(sp, "advance")]


# ---------------------------------------------------------------------------
# Same-sign patterns: explicit 1/e parts of the reduction theorems
# ---------------------------------------------------------------------------

def check_thm_A_explicit(spec: ProblemSpec, window: tuple[float, float],
                         step: float = 1e-3) -> Certificate:
    """sup_t int_g^t a(s) e^{int_{g(s)}^{s} b} ds < 1/e for the (+,+) pattern."""
    return _thm_A_explicit(SampledProblem(spec, window, step))


def _thm_A_explicit(sp: SampledProblem) -> Certificate:
    if sp.spec.sign_pattern != (1, 1):
        return _inapplicable("THM_A_EXPLICIT", sp.window, _needs((1, 1)))
    spec, (t1, T), step = sp.spec, sp.window, sp.step
    return _nested_one_over_e(
        "THM_A_EXPLICIT", sp,
        lambda s: spec.a(s) * np.exp(sp.cum_b(s) - sp.cum_b(spec.g(s))),
        (t1 - sp.tau - step, T), sp.g, sp.ts)


def check_thm_B_explicit(spec: ProblemSpec, window: tuple[float, float],
                         step: float = 1e-3) -> Certificate:
    """sup_t int_t^h b(s) e^{int_{s}^{h(s)} a} ds < 1/e for the (-,-) pattern."""
    return _thm_B_explicit(SampledProblem(spec, window, step))


def _thm_B_explicit(sp: SampledProblem) -> Certificate:
    if sp.spec.sign_pattern != (-1, -1):
        return _inapplicable("THM_B_EXPLICIT", sp.window, _needs((-1, -1)))
    spec, (t1, T), step = sp.spec, sp.window, sp.step
    return _nested_one_over_e(
        "THM_B_EXPLICIT", sp,
        lambda s: spec.b(s) * np.exp(sp.cum_a(spec.h(s)) - sp.cum_a(s)),
        (t1, T + sp.sigma + step), sp.ts, sp.h)


def _nested_one_over_e(condition_id: str, sp: SampledProblem, weight,
                       span: tuple[float, float], lower: np.ndarray,
                       upper: np.ndarray) -> Certificate:
    """sup over the window of int_lower^upper weight <= 1/e - margin.

    weight is sampled on span. Where it overflows, the nested integral
    saturates to inf, which fails the test; numpy prints no warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        cum_w = GridFunction.from_callable(weight, *span, sp.step).cumulative()
        nested = cum_w(upper) - cum_w(lower)
    nested[~np.isfinite(nested)] = np.inf
    sup, t_at = _sup_witness(sp.ts, nested)
    ok = sup <= ONE_OVER_E - _STRICT_MARGIN
    witness = {"sup_nested_integral": sup, "t_at_sup": t_at, "one_over_e": ONE_OVER_E}
    return Certificate(condition_id, HOLDS if ok else FAILS, sp.window, witness,
                       (CAVEAT_WINDOW_LIMITED, CAVEAT_EQUICONTINUITY))


# ---------------------------------------------------------------------------
# Opposite pattern (-, +): the two-exponential inequality system
# ---------------------------------------------------------------------------

def sys30_values(bounds: Bounds, x, y):
    """(g(y), f(x)) = (a2 e^{y tau} - b1 e^{-y sigma}, b2 e^{x sigma} - a1 e^{-x tau}),
    elementwise; the only place either side of the system is written. An
    exponential that overflows saturates its side to inf without a warning."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        gv = bounds.a2 * np.exp(y * bounds.tau) - bounds.b1 * np.exp(-y * bounds.sigma)
        fv = bounds.b2 * np.exp(x * bounds.sigma) - bounds.a1 * np.exp(-x * bounds.tau)
    return gv, fv


def check_cor_3_1(bounds: Bounds) -> list[Certificate]:
    """Closed-form feasibility conditions; one certificate per sub-condition."""
    window = bounds.window
    caveats = (CAVEAT_WINDOW_LIMITED, CAVEAT_EQUICONTINUITY)
    if min(bounds.a1, bounds.b1) <= 0.0:
        reason = "needs strictly positive envelope bounds"
        return [_inapplicable("COR_3_1_C1", window, reason),
                _inapplicable("COR_3_1_C2", window, reason)]
    denom = bounds.tau + bounds.sigma

    def log_bound(num: float, den: float) -> float:
        if denom == 0.0:
            return math.inf
        return math.log(num / den) / denom

    c1_bound = log_bound(bounds.a1, bounds.b2)
    c1 = bounds.b2 < bounds.a1 and 0.0 < bounds.a2 - bounds.b1 < c1_bound
    c2_bound = log_bound(bounds.b1, bounds.a2)
    c2 = bounds.a2 < bounds.b1 and 0.0 < bounds.b2 - bounds.a1 < c2_bound
    return [
        Certificate("COR_3_1_C1", HOLDS if c1 else FAILS, window,
                    {"b2_lt_a1": bounds.b2 < bounds.a1,
                     "gap": bounds.a2 - bounds.b1, "log_bound": c1_bound}, caveats),
        Certificate("COR_3_1_C2", HOLDS if c2 else FAILS, window,
                    {"a2_lt_b1": bounds.a2 < bounds.b1,
                     "gap": bounds.b2 - bounds.a1, "log_bound": c2_bound}, caveats),
    ]


def _sys30_witness_ok(bounds: Bounds, x: float, y: float) -> bool:
    if not (x > 0.0 and y > 0.0):
        return False
    gv, fv = sys30_values(bounds, x, y)
    return gv <= x + _WITNESS_SLACK and fv <= y + _WITNESS_SLACK


def _g_inverse_vec(bounds: Bounds, xs: np.ndarray) -> np.ndarray:
    """Invert the increasing map y -> g(y) of sys30_values by bisection.

    Saturates at _SYS30_MAX when the target exceeds g(_SYS30_MAX); that only
    ever underestimates the inverse, so feasibility is never overclaimed.
    """
    lo = np.zeros_like(xs)
    hi = np.full_like(xs, _SYS30_MAX)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        gv, _ = sys30_values(bounds, 0.0, mid)
        too_big = gv > xs
        hi = np.where(too_big, mid, hi)
        lo = np.where(too_big, lo, mid)
    return 0.5 * (lo + hi)


def check_sys30(bounds: Bounds) -> Certificate:
    """Search for x, y > 0 with g(y) <= x and f(x) <= y, the sides of sys30_values.

    First the monotone-inversion route from the closed-form analysis (scan the
    slack g^{-1}(x) - f(x) over x, bisecting the inverse); if that finds
    nothing, a square grid sweep over (0, 50]^2 at spacing 0.01.
    """
    window = bounds.window
    caveats = (CAVEAT_WINDOW_LIMITED, CAVEAT_EQUICONTINUITY)

    def holds(x: float, y: float, route: str, extra: dict | None = None) -> Certificate:
        gv, fv = sys30_values(bounds, x, y)
        witness = {"x": x, "y": y, "constraint_delay_side": float(gv),
                   "constraint_advance_side": float(fv), "route": route}
        if extra:
            witness.update(extra)
        return Certificate("SYS_30_FEASIBLE", HOLDS, window, witness, caveats)

    if bounds.tau == 0.0 and bounds.sigma == 0.0:
        x = max(bounds.a2 - bounds.b1, 0.0) + 1.0
        y = max(bounds.b2 - bounds.a1, 0.0) + 1.0
        if _sys30_witness_ok(bounds, x, y):
            return holds(x, y, "degenerate")

    # monotone-inversion route
    g0 = bounds.a2 - bounds.b1
    x_lo = max(g0, 0.0) + 1e-9
    if x_lo < _SYS30_MAX:
        xs = np.unique(np.concatenate([
            np.geomspace(x_lo, _SYS30_MAX, 160),
            np.linspace(x_lo, _SYS30_MAX, 480),
        ]))
        ginv = _g_inverse_vec(bounds, xs)
        _, fx = sys30_values(bounds, xs, 0.0)
        slack = ginv - fx
        k = int(np.argmax(slack))
        if slack[k] > 0.0:
            x_st = float(xs[k])
            y_st = 0.5 * (max(float(fx[k]), 0.0) + float(ginv[k]))
            extra = {}
            after = np.flatnonzero(slack[k:] < 0.0)
            if after.size:
                j = k + int(after[0])
                extra["boundary_x"] = _bisect_slack_root(
                    bounds, float(xs[j - 1]), float(xs[j]))
            if _sys30_witness_ok(bounds, x_st, y_st):
                return holds(x_st, y_st, "monotone-inversion", extra)

    # fallback sweep over one grid for both x and y
    res = _SYS30_RESOLUTION
    xs = ys = res * (1.0 + np.arange(int(math.floor((_SYS30_MAX - res) / res + 0.5)) + 1))
    gys, fxs = sys30_values(bounds, xs, ys)
    idx = np.searchsorted(xs, gys, side="left")
    usable = idx < len(xs)
    cand = np.clip(idx, 0, len(xs) - 1)
    feasible_j = usable & (fxs[cand] <= ys)
    hits = np.flatnonzero(feasible_j)
    for j in hits:
        x_st, y_st = float(xs[idx[j]]), float(ys[j])
        if _sys30_witness_ok(bounds, x_st, y_st):
            return holds(x_st, y_st, "grid-sweep")
    return Certificate(
        "SYS_30_FEASIBLE", FAILS, window,
        {"searched_x_max": _SYS30_MAX, "searched_y_max": _SYS30_MAX, "resolution": res},
        caveats)


def _bisect_slack_root(bounds: Bounds, x1: float, x2: float) -> float:
    """Boundary of the feasible x-range: sign change of the slack g^{-1}(x) - f(x).

    The slack is positive exactly when f(x) < _SYS30_MAX and g(f(x)) < x,
    because g increases and _g_inverse_vec saturates at _SYS30_MAX.
    """
    def slack_positive(x: float) -> bool:
        _, fv = sys30_values(bounds, x, 0.0)
        gv, _ = sys30_values(bounds, x, fv)
        return bool(fv < _SYS30_MAX and gv < x)

    positive_at_x1 = slack_positive(x1)
    for _ in range(60):
        xm = 0.5 * (x1 + x2)
        if slack_positive(xm) == positive_at_x1:
            x1 = xm
        else:
            x2 = xm
        if x2 - x1 <= 1e-10 * max(1.0, abs(xm)):
            break
    return 0.5 * (x1 + x2)


def sweep_region(bounds_template: Bounds, axis1: str, axis2: str,
                 ranges: tuple[tuple[float, float], tuple[float, float]],
                 resolution: float) -> FeasibilityRegion:
    """Feasibility matrices for the inequality system.

    axes ("x", "y"): fix the bounds, test the system's two inequalities on an
    (x, y) grid directly. axes ("a", "b"): sweep constant coefficients with the
    template's tau/sigma, running check_sys30 per cell; also emits the
    reference indicator a*tau + b*sigma < 1/e. Grids of more than _MAX_CELLS
    cells raise ValueError before anything is allocated.
    """
    if not (resolution > 0 and math.isfinite(resolution)):
        raise ValueError("resolution must be positive and finite")
    axes = (axis1, axis2)
    counts = [_axis_count(rng, resolution) for rng in ranges]
    if counts[0] * counts[1] > _MAX_CELLS:
        raise ValueError(f"{counts[0]} x {counts[1]} cells exceed the limit of "
                         f"{_MAX_CELLS}; use a coarser resolution")
    vals1, vals2 = (lo + resolution * np.arange(n) for (lo, _), n in zip(ranges, counts))
    if axes == ("x", "y"):
        gv, fv = sys30_values(bounds_template, vals1, vals2)
        feas = (gv[None, :] <= vals1[:, None]) & (fv[:, None] <= vals2[None, :])
        return FeasibilityRegion("x", "y", vals1, vals2, feas)
    if axes == ("a", "b"):
        vals1 = vals1[vals1 > 0.0]
        vals2 = vals2[vals2 > 0.0]
        tau, sigma = bounds_template.tau, bounds_template.sigma
        feas = np.zeros((len(vals1), len(vals2)), dtype=bool)
        for i, av in enumerate(vals1):
            for j, bv in enumerate(vals2):
                cell = Bounds(float(av), float(av), float(bv), float(bv),
                              tau, sigma, bounds_template.window)
                feas[i, j] = check_sys30(cell).holds
        ref = (vals1[:, None] * tau + vals2[None, :] * sigma) < ONE_OVER_E
        return FeasibilityRegion("a", "b", vals1, vals2, feas, ref)
    raise ValueError("axes must be ('x', 'y') or ('a', 'b')")


def _axis_count(rng: tuple[float, float], resolution: float) -> int:
    lo, hi = rng
    if not (math.isfinite(lo) and math.isfinite(hi) and hi >= lo):
        raise ValueError("axis range must be finite and in order")
    spans = (hi - lo) / resolution
    if not spans < _MAX_CELLS:
        raise ValueError(f"axis [{lo}, {hi}] at resolution {resolution} exceeds "
                         f"the limit of {_MAX_CELLS} cells")
    return int(math.floor(spans + 0.5)) + 1


# ---------------------------------------------------------------------------
# Divergent-integral refinements
# ---------------------------------------------------------------------------

def check_divergence(spec: ProblemSpec, window: tuple[float, float],
                     condition_id: str = "COR_1_5", threshold: float = 5.0,
                     step: float = 1e-3) -> Certificate:
    """Window heuristic for a divergent coefficient-gap integral.

    I(T') = int_{t1}^{T'} (a-b) (or (b-a) for COR_2_5) at the four quarter
    checkpoints must be increasing and exceed the threshold at the window end.
    COR_1_6 additionally requires the delayed 1/e test. Always window-limited.
    A threshold that is not finite raises ValueError.
    """
    if condition_id not in ("COR_1_5", "COR_1_6", "COR_2_5"):
        raise ValueError(f"unsupported divergence condition {condition_id!r}")
    if not math.isfinite(threshold):
        raise ValueError("divergence threshold must be finite")
    return _divergence(SampledProblem(spec, window, step), condition_id, threshold)


def _divergence(sp: SampledProblem, condition_id: str, threshold: float) -> Certificate:
    window = sp.window
    if sp.spec.sign_pattern != (1, -1):
        return _inapplicable(condition_id, window, _needs((1, -1)))
    delay_side = condition_id in ("COR_1_5", "COR_1_6")
    gap = sp.a - sp.b if delay_side else sp.b - sp.a
    if float(np.min(gap)) < -_SLACK:
        need = "a(t) >= b(t)" if delay_side else "b(t) >= a(t)"
        return _inapplicable(condition_id, window,
                             f"dominance hypothesis {need} fails on the window")
    t1, T = window
    cum = GridFunction(t1, sp.step, gap).cumulative()
    checkpoints = tuple(t1 + k * (T - t1) / 4.0 for k in (1, 2, 3, 4))
    integrals = tuple(float(cum(c) - cum(t1)) for c in checkpoints)
    increasing = all(b > a for a, b in zip(integrals, integrals[1:]))
    ok = increasing and integrals[-1] > threshold
    witness = {"checkpoints": tuple(zip(checkpoints, integrals)),
               "threshold": threshold}
    if condition_id == "COR_1_6":
        sup, t_at = _sup_witness(sp.ts, sp.int_a_over_delay())
        witness["sup_delay_integral"] = sup
        ok = ok and sup <= ONE_OVER_E + _SLACK
    return Certificate(condition_id, HOLDS if ok else FAILS, window, witness,
                       (CAVEAT_WINDOW_LIMITED,))


def _refinement(sp: SampledProblem, condition_id: str, threshold: float,
                bases: list[Certificate]) -> Certificate:
    """The divergence condition, inapplicable unless one of bases holds.

    A divergent gap integral pins the limit of a solution some base
    certificate constructs; on its own it does not show that one exists.
    """
    cert = _divergence(sp, condition_id, threshold)
    if cert.verdict == INAPPLICABLE or any(b.holds for b in bases):
        return cert
    names = "/".join(b.condition_id for b in bases)
    return _inapplicable(condition_id, sp.window, f"needs one of {names} to hold")


# ---------------------------------------------------------------------------
# Informational note and the master runner
# ---------------------------------------------------------------------------

def subequation_one_over_e_note(certs: list[Certificate]) -> dict:
    """1/e diagnostics for the pure-delay and pure-advance sub-equations.

    Reads the sups that check_all's COR_1_4_REMARK and COR_2_4_REMARK report;
    raises ValueError when those two are missing or inapplicable. When a sup
    exceeds 1/e, the corresponding sub-equation is not certified by its 1/e
    test (informational; says nothing about the mixed equation).
    """
    witness = {c.condition_id: c.witness for c in certs if c.verdict != INAPPLICABLE}
    try:
        sup_delay = witness["COR_1_4_REMARK"]["sup_delay_integral"]
        sup_advance = witness["COR_2_4_REMARK"]["sup_advance_integral"]
    except KeyError:
        raise ValueError("the 1/e note needs applicable COR_1_4_REMARK and "
                         "COR_2_4_REMARK certificates") from None
    return {
        "delay_integral_sup": sup_delay,
        "advance_integral_sup": sup_advance,
        "one_over_e": ONE_OVER_E,
        "delay_certified": sup_delay <= ONE_OVER_E + _SLACK,
        "advance_certified": sup_advance <= ONE_OVER_E + _SLACK,
    }


def check_all(spec: ProblemSpec, window: tuple[float, float], step: float = 1e-3,
              divergence_threshold: float = 5.0) -> list[Certificate]:
    """Run every condition; mismatched sign patterns yield inapplicable verdicts.

    Conditions are independent sufficient tests and never short-circuit each
    other, except that a divergent-integral refinement is inapplicable unless a
    base certificate of its case holds; the list is returned in the fixed
    catalog order. All window checks read one SampledProblem, which rejects
    non-finite samples for every pattern. A divergence_threshold that is not
    finite raises ValueError before anything is sampled.
    """
    if not math.isfinite(divergence_threshold):
        raise ValueError("divergence threshold must be finite")
    sp = SampledProblem(spec, window, step)
    out = []
    for case, refinements in (("delay", ("COR_1_5", "COR_1_6")), ("advance", ("COR_2_5",))):
        bases = [_cor_x_2(sp, case), _cor_x_3(sp, case), _cor_x_4_remark(sp, case)]
        out += bases
        out += [_refinement(sp, cid, divergence_threshold, bases) for cid in refinements]
    out += [_thm_A_explicit(sp), _thm_B_explicit(sp)]

    if spec.sign_pattern == (-1, 1):
        bounds = extract_bounds(spec, window)
        out.extend(check_cor_3_1(bounds))
        out.append(check_sys30(bounds))
    else:
        for cid in ("COR_3_1_C1", "COR_3_1_C2", "SYS_30_FEASIBLE"):
            out.append(_inapplicable(cid, window, _needs((-1, 1))))
    return out
