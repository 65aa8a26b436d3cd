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

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, TextIO

import numpy as np

from . import charroots
from .gridfn import CumulativeIntegral, GridFunction, node_times
from .model import Bounds, ProblemSpec, SampledProblem

__all__ = [
    "Certificate",
    "FeasibilityRegion",
    "ALL_CONDITION_IDS",
    "HOLDS",
    "FAILS",
    "INAPPLICABLE",
    "CAVEAT_WINDOW_LIMITED",
    "CAVEAT_EQUICONTINUITY",
    "check",
    "check_cor_3_1",
    "check_sys30",
    "sys30_values",
    "sweep_region",
    "subequation_one_over_e_note",
    "check_all",
]

HOLDS = "holds_on_window"
FAILS = "fails_on_window"
INAPPLICABLE = "inapplicable"

CAVEAT_WINDOW_LIMITED = "window-limited"
CAVEAT_EQUICONTINUITY = "unverified-equicontinuity"

ONE_OVER_E = 1.0 / math.e
_STRICT_MARGIN = 1e-9     # strict "< 1/e" tested as <= 1/e - margin
_SLACK = 1e-12            # nonstrict comparisons absorb this much grid noise
_WITNESS_SLACK = 1e-12
_DIVERGENCE_THRESHOLD = 5.0  # the refinements' gap integral must exceed this
_MAX_CELLS = 10**6        # sweep_region grid size, checked before allocating
_SYS30_MAX = 50.0         # check_sys30 searches x, y in (0, _SYS30_MAX]
_SYS30_RESOLUTION = 0.01  # spacing of check_sys30's fallback grid
_SYS30_BLOCK = 1 << 16    # grid points per array in _sys30_routes
_SYS30_W = 40             # points per block of a sorted grid; divides 160, 480 and 5000
_SYS30_MARGIN = 1e-9      # relative slack on each exponential of a block's lower bound
_TINY = np.finfo(float).tiny
# _sys30_routes' verdicts: the routes of check_sys30 in the order it tries them
_DEGENERATE, _INVERSION, _SWEEP, _NO_ROUTE = range(4)


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
        """One row per cell, axis 2 varying fastest; axis values by repr."""
        header = f"{self.axis1_name},{self.axis2_name},feasible"
        flags, text = self.feasible.astype(int), ("0", "1")
        if self.reference is not None:
            header += ",reference"
            flags = 2 * flags + self.reference
            text = ("0,0", "0,1", "1,0", "1,1")
        v2 = [repr(float(v)) for v in self.axis2_values]
        # every "value2,flags" tail once; a grid row picks its tails by flag
        tails = np.array([[f"{y},{t}" for y in v2] for t in text], dtype=object)
        rows = tails[flags, np.arange(len(v2))].tolist() if v2 else []
        lines = [header]
        for v1, row in zip(self.axis1_values, rows):
            head = repr(float(v1)) + ","
            lines.append(head + ("\n" + head).join(row))
        lines.append("")  # the final newline, joined in, not appended to a copy
        dest.write("\n".join(lines))


def _inapplicable(condition_id: str, window: tuple[float, float],
                  reason: str) -> Certificate:
    return Certificate(condition_id, INAPPLICABLE, window, {"reason": reason})


def _needs(pattern: tuple[int, int]) -> str:
    return f"needs sign pattern delta1={pattern[0]:+d}, delta2={pattern[1]:+d}"


def _sup_witness(ts: np.ndarray, values: np.ndarray) -> tuple[float, float]:
    i = int(np.argmax(values))
    return float(values[i]), float(ts[i])


def _at_node(sp: SampledProblem, sup: tuple[float, int]) -> tuple[float, float]:
    """A sup of SampledProblem's, (value, node), as (value, t at that node)."""
    return sup[0], float(sp.ts[sup[1]])


# ---------------------------------------------------------------------------
# Dominant-coefficient families (pattern +, -): case "delay" is a >= b
# (COR_1_x), case "advance" is b >= a (COR_2_x, the mirror images)
# ---------------------------------------------------------------------------

# case -> its base, characteristic-root and 1/e condition ids, in the order
# construct.auto_construct tries their seeds
_FAMILIES = {"delay": ("COR_1_2", "COR_1_3", "COR_1_4_REMARK"),
             "advance": ("COR_2_2", "COR_2_3", "COR_2_4_REMARK")}


def _cor_x_2(sp: SampledProblem, case: str) -> Certificate:
    """Pointwise test: a >= b and b(t) >= a(t)*(e^{int_g^t a} - 1)*e^{int_t^h a};
    mirrored for the advance case."""
    delay = case == "delay"
    m, o = ("a", "b") if delay else ("b", "a")  # dominant and other coefficient
    margin, t_at = _at_node(sp, sp.rhs_sup(case))
    gap = sp.margin(case)[0]
    ok = gap >= -_SLACK and margin <= _SLACK
    witness = {f"sup_rhs_minus_{o}": margin, "t_at_sup": t_at, f"min_{m}_minus_{o}": gap}
    return Certificate(_FAMILIES[case][0], HOLDS if ok else FAILS, sp.window, witness,
                       (CAVEAT_WINDOW_LIMITED,))


def _cor_x_3(sp: SampledProblem, case: str) -> Certificate:
    """Characteristic-root test on the envelope constants (a2 on top, b1 below;
    a1, b2 in the advance case). The root found is the witness."""
    delay = case == "delay"
    condition_id, window = _FAMILIES[case][1], sp.window
    if sp.margin(case)[0] < -_SLACK:
        need = "b(t) <= a(t)" if delay else "a(t) <= b(t)"
        return _inapplicable(condition_id, window,
                             f"envelope hypothesis {need} fails on the window")
    bounds = sp.bounds
    a, b = (bounds.a2, bounds.b1) if delay else (bounds.a1, bounds.b2)
    if (b if delay else a) <= 0.0:
        return _inapplicable(condition_id, window,
                             f"needs a positive lower envelope for {'b' if delay else 'a'}")
    problem = charroots.CharProblem(a, b, bounds.tau, bounds.sigma, 1, -1,
                                    "minus_exponent" if delay else "plus_exponent")
    root = charroots.positive_root_exists(problem)
    witness = {"a": a, "b": b, "tau": bounds.tau, "sigma": bounds.sigma}
    if root is None:
        return Certificate(condition_id, FAILS, window, witness, (CAVEAT_WINDOW_LIMITED,))
    witness["lambda"] = root
    return Certificate(condition_id, HOLDS, window, witness, (CAVEAT_WINDOW_LIMITED,))


def _cor_x_4_remark(sp: SampledProblem, case: str) -> Certificate:
    """1/e test for the delayed part: a >= b and sup_t int_g^t a <= 1/e;
    mirrored for the advance case."""
    delay = case == "delay"
    m, o = ("a", "b") if delay else ("b", "a")
    sup, t_at = _at_node(sp, sp.deviated_sup(case))
    gap = sp.margin(case)[0]
    ok = gap >= -_SLACK and sup <= ONE_OVER_E + _SLACK
    witness = {f"sup_{case}_integral": sup, "t_at_sup": t_at,
               "one_over_e": ONE_OVER_E, f"min_{m}_minus_{o}": gap}
    return Certificate(_FAMILIES[case][2], HOLDS if ok else FAILS, sp.window, witness,
                       (CAVEAT_WINDOW_LIMITED,))


# ---------------------------------------------------------------------------
# Same-sign patterns: explicit 1/e parts of the reduction theorems
# ---------------------------------------------------------------------------

def _thm_A_explicit(sp: SampledProblem) -> Certificate:
    """sup_t int_g^t a(s) e^{int_{g(s)}^{s} b} ds < 1/e for the (+,+) pattern."""
    spec, (t1, T), step = sp.spec, sp.window, sp.step
    cum_b = sp.widened_cumulative("b")
    return _nested_one_over_e(
        "THM_A_EXPLICIT", sp,
        lambda s: spec.a(s) * np.exp(cum_b(s) - cum_b(spec.g(s))),
        (t1 - sp.tau - step, T), sp.g, sp.ts)


def _thm_B_explicit(sp: SampledProblem) -> Certificate:
    """sup_t int_t^h b(s) e^{int_{s}^{h(s)} a} ds < 1/e for the (-,-) pattern."""
    spec, (t1, T), step = sp.spec, sp.window, sp.step
    cum_a = sp.widened_cumulative("a")
    return _nested_one_over_e(
        "THM_B_EXPLICIT", sp,
        lambda s: spec.b(s) * np.exp(cum_a(spec.h(s)) - cum_a(s)),
        (t1, T + sp.sigma + step), sp.ts, sp.h)


def _nested_one_over_e(condition_id: str, sp: SampledProblem, weight,
                       span: tuple[float, float], lower: np.ndarray,
                       upper: np.ndarray) -> Certificate:
    """sup over the window of int_lower^upper weight <= 1/e - margin.

    weight is sampled on span. Where it overflows, the nested integral
    saturates to inf, which fails the test; numpy prints no warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        cum_w = CumulativeIntegral(GridFunction.from_callable(weight, *span, sp.step))
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
    elementwise, also over fields of bounds that are arrays; the only place
    either side of the system is written. An exponential that overflows
    saturates its side to inf without a warning."""
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
        return (math.log(num) - math.log(den)) / denom

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


def _sys30_witness_ok(bounds, x, y):
    """Whether x, y > 0 satisfy both inequalities of the system, within
    _WITNESS_SLACK; elementwise where bounds, x or y are arrays."""
    gv, fv = sys30_values(bounds, x, y)
    return (x > 0.0) & (y > 0.0) & (gv <= x + _WITNESS_SLACK) & (fv <= y + _WITNESS_SLACK)


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


def _inversion_grid(x_lo):
    """The inversion route's x grid on [x_lo, _SYS30_MAX], along the last axis;
    one row per entry of x_lo. Unsorted: the geometric part, then the linear."""
    return np.concatenate([np.geomspace(x_lo, _SYS30_MAX, 160, axis=-1),
                           np.linspace(x_lo, _SYS30_MAX, 480, axis=-1)], axis=-1)


@functools.cache
def _sweep_grid() -> np.ndarray:
    """The fallback sweep's grid, res, 2 res, ..., _SYS30_MAX, for both x and y;
    read-only, and built on first use."""
    res = _SYS30_RESOLUTION
    grid = res * (1.0 + np.arange(int(math.floor((_SYS30_MAX - res) / res + 0.5)) + 1))
    grid.setflags(write=False)
    return grid


def _sweep_candidates(bounds, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each y of ys, the least x of the sweep grid with g(y) <= x, and
    whether f(x) <= y there; elementwise where bounds or ys are arrays."""
    grid = _sweep_grid()
    gys, _ = sys30_values(bounds, 0.0, ys)
    idx = np.searchsorted(grid, gys, side="left")
    xs = grid[np.minimum(idx, len(grid) - 1)]
    _, fxs = sys30_values(bounds, xs, 0.0)
    return xs, (idx < len(grid)) & (fxs <= ys)


class _Cells(NamedTuple):
    """The envelope fields of many cells, as columns that broadcast over a grid."""
    a1: np.ndarray
    a2: np.ndarray
    b1: np.ndarray
    b2: np.ndarray
    tau: float
    sigma: float

    def at(self, rows) -> _Cells:
        """The cells that the index rows selects."""
        return _Cells(self.a1[rows], self.a2[rows], self.b1[rows], self.b2[rows],
                      self.tau, self.sigma)


def _blocks(cells: np.ndarray, points: int):
    """cells in slices whose grids of `points` each total at most _SYS30_BLOCK."""
    size = max(1, _SYS30_BLOCK // points)
    return (cells[k:k + size] for k in range(0, len(cells), size))


def _below(up, rate_up, down, rate_down, v):
    """A lower bound of up e^{v' rate_up} - down e^{-v' rate_down}, as
    sys30_values computes it, at every v' >= v where up, down and the rates
    are >= 0; -inf where it is NaN, so that it drops nothing.

    Rounding is monotone, and np.exp is within a few ulps of e^u, relatively
    where the result is normal and absolutely below _TINY. So the margin, some
    10^7 ulps on each exponential, with _TINY on top, covers both that and the
    roundings of this bound: a block is dropped only where the bound reaches a
    threshold of at least 1e-9, where any rounding below _TINY is negligible.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        e_up, e_down = np.exp(v * rate_up), np.exp(-v * rate_down)
        lower = (up * (e_up * (1.0 - _SYS30_MARGIN) - _TINY)
                 - down * (e_down * (1.0 + _SYS30_MARGIN) + _TINY))
    return np.fmax(lower, -np.inf)


def _inversion_hits(env: _Cells | Bounds, xs) -> np.ndarray:
    """The inversion route's test at each x of xs: its slack g^{-1}(x) - f(x)
    is positive exactly when f(x) < _SYS30_MAX and g(f(x)) < x, here by more
    than a bound on the rounding of g(f(x)): each term of a side is at most
    |side| + 2 |its coefficients|, and f's error enters through g's slope,
    at most tau + sigma times g's terms."""
    _, fx = sys30_values(env, xs, 0.0)
    gfx, _ = sys30_values(env, 0.0, fx)
    with np.errstate(over="ignore", invalid="ignore"):  # fx may be inf, and g's terms 0
        g_terms = np.abs(gfx) + 2.0 * (np.abs(env.a2) + np.abs(env.b1))
        f_terms = np.abs(fx) + 2.0 * (np.abs(env.a1) + np.abs(env.b2))
        noise = 4 * np.finfo(float).eps * g_terms * (1.0 + (env.tau + env.sigma) * f_terms)
    return (fx < _SYS30_MAX) & (gfx < xs - noise)


def _inversion_kept(env: _Cells, blocks: np.ndarray) -> np.ndarray:
    """The blocks of x that may hold a hit of _inversion_hits if g and f
    increase: not those where, from the first x on, f(x) >= _SYS30_MAX or
    g(f(x)) >= the block's largest x by the _below bounds. A block whose first
    x is not its least, which rounding could make of the geometric part, stays."""
    x0 = blocks[..., 0]
    fx = _below(env.b2, env.sigma, env.a1, env.tau, x0)
    gfx = _below(env.a2, env.tau, env.b1, env.sigma, fx)
    ordered = blocks.min(axis=-1) == x0
    return ~(ordered & ((fx >= _SYS30_MAX) | (gfx >= blocks.max(axis=-1))))


def _sweep_hits(env: _Cells, ys: np.ndarray) -> np.ndarray:
    """The sweep's test at each y of ys: f(x) <= y at its candidate x from
    _sweep_candidates. Each hit passes _sys30_witness_ok, which recomputes
    g(y) <= x and f(x) <= y by the same operations, with _WITNESS_SLACK more."""
    return _sweep_candidates(env, ys)[1]


def _sweep_kept(env: _Cells, blocks: np.ndarray) -> np.ndarray:
    """The blocks of y that may hold a hit of _sweep_hits if g and f increase.
    From the first y on, g(y) is at least its _below bound, so the candidate x
    is at least the least grid x above it, and f(x) at least its _below bound
    there: a block is dropped where no such x exists or f's bound exceeds the
    block's last y."""
    grid = _sweep_grid()
    gy = _below(env.a2, env.tau, env.b1, env.sigma, blocks[..., 0])
    idx = np.searchsorted(grid, gy, side="left")
    fx = _below(env.b2, env.sigma, env.a1, env.tau, grid[np.minimum(idx, len(grid) - 1)])
    return (idx < len(grid)) & ~(fx > blocks[..., -1])


def _coarse_to_fine(env: _Cells, blocks: np.ndarray, hits, kept) -> np.ndarray:
    """Which cells (rows of env) have a point of their grid, in blocks of shape
    (cells, blocks, _SYS30_W), where the elementwise test hits holds.

    A hit at a block's first point decides its cell. The cells left run hits
    once, on the blocks kept(env, blocks) keeps, all of them where an envelope
    bound is negative; callers pass blocks of at most _SYS30_BLOCK points.
    """
    found = np.any(hits(env, blocks[..., 0]), axis=1)
    monotone = (env.a1 >= 0.0) & (env.a2 >= 0.0) & (env.b1 >= 0.0) & (env.b2 >= 0.0)
    rows, cols = np.nonzero((kept(env, blocks) | ~monotone) & ~found[:, None])
    if rows.size:
        found[rows[np.any(hits(env.at(rows), blocks[rows, cols]), axis=1)]] = True
    return found


def _sys30_routes(a1, a2, b1, b2, tau: float, sigma: float) -> np.ndarray:
    """The SYS_30 verdict of every cell of arrays of envelope bounds that share
    tau and sigma: per cell, the first route (_DEGENERATE, _INVERSION, _SWEEP)
    that finds the system feasible, or _NO_ROUTE.

    The routes are those of check_sys30, in its order: the degenerate witness
    when tau = sigma = 0; the inversion route's sign test (_inversion_hits) on
    each cell's own grid; then the fallback sweep (_sweep_hits), only for the
    cells the first two reject. The two grid routes run coarse to fine
    (_coarse_to_fine) over blocks of _SYS30_W points of the sorted parts of
    their grids: the geometric and the linear part of _inversion_grid, and the
    sweep grid. Where g and f increase, lower bounds at a block's first point
    drop the blocks that cannot hold a hit. Each cell still gets the verdict
    of the test at every point, and no array holds more than _SYS30_BLOCK
    points, whatever the number of cells.
    """
    a1, a2, b1, b2 = (np.array(v, dtype=float, ndmin=1) for v in (a1, a2, b1, b2))
    routes = np.full(a1.shape, _NO_ROUTE, dtype=np.int8)
    env = _Cells(a1[:, None], a2[:, None], b1[:, None], b2[:, None], tau, sigma)  # columns

    if tau == 0.0 and sigma == 0.0:
        x = np.maximum(a2 - b1, 0.0) + 1.0
        y = np.maximum(b2 - a1, 0.0) + 1.0
        routes[_sys30_witness_ok(_Cells(a1, a2, b1, b2, tau, sigma), x, y)] = _DEGENERATE

    x_lo = np.maximum(a2 - b1, 0.0) + 1e-9
    todo = np.flatnonzero((routes == _NO_ROUTE) & (x_lo < _SYS30_MAX))
    for idx in _blocks(todo, 160 + 480):  # the points of _inversion_grid
        blocks = _inversion_grid(x_lo[idx]).reshape(len(idx), -1, _SYS30_W)
        found = _coarse_to_fine(env.at(idx), blocks, _inversion_hits, _inversion_kept)
        routes[idx[found]] = _INVERSION

    sweep = _sweep_grid().reshape(-1, _SYS30_W)
    for idx in _blocks(np.flatnonzero(routes == _NO_ROUTE), len(sweep)):
        blocks = np.broadcast_to(sweep, (len(idx), *sweep.shape))  # a view, no copy
        found = _coarse_to_fine(env.at(idx), blocks, _sweep_hits, _sweep_kept)
        routes[idx[found]] = _SWEEP
    return routes


def check_sys30(bounds: Bounds) -> Certificate:
    """Search for x, y > 0 with g(y) <= x and f(x) <= y, the sides of sys30_values.

    The verdict is _sys30_routes' on this one cell, and the witness comes from
    the route it names: the degenerate point when tau = sigma = 0; the
    monotone-inversion route from the closed-form analysis (scan the slack
    g^{-1}(x) - f(x) over x, bisecting the inverse, and take its argmax), which
    passes the search on if its witness fails _sys30_witness_ok; the first
    point of a square grid sweep over (0, 50]^2 at spacing 0.01.
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

    route = int(_sys30_routes(bounds.a1, bounds.a2, bounds.b1, bounds.b2,
                              bounds.tau, bounds.sigma)[0])
    if route == _DEGENERATE:  # the route tested this very point
        return holds(max(bounds.a2 - bounds.b1, 0.0) + 1.0,
                     max(bounds.b2 - bounds.a1, 0.0) + 1.0, "degenerate")

    if route == _INVERSION:
        xs = np.unique(_inversion_grid(max(bounds.a2 - bounds.b1, 0.0) + 1e-9))
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

    if route != _NO_ROUTE:
        ys = _sweep_grid()
        xs, hit = _sweep_candidates(bounds, ys)
        j = int(np.argmax(hit))
        if hit[j]:
            return holds(float(xs[j]), float(ys[j]), "grid-sweep")
    return Certificate(
        "SYS_30_FEASIBLE", FAILS, window,
        {"searched_x_max": _SYS30_MAX, "searched_y_max": _SYS30_MAX,
         "resolution": _SYS30_RESOLUTION},
        caveats)


def _bisect_slack_root(bounds: Bounds, x1: float, x2: float) -> float:
    """Boundary of the feasible x-range: where the sign of the slack
    g^{-1}(x) - f(x), which _inversion_hits gives, changes."""
    positive_at_x1 = bool(_inversion_hits(bounds, x1))
    for _ in range(60):
        xm = 0.5 * (x1 + x2)
        if bool(_inversion_hits(bounds, xm)) == positive_at_x1:
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
    template's tau/sigma, giving every cell check_sys30's verdict from one call
    of _sys30_routes, which searches each grid coarse to fine; also emits the
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
    vals1, vals2 = (node_times(lo, resolution, n) for (lo, _), n in zip(ranges, counts))
    if axes == ("x", "y"):
        gv, fv = sys30_values(bounds_template, vals1, vals2)
        feas = (gv[None, :] <= vals1[:, None]) & (fv[:, None] <= vals2[None, :])
        return FeasibilityRegion("x", "y", vals1, vals2, feas)
    if axes == ("a", "b"):
        vals1 = vals1[vals1 > 0.0]
        vals2 = vals2[vals2 > 0.0]
        tau, sigma = bounds_template.tau, bounds_template.sigma
        a = np.repeat(vals1, len(vals2))
        b = np.tile(vals2, len(vals1))
        feas = (_sys30_routes(a, a, b, b, tau, sigma) != _NO_ROUTE).reshape(
            len(vals1), len(vals2))
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

# refinement -> the case whose _FAMILIES ids are its bases: a divergent gap
# integral pins the limit of a solution a base certificate constructs, and on
# its own does not show that one exists, so check_all needs a base to hold
_REFINES = {"COR_1_5": "delay", "COR_1_6": "delay", "COR_2_5": "advance"}


def _divergence(sp: SampledProblem, condition_id: str) -> Certificate:
    """Window heuristic for a divergent coefficient-gap integral.

    I(T') = int_{t1}^{T'} (a-b) (or (b-a) for COR_2_5) at the four quarter
    checkpoints must be increasing and exceed _DIVERGENCE_THRESHOLD at the
    window end. COR_1_6 additionally requires the delayed 1/e test.
    """
    checkpoints = sp.gap_integrals(_REFINES[condition_id])
    integrals = [i for _, i in checkpoints]
    increasing = all(b > a for a, b in zip(integrals, integrals[1:]))
    ok = increasing and integrals[-1] > _DIVERGENCE_THRESHOLD
    witness = {"checkpoints": checkpoints, "threshold": _DIVERGENCE_THRESHOLD}
    if condition_id == "COR_1_6":
        sup = sp.deviated_sup("delay")[0]
        witness["sup_delay_integral"] = sup
        ok = ok and sup <= ONE_OVER_E + _SLACK
    return Certificate(condition_id, HOLDS if ok else FAILS, sp.window, witness,
                       (CAVEAT_WINDOW_LIMITED,))


# ---------------------------------------------------------------------------
# The condition table
# ---------------------------------------------------------------------------

# condition id -> (sign pattern (delta1, delta2), test on a SampledProblem), in
# catalog order; a wrapper bound to check_cor_3_1 or check_sys30 sees every call
_CHECKS = {
    "COR_1_2": ((1, -1), lambda sp: _cor_x_2(sp, "delay")),
    "COR_1_3": ((1, -1), lambda sp: _cor_x_3(sp, "delay")),
    "COR_1_4_REMARK": ((1, -1), lambda sp: _cor_x_4_remark(sp, "delay")),
    "COR_1_5": ((1, -1), lambda sp: _divergence(sp, "COR_1_5")),
    "COR_1_6": ((1, -1), lambda sp: _divergence(sp, "COR_1_6")),
    "COR_2_2": ((1, -1), lambda sp: _cor_x_2(sp, "advance")),
    "COR_2_3": ((1, -1), lambda sp: _cor_x_3(sp, "advance")),
    "COR_2_4_REMARK": ((1, -1), lambda sp: _cor_x_4_remark(sp, "advance")),
    "COR_2_5": ((1, -1), lambda sp: _divergence(sp, "COR_2_5")),
    "THM_A_EXPLICIT": ((1, 1), _thm_A_explicit),
    "THM_B_EXPLICIT": ((-1, -1), _thm_B_explicit),
    "COR_3_1_C1": ((-1, 1), lambda sp: check_cor_3_1(sp.bounds)[0]),
    "COR_3_1_C2": ((-1, 1), lambda sp: check_cor_3_1(sp.bounds)[1]),
    "SYS_30_FEASIBLE": ((-1, 1), lambda sp: check_sys30(sp.bounds)),
}
ALL_CONDITION_IDS = tuple(_CHECKS)


def _run(condition_id: str, sp: SampledProblem,
         held: dict[str, Certificate] | None = None) -> Certificate:
    """One row of _CHECKS: inapplicable unless sp's spec has the row's pattern.

    A refinement is also inapplicable, without being evaluated, where its
    dominance hypothesis fails, and, given held, the certificates of the rows
    before it, where none of its bases holds.
    """
    pattern, body = _CHECKS[condition_id]
    if sp.spec.sign_pattern != pattern:
        return _inapplicable(condition_id, sp.window, _needs(pattern))
    case = _REFINES.get(condition_id)
    if case and not sp.margin(case)[0] >= -_SLACK:
        need = "a(t) >= b(t)" if case == "delay" else "b(t) >= a(t)"
        return _inapplicable(condition_id, sp.window,
                             f"dominance hypothesis {need} fails on the window")
    if case and held is not None and not any(held[b].holds for b in _FAMILIES[case]):
        return _inapplicable(condition_id, sp.window,
                             f"needs one of {'/'.join(_FAMILIES[case])} to hold")
    return body(sp)


def check(condition_id: str, spec: ProblemSpec, window: tuple[float, float],
          step: float = 1e-3) -> Certificate:
    """The one condition condition_id of ALL_CONDITION_IDS on the window.

    A refinement (COR_1_5, COR_1_6, COR_2_5) checked alone needs no base
    certificate. An unknown condition_id raises ValueError before anything
    is sampled.
    """
    if condition_id not in _CHECKS:
        raise ValueError(f"unknown condition {condition_id!r}")
    return _run(condition_id, SampledProblem(spec, window, step))


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


def check_all(spec: ProblemSpec, window: tuple[float, float],
              step: float = 1e-3) -> list[Certificate]:
    """Run every condition; mismatched sign patterns yield inapplicable verdicts.

    Conditions are independent sufficient tests and never short-circuit each
    other, except that a divergent-integral refinement is inapplicable unless a
    base certificate of its case holds: without one it is not evaluated, and
    its verdict gives the failed sign pattern or dominance hypothesis, if any,
    before the missing base. The list is returned in the fixed catalog order.
    All conditions read one SampledProblem, which rejects non-finite samples
    for every pattern.
    """
    sp = SampledProblem(spec, window, step)
    held: dict[str, Certificate] = {}
    for cid in _CHECKS:
        held[cid] = _run(cid, sp, held)
    return list(held.values())
