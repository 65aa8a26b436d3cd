"""Uniform-grid sampled functions: linear interpolation and trapezoid integration.

All integral expressions of the library (the delay integrals over [g(t), t] and
the advance integrals over [t, h(t)]) reduce to integrals of a GridFunction's
interpolant: `integrate` for one, a `CumulativeIntegral` for many at once.
Linear interpolation plus trapezoid quadrature is used deliberately: it
preserves pointwise order (f <= g on nodes implies the same for integrals),
which the monotone iterations rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "GridFunction",
    "CumulativeIntegral",
]

MAX_GRID_POINTS = 10**7  # largest user-sized 1-D grid, checked before allocating


def check_grid_size(spans: float, what: str) -> None:
    """ValueError unless a grid of `spans` cells has at most MAX_GRID_POINTS nodes."""
    if not spans <= MAX_GRID_POINTS - 1:  # also rejects inf and nan
        raise ValueError(f"{what} exceeds the limit of {MAX_GRID_POINTS} points")


def grid_cells(t_start: float, t_end: float, step: float) -> int:
    """Cells of the uniform grid from t_start whose last node is >= t_end.

    A step that does not exceed the float spacing of the grid's times, plus
    the rounding of k*step, raises ValueError: there t_start + k*step stops
    increasing and nodes repeat.
    """
    if not (step > 0 and math.isfinite(step)):
        raise ValueError("step must be positive and finite")
    spans = (t_end - t_start) / step
    check_grid_size(spans, f"a grid over [{t_start:g}, {t_end:g}] at step {step:g}")
    cells = max(1, int(math.ceil(spans - 1e-9)))
    top = max(abs(t_start), abs(t_start + cells * step))
    if not step > math.ulp(top) + math.ulp(cells * step):
        raise ValueError(f"step {step:g} is too fine for times near {top:g}: "
                         "grid nodes would repeat")
    return cells


def node_times(t_start: float, step: float, n: int) -> np.ndarray:
    """t_start + step * np.arange(n) bit for bit, built in place in one float array."""
    ts = np.arange(n, dtype=float)
    ts *= step
    ts += t_start
    return ts


@dataclass(frozen=True)
class GridFunction:
    """A function sampled at t_start + k*step, evaluated by linear interpolation.

    Evaluation outside [t_start, t_end] clamps to the nearest endpoint value,
    and so does `integrate` on the parts of its interval off the grid.
    """

    t_start: float
    step: float
    values: np.ndarray

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size < 2:
            raise ValueError("a grid function needs at least 2 values")
        if not (self.step > 0 and math.isfinite(self.step)):
            raise ValueError("step must be positive and finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_callable(cls, fn: Callable, t_start: float, t_end: float,
                      step: float) -> "GridFunction":
        """Sample fn, called once on the array of nodes of a uniform grid whose last
        node is >= t_end; a result of another shape raises ValueError."""
        if t_end <= t_start:
            raise ValueError("t_end must exceed t_start")
        ts = node_times(t_start, step, grid_cells(t_start, t_end, step) + 1)
        vals = np.asarray(fn(ts), dtype=float)
        if vals.shape != ts.shape:
            raise ValueError(f"fn returned shape {vals.shape} on {ts.size} grid nodes")
        return cls(t_start, step, vals)

    @classmethod
    def constant(cls, value: float, t_start: float, t_end: float,
                 step: float) -> "GridFunction":
        return cls(t_start, step, np.full(grid_cells(t_start, t_end, step) + 1, float(value)))

    # -- geometry --------------------------------------------------------------

    @property
    def t_end(self) -> float:
        return self.t_start + self.step * (len(self.values) - 1)

    def times(self) -> np.ndarray:
        return node_times(self.t_start, self.step, len(self.values))

    # -- evaluation ------------------------------------------------------------

    def __call__(self, t):
        """Linear interpolant, clamped to endpoint values outside the grid."""
        out = np.interp(t, self.times(), self.values)
        if np.ndim(t) == 0:
            return float(out)
        return out

    # -- quadrature ------------------------------------------------------------

    def integrate(self, lo: float, hi: float) -> float:
        """Integral of the interpolant over [lo, hi], with the clamped endpoint
        value off the grid: the trapezoid rule on lo, the nodes inside (lo, hi)
        and hi, read by np.interp, which clamps. The clamped interpolant is
        linear between those points, so the rule is exact."""
        if lo > hi:
            raise ValueError(f"integration bounds out of order: {lo} > {hi}")
        ts = self.times()
        xs = np.concatenate(([lo], ts[(ts > lo) & (ts < hi)], [hi]))
        ys = np.interp(xs, ts, self.values)
        return float(np.sum(np.diff(xs) * (ys[:-1] + ys[1:])) * 0.5)


class GridPoints:
    """Where each point of t, flattened, falls on the grid t_start + k*step, k < size:
    cell idx and offset frac, and the indices and values of the points off the grid."""

    def __init__(self, t_start: float, step: float, size: int, t):
        tt = np.asarray(t, dtype=float).ravel()
        self.grid = (t_start, step, size)
        with np.errstate(over="ignore"):  # a position past the float range is +/-inf
            pos = (tt - t_start) / step
        # clipped before the cast: positions past 2**63 do not fit an int
        self.idx = np.floor(np.clip(pos, 0.0, size - 2.0)).astype(int)
        self.frac = pos - self.idx
        self.below, self.above = np.flatnonzero(pos < 0.0), np.flatnonzero(pos > size - 1.0)
        self.t_below, self.t_above = tt[self.below], tt[self.above]

    def part(self, lo: int, hi: int) -> "GridPoints":
        """Points lo..hi-1 of these, as views of their arrays where it can."""
        part = object.__new__(GridPoints)
        part.grid, part.idx, part.frac = self.grid, self.idx[lo:hi], self.frac[lo:hi]
        b0, b1 = np.searchsorted(self.below, (lo, hi))
        a0, a1 = np.searchsorted(self.above, (lo, hi))
        part.below, part.t_below = self.below[b0:b1] - lo, self.t_below[b0:b1]
        part.above, part.t_above = self.above[a0:a1] - lo, self.t_above[a0:a1]
        return part


# elements per chunk of a long sweep: cells of a node-sum build, here and in the
# iteration kernel, and window nodes of a block of the deviated sups in model
# (4096 page-faulted more; 2**15 builds 100 001 node sums as fast as one chunk)
CHUNK = 1 << 15


def _node_sums(v: np.ndarray, step: float, buf: np.ndarray, out: np.ndarray) -> None:
    """The trapezoid running integral of the grid values v at every node, into out;
    sums past the float range saturate to +/-inf.

    It is accumulated in longdouble, because differences of far-apart node sums
    (the short deviated integrals) must stay accurate to ~1e-13: in the longdouble
    array buf, len(buf) - 1 cells at a time, each chunk over the last (`_node_sums_chunk`).
    """
    carry = None
    for lo in range(0, v.size - 1, buf.size - 1):
        carry = _node_sums_chunk(v, step, lo, carry, buf, out)


def _node_sums_chunk(v: np.ndarray, step: float, lo: int, carry: np.longdouble | None,
                     buf: np.ndarray, out: np.ndarray) -> np.longdouble:
    """The node sums of v past node lo, up to len(buf) - 1 cells, into out, given
    carry, the sum at node lo; returns the sum at the chunk's last node.

    0.5 * step is exact, so one scaling rounds as the two it stands for. The
    first cell adds carry, so every sum is rounded as one cumsum over all cells
    rounds it; the chunk at node 0 adds nothing, so a -0.0 first cell keeps its
    sign.
    """
    hi = min(lo + buf.size - 1, v.size - 1)
    chunk = buf[:hi - lo + 1]
    chunk[...] = v[lo:hi + 1]
    sums = chunk[:-1]
    with np.errstate(over="ignore"):
        np.add(sums, chunk[1:], out=sums)  # forward in place, with no copy
        sums *= np.longdouble(0.5) * np.longdouble(step)
        if lo:
            sums[0] = carry + sums[0]
        else:
            out[0] = 0.0
        np.cumsum(sums, out=sums)
        out[lo + 1:hi + 1] = sums
    return sums[-1]


def _placed_integral(p: GridPoints, v: np.ndarray, nodes: np.ndarray, out: np.ndarray,
                     half: np.ndarray) -> np.ndarray:
    """The running integral of the grid values v (node sums `nodes`) at the placed
    points p, computed in place in out, which enters holding v[idx], while half
    enters holding (v[idx+1] - v[idx]) * 0.5 and is left as scratch:
    nodes[idx] + step*(v[idx]*frac + half*frac*frac), op by op.

    At a point on a node (frac == 0) the added term is a signed zero, so the
    result is nodes[idx] itself wherever v[idx] and half are finite and
    nodes[idx] is not -0.0; `IterationKernel` reads such points directly.
    """
    t_start, step, size = p.grid
    frac = p.frac
    half *= frac
    half *= frac
    out *= frac
    out += half
    out *= step
    np.take(nodes, p.idx, out=half, mode="clip")
    out += half
    out[p.below] = v[0] * (p.t_below - t_start)
    out[p.above] = nodes[-1] + v[-1] * (p.t_above - (t_start + step * (size - 1)))
    return out


class CumulativeIntegral:
    """Running integral C(t) = int_{t_start}^{t} of a GridFunction's interpolant.

    Exact for the interpolant (quadratic inside each cell); outside the grid it
    continues linearly with the clamped endpoint value, matching the clamping
    convention of GridFunction. Vectorised over numpy arrays. A call places t on
    the grid (GridPoints) and runs `at`, which callers reusing the points call.
    """

    def __init__(self, f: GridFunction):
        self.f = f
        n = len(f.values)
        self._nodes = np.empty(n)
        _node_sums(f.values, f.step, np.empty(min(n, CHUNK + 1), dtype=np.longdouble),
                   self._nodes)

    def __call__(self, t):
        f = self.f
        out = self.at(GridPoints(f.t_start, f.step, len(f.values), t)).reshape(np.shape(t))
        return float(out) if out.ndim == 0 else out

    @property
    def total(self) -> float:
        """The integral over the whole grid: the last node sum."""
        return float(self._nodes[-1])

    def at(self, p: GridPoints, out: np.ndarray | None = None) -> np.ndarray:
        """The integral at the placed points p, into out if given."""
        f, v = self.f, self.f.values
        if p.grid != (f.t_start, f.step, len(v)):
            raise ValueError("points were placed on another grid")
        # overflow saturates to inf, and values holding inf give inf or nan
        with np.errstate(over="ignore", invalid="ignore"):
            out = np.take(v, p.idx, out=out, mode="clip")  # idx is already clipped
            half = np.take(v[1:], p.idx, mode="clip")
            half -= out
            half *= 0.5
            return _placed_integral(p, v, self._nodes, out, half)
