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
    """Cells of the uniform grid from t_start whose last node is >= t_end."""
    if not (step > 0 and math.isfinite(step)):
        raise ValueError("step must be positive and finite")
    spans = (t_end - t_start) / step
    check_grid_size(spans, f"a grid over [{t_start:g}, {t_end:g}] at step {step:g}")
    return max(1, int(math.ceil(spans - 1e-9)))


@dataclass(frozen=True)
class GridFunction:
    """A function sampled at t_start + k*step, evaluated by linear interpolation.

    Evaluation outside [t_start, t_end] clamps to the nearest endpoint value;
    `integrate_flagged` reports when an integral left the grid.
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
        cells = grid_cells(t_start, t_end, step)
        ts = t_start + step * np.arange(cells + 1)
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
        return self.t_start + self.step * np.arange(len(self.values))

    # -- evaluation ------------------------------------------------------------

    def __call__(self, t):
        """Linear interpolant, clamped to endpoint values outside the grid."""
        out = np.interp(t, self.times(), self.values)
        if np.ndim(t) == 0:
            return float(out)
        return out

    # -- quadrature ------------------------------------------------------------

    def integrate_flagged(self, lo: float, hi: float) -> tuple[float, bool]:
        """Integral of the interpolant over [lo, hi], plus an extrapolation flag.

        Portions of [lo, hi] outside the grid are integrated with the clamped
        endpoint value; the flag reports that this happened.
        """
        if lo > hi:
            raise ValueError(f"integration bounds out of order: {lo} > {hi}")
        t0, tend = self.t_start, self.t_end
        v = self.values
        flagged = lo < t0 - 1e-12 * self.step or hi > tend + 1e-12 * self.step
        total = 0.0
        if lo < t0:
            total += (min(hi, t0) - lo) * v[0]
        if hi > tend:
            total += (hi - max(lo, tend)) * v[-1]
        a, b = max(lo, t0), min(hi, tend)
        if a < b:
            total += self._integrate_core(a, b)
        return total, flagged

    def integrate(self, lo: float, hi: float) -> float:
        return self.integrate_flagged(lo, hi)[0]

    def _integrate_core(self, lo: float, hi: float) -> float:
        # lo, hi guaranteed inside [t_start, t_end]
        step, t0, v = self.step, self.t_start, self.values
        i0 = int(math.floor((lo - t0) / step)) + 1
        i1 = int(math.ceil((hi - t0) / step)) - 1
        i0 = max(i0, 0)
        i1 = min(i1, len(v) - 1)
        if i0 > i1:
            return (hi - lo) * 0.5 * (self(lo) + self(hi))
        xs = np.concatenate(([lo], t0 + step * np.arange(i0, i1 + 1), [hi]))
        ys = np.concatenate(([self(lo)], v[i0:i1 + 1], [self(hi)]))
        return float(np.sum(np.diff(xs) * (ys[:-1] + ys[1:])) * 0.5)

    def cumulative(self) -> "CumulativeIntegral":
        return CumulativeIntegral(self)


class CumulativeIntegral:
    """Running integral C(t) = int_{t_start}^{t} of a GridFunction's interpolant.

    Exact for the interpolant (quadratic inside each cell); outside the grid it
    continues linearly with the clamped endpoint value, matching the clamping
    convention of GridFunction. Vectorised over numpy arrays.
    """

    def __init__(self, f: GridFunction):
        self.f = f
        v = f.values
        # extended-precision accumulation: differences of far-apart node sums
        # (the short deviated integrals) must stay accurate to ~1e-13
        cells = 0.5 * (v[:-1].astype(np.longdouble) + v[1:]) * np.longdouble(f.step)
        nodes = np.concatenate(([np.longdouble(0.0)], np.cumsum(cells)))
        self._nodes = nodes.astype(float)

    def __call__(self, t):
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
