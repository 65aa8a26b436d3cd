"""Real roots of autonomous characteristic quasi-polynomials.

For the constant-coefficient equation x' + delta1*a*x(t-tau) + delta2*b*x(t+sigma) = 0
the exponential ansatz gives a transcendental characteristic function in one of
two conventions:

    plus_exponent   x = e^{lt}:   F(l) =  l + delta1*a*e^{-l*tau} + delta2*b*e^{l*sigma}
    minus_exponent  x = e^{-lt}:  F(l) = -l + delta1*a*e^{l*tau}  + delta2*b*e^{-l*sigma}

The two conventions' root sets are negatives of each other. Roots are located
by a sign-change scan followed by bisection; tangential (double) roots produce
no sign change and are only reported as suspected, via near-zero dips of |F|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TextIO

import numpy as np

from .gridfn import check_grid_size

__all__ = [
    "CharProblem",
    "CharRootSet",
    "find_real_roots",
    "positive_root_exists",
    "write_roots_csv",
]

_CONVENTIONS = ("plus_exponent", "minus_exponent")
_EXP_CAP = 700.0  # e^700 is finite; saturate instead of overflowing
_ROOT_RESIDUAL_TARGET = 1e-12
_MAX_BISECTIONS = 200
_TANGENCY_DIP = 1e-6
_SCAN_STEP = 1e-3
DEFAULT_SCAN = (-60.0, 60.0)


@dataclass(frozen=True)
class CharProblem:
    a: float
    b: float
    tau: float
    sigma: float
    delta1: int
    delta2: int
    convention: str = "minus_exponent"

    def __post_init__(self):
        if not all(map(math.isfinite, (self.a, self.b, self.tau, self.sigma))):
            raise ValueError("a, b, tau and sigma must be finite")
        if self.a < 0 or self.b < 0:
            raise ValueError("coefficients a, b must be nonnegative")
        if self.tau < 0 or self.sigma < 0:
            raise ValueError("tau and sigma must be nonnegative")
        if self.delta1 not in (-1, 1) or self.delta2 not in (-1, 1):
            raise ValueError("delta1 and delta2 must be +1 or -1")
        if self.convention not in _CONVENTIONS:
            raise ValueError(f"convention must be one of {_CONVENTIONS}")

    def value(self, lam):
        """Characteristic function, saturating instead of overflowing."""
        lam_arr = np.asarray(lam, dtype=float)
        sign = -1.0 if self.convention == "minus_exponent" else 1.0
        e1 = np.exp(np.minimum(-sign * lam_arr * self.tau, _EXP_CAP))
        e2 = np.exp(np.minimum(sign * lam_arr * self.sigma, _EXP_CAP))
        with np.errstate(over="ignore", invalid="ignore"):  # a huge a or b gives +-inf
            out = sign * lam_arr + self.delta1 * self.a * e1 + self.delta2 * self.b * e2
        if lam_arr.ndim == 0:
            return float(out)
        return out

    def solution_exponent(self, root: float) -> float:
        """Growth exponent of the solution associated with a root."""
        return root if self.convention == "plus_exponent" else -root


@dataclass(frozen=True)
class CharRootSet:
    roots: tuple[float, ...]
    residuals: tuple[float, ...]
    classifications: tuple[str, ...]  # growing | decaying | constant
    brackets_scanned: tuple[float, float]
    truncated: bool = False
    tangency_suspected: tuple[float, ...] = ()


def _classify_exponent(exponent: float, tol: float = 1e-12) -> str:
    if exponent > tol:
        return "growing"
    if exponent < -tol:
        return "decaying"
    return "constant"


def _bisect(p: CharProblem, x1: float, x2: float) -> float:
    f1 = p.value(x1)
    f2 = p.value(x2)
    if f1 == 0.0:
        return x1
    if f2 == 0.0:
        return x2
    best_x, best_f = (x1, abs(f1)) if abs(f1) < abs(f2) else (x2, abs(f2))
    for _ in range(_MAX_BISECTIONS):
        xm = 0.5 * (x1 + x2)
        fm = p.value(xm)
        if abs(fm) < best_f:
            best_x, best_f = xm, abs(fm)
        if abs(fm) <= _ROOT_RESIDUAL_TARGET:
            return xm
        if (f1 < 0) == (fm < 0):
            x1, f1 = xm, fm
        else:
            x2, f2 = xm, fm
        if x2 - x1 <= 4e-16 * max(1.0, abs(xm)):
            break
    return best_x


def find_real_roots(p: CharProblem, scan: tuple[float, float] = DEFAULT_SCAN,
                    max_roots: int = 32) -> CharRootSet:
    """Sign-change scan over the interval at step 1e-3, then bisection per bracket.

    The scan is one array pass over the grid (120 001 points on DEFAULT_SCAN):
    F is evaluated once, and sign changes and |F| dips are read off boolean
    masks of basic slices. Scalar bisection runs only inside the sign-change
    brackets. Repeated roots at tangencies are found only if the scan sees a sign
    change; cells where |F| dips below 1e-6 without one are reported in
    tangency_suspected. max_roots below 1, or a scan of more than
    MAX_GRID_POINTS points, raises ValueError before anything is allocated.
    """
    lo, hi = scan
    if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
        raise ValueError("scan interval must be finite and nonempty")
    if max_roots < 1:
        raise ValueError("max_roots must be at least 1")
    spans = (hi - lo) / _SCAN_STEP
    check_grid_size(spans, f"a scan over [{lo:g}, {hi:g}] at step {_SCAN_STEP:g}")
    n = int(math.ceil(spans)) + 1
    grid = np.linspace(lo, hi, n)
    vals = p.value(grid)

    roots: list[float] = []
    exact = np.flatnonzero(vals == 0.0)
    roots.extend(float(grid[i]) for i in exact)
    neg, pos = vals < 0.0, vals > 0.0  # both False at an exact zero
    change = np.flatnonzero((neg[:-1] & pos[1:]) | (pos[:-1] & neg[1:]))
    for i in change:
        roots.append(_bisect(p, float(grid[i]), float(grid[i + 1])))
    roots.sort()

    deduped: list[float] = []
    for r in roots:
        if not deduped or r - deduped[-1] > 1e-9:
            deduped.append(r)

    truncated = len(deduped) > max_roots
    deduped = deduped[:max_roots]

    # near-tangency: interior local minima of |F| below the dip threshold,
    # same sign on both neighbours (an actual crossing is excluded)
    absv = np.abs(vals)
    mid = absv[1:-1]
    local_min = (mid <= absv[:-2]) & (mid <= absv[2:])
    small = mid < _TANGENCY_DIP
    same_sign = (pos[:-2] == pos[1:-1]) & (pos[2:] == pos[1:-1]) & (vals[1:-1] != 0.0)
    sus = grid[1:-1][local_min & small & same_sign]
    sus = tuple(float(s) for s in sus
                if all(abs(s - r) > 10 * _SCAN_STEP for r in deduped))

    residuals = tuple(abs(p.value(r)) for r in deduped)
    tags = tuple(_classify_exponent(p.solution_exponent(r)) for r in deduped)
    return CharRootSet(tuple(deduped), residuals, tags, (lo, hi), truncated, sus)


def positive_root_exists(p: CharProblem) -> float | None:
    """Smallest root above 1e-12 in DEFAULT_SCAN, or None."""
    for r in find_real_roots(p).roots:
        if r > 1e-12:
            return r
    return None


def write_roots_csv(rs: CharRootSet, dest: TextIO) -> None:
    dest.write("root,residual,class\n")
    for r, res, tag in zip(rs.roots, rs.residuals, rs.classifications):
        dest.write(f"{r!r},{res!r},{tag}\n")
