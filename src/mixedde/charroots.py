"""Real roots of autonomous characteristic quasi-polynomials.

For the constant-coefficient equation x' + delta1*a*x(t-tau) + delta2*b*x(t+sigma) = 0
the exponential ansatz gives a transcendental characteristic function in one of
two conventions:

    plus_exponent   x = e^{lt}:   F(l) =  l + delta1*a*e^{-l*tau} + delta2*b*e^{l*sigma}
    minus_exponent  x = e^{-lt}:  F(l) = -l + delta1*a*e^{l*tau}  + delta2*b*e^{-l*sigma}

The two conventions' root sets are negatives of each other. Roots come from
the shape of F, not from a scan: F'' is a sum of two exponentials, so it has at
most one zero; F' is monotone on each side of it and has at most two zeros; F
is monotone between those and has at most three (Rolle's theorem; Polya &
Szego, Problems and Theorems in Analysis II, Part V). Each root is bisected on
its monotone piece down to two neighbouring floats, and a zero of F' where
|F| <= 1e-12 is a double root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import pairwise
from typing import Callable, TextIO

from .model import _exp

__all__ = [
    "CharProblem",
    "CharRootSet",
    "find_real_roots",
    "positive_root_exists",
    "write_roots_csv",
]

_CONVENTIONS = ("plus_exponent", "minus_exponent")
_EDGE = 2.0**1022  # roots beyond are not sought: wider brackets overflow their midpoints
_ROOT_RESIDUAL_TARGET = 1e-12
_MAX_BISECTIONS = 1100  # enough to halve any bracket down to two neighbouring floats
_ZERO_EXPONENT = 1e-12  # solution exponents within this of 0 classify as constant
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

    def value(self, lam: float) -> float:
        """Characteristic function at a real lam, as a Python float. A term that
        overflows is +-inf; a zero coefficient contributes 0, also where its
        exponential is inf."""
        sign = -1.0 if self.convention == "minus_exponent" else 1.0
        x = float(lam)
        out = sign * x
        for coef, exponent in ((self.delta1 * self.a, -sign * x * self.tau),
                               (self.delta2 * self.b, sign * x * self.sigma)):
            if coef:
                out += _term(coef, exponent)
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
    truncated: bool = False  # never set: F has at most three real roots
    tangency_suspected: tuple[float, ...] = ()  # never set: double roots are roots


def _term(c: float, y: float) -> float:
    """c*e^y, 0 where c is 0; where e^y overflows, e^(y + log|c|) with c's sign."""
    if not c:
        return 0.0
    try:
        return c * math.exp(y)
    except OverflowError:
        return math.copysign(_exp(y + math.log(abs(c))), c)


def _classify_exponent(exponent: float) -> str:
    if exponent > _ZERO_EXPONENT:
        return "growing"
    if exponent < -_ZERO_EXPONENT:
        return "decaying"
    return "constant"


def _bisect(f: Callable[[float], float], x1: float, x2: float) -> float:
    f1 = f(x1)
    f2 = f(x2)
    if f1 == 0.0:
        return x1
    if f2 == 0.0:
        return x2
    best_x, best_f = (x1, abs(f1)) if abs(f1) < abs(f2) else (x2, abs(f2))
    for _ in range(_MAX_BISECTIONS):
        xm = 0.5 * (x1 + x2)
        if not x1 < xm < x2:
            break  # x1 and x2 are neighbouring floats
        fm = f(xm)
        if abs(fm) < best_f:
            best_x, best_f = xm, abs(fm)
        if fm == 0.0:
            return xm
        if (f1 < 0) == (fm < 0):
            x1, f1 = xm, fm
        else:
            x2, f2 = xm, fm
    return best_x


def _zeros(f: Callable[[float], float], knots: list[float]) -> list[float]:
    """Zeros of f in [-_EDGE, _EDGE], given knots between which f is monotone.

    0 and +-_EDGE join the knots that lie between them. A given knot where
    |f| <= 1 is a zero (f touches 0 there), and so is any knot where f is 0.
    Each pair of consecutive knots of opposite signs brackets one more zero,
    bisected once a walk from the knot nearer 0, doubling its step, has found
    the sign change: the bracket is then about as wide as the zero is far
    from 0. So a zero next to 0 or +-_EDGE is bisected, however small f is there.
    """
    given = {x for x in knots if abs(x) < _EDGE}
    knots = sorted({-_EDGE, 0.0, _EDGE, *given})
    signs = [0.0 if v == 0.0 or (abs(v) <= 1.0 and x in given) else v
             for x, v in zip(knots, map(f, knots))]
    found = [x for x, v in zip(knots, signs) if v == 0.0]
    for (x1, v1), (x2, v2) in pairwise(zip(knots, signs)):
        if not (v1 < 0.0 < v2 or v2 < 0.0 < v1):
            continue
        x, fx, far, out = (x1, v1, x2, 1.0) if x1 >= 0.0 else (x2, v2, x1, -1.0)
        step = 1.0
        while out * (far - (y := x + out * step)) > 0.0:
            fy = f(y)
            if fy == 0.0 or (fy < 0.0) != (fx < 0.0):
                break
            x, fx, step = y, fy, 2.0 * step
        else:
            y = far
        found.append(_bisect(f, *sorted((x, y))))
    return sorted(found)


def _real_roots(p: CharProblem) -> list[float]:
    """Every real root of F in [-_EDGE, _EDGE], increasing, each bisected to
    the last bit on its monotone piece."""
    # F(l) = G(s*l) for G(x) = x + c1*e^{-x*tau} + c2*e^{x*sigma}, with s = 1 for
    # plus_exponent and -1 for minus_exponent
    s = 1.0 if p.convention == "plus_exponent" else -1.0
    # Python floats: numpy scalars would warn where a term overflows to inf
    c1, c2, tau, sigma = map(float, (p.delta1 * p.a, p.delta2 * p.b, p.tau, p.sigma))
    # G and G' in units of the residual target: a zero of G' where |G| <= 1 is a
    # double root, and bisection runs every zero to the last bit. G' scales each
    # term after the exponential: c2*sigma can underflow where c2*e^{x*sigma} does not
    g = lambda x: (x + _term(c1, -x * tau) + _term(c2, x * sigma)) / _ROOT_RESIDUAL_TARGET
    dg = lambda x: (1.0 - tau * _term(c1, -x * tau) + sigma * _term(c2, x * sigma)) \
        / _ROOT_RESIDUAL_TARGET
    split = []
    if p.delta1 != p.delta2 and min(p.a, p.b, tau, sigma) > 0.0:
        # the zero of G'' = c1*tau^2*e^{-x*tau} + c2*sigma^2*e^{x*sigma}, from a
        # sum of logs, since tau^2 or sigma^2 can underflow
        split = [(math.log(p.a) + 2.0 * math.log(tau) - math.log(p.b)
                  - 2.0 * math.log(sigma)) / (tau + sigma)]
    return sorted({s * x + 0.0 for x in _zeros(g, _zeros(dg, split))})  # no -0.0


def find_real_roots(p: CharProblem, scan: tuple[float, float] = DEFAULT_SCAN) -> CharRootSet:
    """The real roots of F inside the reporting window `scan`, with residuals.

    Nothing is sampled, so the window may be as wide as the floats allow, and
    it only filters: a root has the same bits in every window that holds it.
    A window that is non-finite, empty, or so wide that hi - lo overflows
    raises ValueError.
    """
    lo, hi = scan
    if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo and math.isfinite(hi - lo)):
        raise ValueError("scan interval must be finite and nonempty, with a finite width")
    roots = tuple(r for r in _real_roots(p) if lo <= r <= hi)
    residuals = tuple(abs(p.value(r)) for r in roots)
    tags = tuple(_classify_exponent(p.solution_exponent(r)) for r in roots)
    return CharRootSet(roots, residuals, tags, (lo, hi))


def positive_root_exists(p: CharProblem) -> float | None:
    """Smallest root above 1e-12 on the real line (up to 2^1022), or None. It
    has the bits find_real_roots gives it in any window."""
    for r in _real_roots(p):
        if r > 1e-12:
            return r
    return None


def write_roots_csv(rs: CharRootSet, dest: TextIO) -> None:
    dest.write("root,residual,class\n")
    for r, res, tag in zip(rs.roots, rs.residuals, rs.classifications):
        dest.write(f"{r!r},{res!r},{tag}\n")
