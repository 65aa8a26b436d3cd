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

import contextvars
import math
import os
from dataclasses import dataclass
from typing import NamedTuple, TextIO

import numpy as np

from . import criteria, gridfn
from .charroots import _term
from .gridfn import (CHUNK, CumulativeIntegral, GridFunction, GridPoints, _node_sums,
                     _placed_integral)
from .model import ProblemSpec, SampledProblem, _ShortWindow
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
CAVEAT_NONFINITE = "non-finite-solution"  # x overflows, so its residual says nothing
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
        if not np.all(np.isfinite(self.u.values)):
            raise ValueError("generating candidate must be finite")
        if float(np.min(self.u.values)) < -_NEG_TOL:
            raise ValueError("generating candidate must be nonnegative")

    @classmethod
    def constant(cls, value: float, case: str, window: tuple[float, float],
                 step: float) -> "GeneratingCandidate":
        return cls(GridFunction.constant(value, *window, step), case)


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


# A point set whose share of points on a node (frac == 0) is at least this
# reads those points from the node sums: one gather over all its points, the
# formula's nine passes over the others and one scatter of their results, in
# place of the formula's nine passes over every point. Below one half the
# gather and the scatter cost about what the passes save: at 1e5 points, on
# nodes spread at random, the two paths tie at 40-50% of points on a node.
_ON_NODE_SHARE = 0.5


class _Block(NamedTuple):
    """Window nodes lo..hi-1, whose points read node sums of the first `chunks`
    chunks only, and per point set its placement, or None and its split (see
    `_off_node`)."""

    chunks: int
    lo: int
    hi: int
    points: tuple
    off_node: tuple


class IterationKernel:
    """One application of the generating-function map on a sampled window grid.

    The kernel owns the working arrays of `apply`, allocated by the first
    application and kept until `_release`, so an application allocates only
    the iterate it returns; a kernel therefore runs one application at a time.

    An application maps the window block by block, each block as soon as the
    node sums its points read are summed. A window of more than one chunk of
    `gridfn.CHUNK` cells has its node sums summed a chunk at a time on one
    worker thread (`_NodeSums`), while this thread maps the blocks already
    summed; every value goes through the same operations as on one thread.
    Each iterate is the next one's input, so the worker sums the iterate an
    application returns as it is mapped, a chunk as soon as the block holding
    its last node is, into a second node-sum array: the next application,
    handed that iterate, finds its sums summed or in flight. Any other array
    has its sums queued afresh, once what the worker was summing ahead is
    cancelled (its queued chunks skipped, the running one waited for), and so
    is a forked child's, which cannot wait on its parent's worker. A returned
    iterate is read-only; one made writeable again is summed afresh too, so an
    iterate is always mapped from the values it holds.

    The map is defined on finite iterates: u whose half-differences do not sum
    to a finite number raises ValueError. Points on a node then read the node
    sum, where `_placed_integral` would add a zero to it: in a point set with
    at least `_ON_NODE_SHARE` of its points on a node, only the others run the
    formula, and the set keeps their placement and the cells of its points.
    A read differs from the formula at most in the sign of a zero, which the
    map cannot see: x - (+/-0) = x and exp(+/-0) = 1.

    The window's own points, when so split, keep no cells and no integral
    array: grid_cells keeps the nodes more than a float spacing apart, so each
    on-node one is on its own node, and a block's integral at them is its node
    sums with the formula's results for the off-node ones written over them:
    in place in the last block, and in a copy before it, where later blocks'
    delay points still read them.
    """

    def __init__(self, sampled: SampledProblem, case: str):
        if case not in _CASES:
            raise ValueError(f"case must be one of {_CASES}")
        sampled.sample()
        self.sampled = sampled
        self.case = case
        t1, step, ts = sampled.window[0], sampled.step, sampled.ts
        n = ts.size
        # u vanishes before t1, so delay integrals start no earlier than t1;
        # u lives on the window grid, so each point set is placed on it once
        point_sets = (ts, np.maximum(sampled.g, t1), sampled.h)
        points = [GridPoints(t1, step, n, t) for t in point_sets]
        off_node = [_off_node(p, t) for p, t in zip(points, point_sets)]
        if off_node[0] is not None:  # the own points' cells are their nodes
            off_node[0] = (None, *off_node[0][1:])
        self._blocks = _block_plan(points, off_node, n)
        self._own_split = off_node[0] is not None  # the own points keep no integral
        self.extrapolates = bool(np.any(sampled.h > ts[-1] + 1e-12 * step))
        self._look_ahead = None  # the _NodeSums summing into _ahead
        self._nodes = None  # the working arrays are not allocated (`_allocate`)

    def _allocate(self) -> None:
        n = self.sampled.n
        longest = max(block.hi - block.lo for block in self._blocks)  # the work arrays' size
        self._at = tuple(None if k == 0 and self._own_split else np.empty(longest)
                         for k in range(3))
        self._nodes_ld = np.empty(min(n, CHUNK + 1), dtype=np.longdouble)  # one chunk
        self._nodes = np.empty(n)
        # where the worker sums the node sums of the iterate being returned
        self._ahead = np.empty(n) if self._blocks[-1].chunks > 1 else None
        self._half = np.empty(n - 1)  # (u[k+1] - u[k]) * 0.5
        self._scratch = np.empty(longest)

    def _release(self) -> None:
        """Free the working arrays, once the worker sums nothing more ahead; the
        next application allocates them again."""
        self._cancel_look_ahead()
        self._at = self._nodes_ld = self._nodes = self._ahead = self._half = None
        self._scratch = None

    def apply(self, u_vals: np.ndarray) -> np.ndarray:
        if self._nodes is None:
            self._allocate()
        u = np.asarray(u_vals, dtype=float)
        if u.shape != self._nodes.shape:
            raise ValueError(f"u has shape {u.shape}, the kernel's grid "
                             f"{self._nodes.shape}")
        out = np.empty(u.size)
        half = self._half
        # overflow saturates to inf, and inf - inf is nan: in the half-differences
        # of an iterate that raises, and in the map where node sums overflow
        with np.errstate(over="ignore", invalid="ignore"):
            sums = ahead = None
            if self._ahead is None:  # one chunk, with nothing to overlap
                _node_sums(u, self.sampled.step, self._nodes_ld, self._nodes)
            else:
                sums = self._sums_of(u)
                ahead = _NodeSums(out, self.sampled.step, self._nodes_ld, self._ahead)
            try:
                np.subtract(u[1:], u[:-1], out=half)
                half *= 0.5
                if not math.isfinite(np.sum(half)):
                    raise ValueError("u must be finite, with half-differences "
                                     "that sum to a finite number")
                for block in self._blocks:
                    if sums is not None:
                        sums.chunks[block.chunks - 1].result()  # raises a chunk's error
                    self._map(block, u, out[block.lo:block.hi])
                    if ahead is not None:
                        ahead.submit(block.hi)  # the chunks of out mapped in full
            except BaseException:
                if ahead is not None:
                    ahead.cancel()
                raise
            finally:
                if sums is not None:  # the worker is done with the kernel's arrays
                    sums.cancel()
        self._look_ahead = ahead
        out.setflags(write=False)
        return out

    def _sums_of(self, u: np.ndarray) -> "_NodeSums | None":
        """u's node sums into _nodes, as chunks summed or in flight: those summed
        ahead where u is the iterate the last application returned, unchanged
        since, or else queued afresh; None where the worker refused them and
        this thread summed them."""
        ahead = self._look_ahead
        if (ahead is not None and ahead.pid == os.getpid() and ahead.v is u
                and not u.flags.writeable and ahead.queued_all()):
            self._look_ahead = None
            self._nodes, self._ahead = ahead.out, self._nodes
            return ahead
        self._cancel_look_ahead()
        sums = _NodeSums(u, self.sampled.step, self._nodes_ld, self._nodes)
        if sums.submit(u.size):
            return sums
        sums.cancel()  # the worker is done with the arrays
        _node_sums(u, self.sampled.step, self._nodes_ld, self._nodes)
        return None

    def _cancel_look_ahead(self) -> None:
        """Sum nothing more ahead: the worker is then done with the kernel's
        arrays. A forked child drops its parent's chunks without waiting."""
        ahead, self._look_ahead = self._look_ahead, None
        if ahead is not None and ahead.pid == os.getpid():
            ahead.cancel()

    def _map(self, block: _Block, u: np.ndarray, out: np.ndarray) -> None:
        """The map at the block's nodes, into out."""
        sp, lo, hi = self.sampled, block.lo, block.hi
        # the own points last: their node-sum copy is made in _scratch, which
        # the other sets' formula uses
        int_delay, int_advance, at_nodes = (self._integral(block, k, u) for k in (1, 2, 0))
        np.subtract(at_nodes, int_delay, out=int_delay)
        np.subtract(int_advance, at_nodes, out=int_advance)
        # delay: a*e^{int_delay} - b*e^{-int_advance}; advance: the mirror
        a, b = sp.a[lo:hi], sp.b[lo:hi]
        grow, shrink, c_grow, c_shrink = ((int_delay, int_advance, a, b)
                                          if self.case == "delay"
                                          else (int_advance, int_delay, b, a))
        np.negative(shrink, out=shrink)
        for x, c in ((grow, c_grow), (shrink, c_shrink)):
            np.exp(x, out=x)
            np.multiply(c, x, out=x)
        np.subtract(grow, shrink, out=out)

    def _integral(self, block: _Block, k: int, u: np.ndarray) -> np.ndarray:
        """The integral of u at the block's points of set k: a split set's
        on-node points read off the node sums, the others by the formula."""
        lo, hi = block.lo, block.hi
        split = block.off_node[k]
        if split is None:
            return self._formula(block.points[k], u, self._at[k][:hi - lo],
                                 self._scratch[:hi - lo])
        idx, off, off_points, off_out, off_half = split
        if idx is not None:
            out = self._at[k][:hi - lo]
            np.take(self._nodes, idx, out=out, mode="clip")
        elif hi < u.size:  # the own points, before the last block
            out = self._scratch[:hi - lo]
            out[...] = self._nodes[lo:hi]
        else:
            out = self._nodes[lo:hi]
        out[off] = self._formula(off_points, u, off_out, off_half)
        return out

    def _formula(self, p: GridPoints, u: np.ndarray, out: np.ndarray,
                 scratch: np.ndarray) -> np.ndarray:
        """The integral of u at the points p by `_placed_integral`, into out.
        idx is already in [0, n - 2]; with mode="clip" take writes into out
        directly, where the default mode="raise" goes through a buffer."""
        np.take(u, p.idx, out=out, mode="clip")
        np.take(self._half, p.idx, out=scratch, mode="clip")
        return _placed_integral(p, u, self._nodes, out, scratch)

    def _distance(self, u: np.ndarray, w: np.ndarray) -> float:
        """max |u - w|, computed in the node-sum array of the last application,
        which the next one sums anew or swaps out."""
        diff = np.subtract(u, w, out=self._nodes)
        return float(np.max(np.abs(diff, out=diff)))


def _off_node(p: GridPoints, t: np.ndarray):
    """(idx, where, points, out, scratch): the cells of p's points, and the
    points of p off a node, placed again on p's grid with work arrays of their
    size; None when fewer than `_ON_NODE_SHARE` of p's points sit on a node."""
    off = np.flatnonzero(p.frac != 0.0)
    if off.size > (1.0 - _ON_NODE_SHARE) * p.frac.size:
        return None
    return p.idx, off, GridPoints(*p.grid, t[off]), np.empty(off.size), np.empty(off.size)


def _block_plan(points: list, off_node: list, n: int) -> tuple[_Block, ...]:
    """The window's blocks, one per chunk of node sums that a block waits for,
    empty ones left out. A node reads its own node sum, those at the cells of
    its points and, for a point past the grid, the last; block c holds the
    nodes after block c-1 whose reads, and those of every node before them,
    lie in the first c chunks. Each block keeps its part of the placements of
    the sets not split and of the splits."""
    kept = tuple(p if s is None else None for p, s in zip(points, off_node))
    if n - 1 <= CHUNK:  # one chunk: one block, with its placements whole
        return (_Block(1, 0, n, kept, tuple(off_node)),)
    reads = np.arange(n)
    for p in points:
        np.maximum(reads, p.idx, out=reads)
        reads[p.above] = n - 1
    np.maximum.accumulate(reads, out=reads)
    last_nodes = np.minimum(np.arange(1, (n - 2) // CHUNK + 2) * CHUNK, n - 1)
    ends = np.searchsorted(reads, last_nodes, side="right")
    blocks, lo = [], 0
    for chunks, hi in enumerate(ends.tolist(), start=1):
        if hi > lo:
            blocks.append(_Block(chunks, lo, hi,
                                 tuple(None if p is None else p.part(lo, hi) for p in kept),
                                 tuple(None if s is None else _split_part(s, lo, hi)
                                       for s in off_node)))
        lo = hi
    return tuple(blocks)


def _split_part(split, lo: int, hi: int):
    """The part of an `_off_node` split at window nodes lo..hi-1, its `where`
    counted from lo."""
    idx, off, points, out, scratch = split
    j0, j1 = np.searchsorted(off, (lo, hi))
    return (None if idx is None else idx[lo:hi], off[j0:j1] - lo, points.part(j0, j1),
            out[j0:j1], scratch[j0:j1])


_workers = {}  # pid -> the executor, of one thread, that sums node sums in that process


class _NodeSums:
    """`_node_sums(v, step, buf, out)` as one future per chunk on this process's
    worker, made on first need (so `import mixedde` starts no thread and imports
    no `concurrent.futures`; a forked child makes its own), queued as v's nodes
    become final (`submit`). Each chunk runs in a copy of the caller's context
    (numpy keeps its errstate there) and takes its carry from the future before
    it, so it carries that chunk's error too, and the last future ends after
    all the others."""

    def __init__(self, v: np.ndarray, step: float, buf: np.ndarray, out: np.ndarray):
        self.v, self.step, self.buf, self.out = v, step, buf, out
        self.pid = os.getpid()
        self.chunks = []
        self._lo = 0  # the first node of the next chunk to queue
        self._cancelled = False
        self._context = contextvars.copy_context()

    def queued_all(self) -> bool:
        return self._lo >= self.v.size - 1

    def submit(self, final: int) -> bool:
        """Queue, in order, the chunks not yet queued whose nodes all lie before
        node `final`; False where the worker takes no more, as at interpreter
        shutdown."""
        width, last = self.buf.size - 1, self.v.size - 1
        try:
            worker = _workers.get(self.pid)
            if worker is None:
                from concurrent.futures import ThreadPoolExecutor
                # of two threads here at once, one keeps its executor, and only that
                # one starts
                worker = _workers.setdefault(self.pid,
                                             ThreadPoolExecutor(1, "mixedde-node-sums"))
            while self._lo < last and min(self._lo + width, last) < final:
                before = self.chunks[-1] if self.chunks else None
                self.chunks.append(worker.submit(self._context.run, self._sum, before,
                                                 self._lo))
                self._lo += width
        except RuntimeError:
            return False
        return True

    def cancel(self) -> None:
        """Skip the chunks still queued and wait for the one running."""
        self._cancelled = True
        if self.chunks:
            self.chunks[-1].exception()  # ends last, and raises nothing

    def _sum(self, before, lo: int) -> np.longdouble | None:
        if self._cancelled:
            return None
        carry = None if before is None else before.result()
        return gridfn._node_sums_chunk(self.v, self.step, lo, carry, self.buf, self.out)


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
    if u.case == "delay":  # a zero coefficient zeroes its term, even one past the float range
        return _term(a, d) - _term(b, -adv) - u.u(t)
    return _term(b, adv) - _term(a, -d) - u.u(t)


def _iterate(kernel: IterationKernel, u0: GeneratingCandidate, tol: float,
             max_iter: int) -> ConstructionResult:
    case, sp = kernel.case, kernel.sampled
    least, i = sp.margin(case)
    if least < -_NEG_TOL:
        need = "a(t) >= b(t)" if case == "delay" else "b(t) >= a(t)"
        raise ValueError(f"dominance hypothesis {need} fails at t={sp.ts[i]:.6g}")

    u_prev = _candidate_values(u0, sp)
    try:
        u = kernel.apply(u_prev)
        worst = float(np.max(u - u_prev))
        if not worst <= tol:  # a nan residual fails too
            i = int(np.argmax(u - u_prev))
            raise ValueError(
                f"u0 is not a supersolution: inequality residual {worst:.3e} > "
                f"{tol:.1e} at t={sp.ts[i]:.6g}")

        iterations = 1
        delta = kernel._distance(u, u_prev)
        del u_prev  # the seed is not needed again
        while delta > tol and iterations < max_iter:
            nxt = kernel.apply(u)
            iterations += 1
            delta = kernel._distance(nxt, u)
            u = nxt
        converged = delta <= tol
        defect = kernel._distance(kernel.apply(u), u)
    finally:  # no map is applied again, so the worker sums nothing more ahead
        kernel._cancel_look_ahead()
    kernel._release()  # allocated again if a later seed is tried

    u_limit = GridFunction(sp.window[0], sp.step, u)
    x = synthesize_solution(u_limit, case)
    eq_res = _equation_residual(x, sp)  # x lies on the kernel's grid
    caveats = (CAVEAT_EXTRAPOLATED,) if kernel.extrapolates else ()
    if not (math.isfinite(eq_res) and np.all(np.isfinite(x.values))):
        caveats += (CAVEAT_NONFINITE,)
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
    cum = CumulativeIntegral(u)
    integral = cum(u.times()) - cum(u.t_start)
    with np.errstate(over="ignore"):  # overflow saturates to inf
        vals = np.exp(-integral) if case == "delay" else np.exp(integral)
    return GridFunction(u.t_start, u.step, vals)


# ---------------------------------------------------------------------------
# Starter candidates
# ---------------------------------------------------------------------------

def witness_candidate(condition_id: str, sampled: SampledProblem,
                      lam: float | None = None) -> GeneratingCandidate:
    """The constructive witness u0 behind an explicit sufficient condition, on
    the grid of `sampled` and built from its samples of a and b.

    COR_1_2 -> u = a, COR_1_4_REMARK -> u = e*a, COR_1_3 -> the constant
    characteristic root; mirrored with b for the COR_2_x family.
    """
    for case, (base, root, remark) in criteria._FAMILIES.items():
        if condition_id in (base, remark):
            sampled.sample()
            coefficient = sampled.a if case == "delay" else sampled.b
            with np.errstate(over="ignore"):  # an overflowing seed is rejected as not finite
                values = (1.0 if condition_id == base else math.e) * coefficient
            u = GridFunction(sampled.window[0], sampled.step, values)
            return GeneratingCandidate(u, case)
        if condition_id == root:
            if lam is None:
                raise ValueError(f"{condition_id} witness needs its characteristic root")
            return GeneratingCandidate.constant(lam, case, sampled.window, sampled.step)
    raise ValueError(f"no constructive witness for {condition_id}")


def auto_construct(spec: ProblemSpec, window: tuple[float, float],
                   step: float = 1e-3, tol: float = 1e-8,
                   max_iter: int = 10000) -> ConstructionResult:
    """Construct a positive monotone solution trying default seeds in order.

    Samples the window once, picks the dominant case from a and b on that grid,
    then runs u0 = dominant coefficient, u0 = constant characteristic-envelope
    root and u0 = e * dominant coefficient through one kernel. Each seed is
    built only after the one before it is rejected (not finite, or not a
    supersolution), so the envelope root behind the second seed costs nothing
    when the first converges; a window too short for the equation residual
    raises. A caller with a seed of its own uses `iterate`. tol and max_iter
    are checked as in `iterate`, once, before any seed is tried.
    """
    _require_pattern(spec, "auto_construct")
    _require_stopping_rule(tol, max_iter)
    sampled = SampledProblem(spec, window, step)
    sampled.sample()  # the kernel and the seeds read a, b, g, h whole
    case = next((c for c in _CASES if sampled.margin(c)[0] >= -_NEG_TOL), None)
    if case is None:
        raise ValueError("neither dominance hypothesis holds: a-b changes sign "
                         "on the window")

    base, envelope, remark = criteria._FAMILIES[case]

    def seeds():  # a callable per seed; a seed that cannot be built is rejected
        yield lambda: witness_candidate(base, sampled)
        root = criteria._run(envelope, sampled)
        if root.holds:
            yield lambda: witness_candidate(envelope, sampled, lam=root.witness["lambda"])
        yield lambda: witness_candidate(remark, sampled)

    kernel = IterationKernel(sampled, case)
    last_error: Exception | None = None
    for build in seeds():
        try:
            return _iterate(kernel, build(), tol, max_iter)
        except _ShortWindow:
            raise  # the window's fault, the same for every seed
        except ValueError as exc:
            last_error = exc
    raise ValueError(f"no admissible starter candidate found: {last_error}")
