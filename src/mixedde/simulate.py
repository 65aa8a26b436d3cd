"""Direct numerical integration of the mixed-equation IVP by waveform relaxation.

The advanced argument makes one-pass marching impossible, so each sweep
integrates forward with Heun's method, taking delayed values from the sweep
being built and advanced values from the previous sweep's trajectory
(continued as a constant past its horizon). Sweeps repeat until the trajectory
stops changing. Convergence diagnostics are reported, never a uniqueness claim.

A sweep advances by the method of steps (Bellen & Zennaro, *Numerical Methods
for Delay Differential Equations*, 2003). The advanced values all come from the
previous sweep, so they are read for the whole grid at once. A run of nodes
whose delayed arguments all fall at or before the run's first node needs
nothing else from the sweep being built, so its Heun increments are formed
with array operations and added in node order by a cumulative sum. Every node
gets the same floating-point operations, in the same order, as a node-by-node
loop would give it, so the trajectory is bit-identical to that loop's. Short
runs, and nodes whose delay is under one step (where Heun's second stage reads
its own predictor), are stepped one node at a time. A stepped node's slope F
is worked out once: the second stage of the step into the node is the first
stage of the step out of it, the same operations on the same values (Heun's
first-same-as-last property), except after a predictor read, where it is
worked out again from the new node. So the stepped nodes, too, stay
bit-identical to the loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gridfn import GridFunction
from .model import IVP, ProblemSpec, SampledProblem

__all__ = [
    "Trajectory",
    "relax",
    "classify_trajectory",
    "equation_residual",
]

CAVEAT_COARSE_STEP = "step-larger-than-min-delay"
CAVEAT_AMPLIFYING = "amplifying-advance-feedback"
_SIGN_TOL = 1e-9  # classify_trajectory's sign threshold, relative to max|x|
_GAIN_ITERS = 48  # power iterations of relax's gain estimate, at most


# A vectorised run costs about a dozen numpy calls, about as much as stepping a
# dozen nodes in Python; shorter runs are stepped one node at a time.
_MIN_RUN = 12

# what x(g) the second stage of a Heun step reads: the history, the nodes
# already computed, or the Euler predictor (a delay under one step)
_HISTORY, _GRID, _PREDICTOR = 0, 1, 2


class _HeunSweep:
    """One relax sweep on a sampled grid: the previous sweep x_prev -> the next.

    Node i+1 gets x[i] + step/2 * (F[i] + F[i+1]) with
    F[k] = ca[k]*x(g_k) + cb[k]*x_prev(h_k); a deviated value between nodes is
    read by linear interpolation, x(g) is the history where g_k < t0, and
    x_prev stays at its last value past the horizon. Where the delay is under
    one step, the second stage reads x(g) from the Euler predictor instead.

    The read geometry is fixed, so the grid is split once into the plan of the
    method of steps in the module docstring, with the read tables of each
    stepped stretch; the result does not depend on it. A stepped stretch
    works out F once per node, except after a predictor read.
    """

    def __init__(self, sampled: SampledProblem):
        spec, step = sampled.spec, sampled.step
        n = len(sampled.ts)
        t0 = sampled.window[0]
        # grid positions of the deviated arguments, in units of step
        idx = np.arange(n, dtype=float)
        with np.errstate(over="ignore"):  # a position past the float range is +/-inf
            # delayed, never ahead of its node; advanced, clamped at the horizon
            dpos = np.minimum((sampled.g - t0) / step, idx)
            apos = np.clip((sampled.h - t0) / step, idx, float(n - 1))
        self.n, self.step, self.half = n, step, 0.5 * step
        self._ca = -float(spec.delta1) * sampled.a
        self._cb = -float(spec.delta2) * sampled.b
        past = dpos < 0.0
        self.history_nodes = np.flatnonzero(past)

        aj = apos.astype(np.intp)
        self._a_w = apos - aj
        self._a_clamp = aj >= n - 1
        self._a_j = np.minimum(aj, n - 2)
        self._a_j1 = self._a_j + 1

        # x(g) of node k is read from buf[_d_j[k]] (and buf[_d_j1[k]] unless
        # _d_exact[k]), where a sweep's buffer holds [x | history]
        dj = np.where(past, 0.0, dpos).astype(np.intp)
        w = np.where(past, 0.0, dpos - dj)
        exact = w == 0.0
        j = np.where(past, n + np.arange(n), dj)
        self._d_j, self._d_j1, self._d_w, self._d_exact = (
            j, np.where(exact, j, j + 1), w, exact)
        # the last and the first node that x(g) of node k reads (none for history)
        need = np.where(past, 0, np.where(exact, dj, dj + 1))
        lowest = np.where(past, np.arange(n), dj)
        # what the second stage of the step into node k reads
        kind = np.where(past, _HISTORY, np.where(dpos > idx - 1.0, _PREDICTOR, _GRID))
        self._plan = self._plan_runs(need.tolist(), lowest, kind)

    def _plan_runs(self, need: list[int], lowest: np.ndarray,
                   kind: np.ndarray) -> list[tuple]:
        """(s, e, run, steps) in grid order, covering every step 0 -> n-1 once.

        run holds the read arrays of a vectorised run [s, e], and steps is None.
        A stretch stepped node by node has run None, and steps holds its read
        tables for nodes s..e, built here once: lo, the first node it reads;
        then per node the kind of its second-stage read (history, grid node or
        predictor), the local index j - lo of the node at or below g_k (or
        k - s into the stretch's history values), the weight of the node
        above, and ca.
        """
        def stepped(s: int, e: int) -> tuple:
            nodes = slice(s, e + 1)
            lo = min(s, int(np.min(lowest[nodes])))
            kinds = kind[nodes]
            j = np.where(kinds == _HISTORY, np.arange(e + 1 - s), self._d_j[nodes] - lo)
            return s, e, None, (lo, kinds.tolist(), j.tolist(), self._d_w[nodes].tolist(),
                                self._ca[nodes].tolist())

        n, plan = self.n, []
        s, first = 0, None
        while s < n - 1:
            e = s + 1
            while e < n and need[e] <= s:
                e += 1
            e -= 1
            if e - s < _MIN_RUN:
                first = s if first is None else first
                s = max(e, s + 1)
                continue
            if first is not None:
                plan.append(stepped(first, s))
                first = None
            nodes = slice(s, e + 1)
            exact = self._d_exact[nodes]
            plan.append((s, e, (self._d_j[nodes], self._d_j1[nodes], self._d_w[nodes],
                                exact if exact.any() else None, self._ca[nodes]), None))
            s = e
        if first is not None:
            plan.append(stepped(first, s))
        return plan

    def __call__(self, x_prev: np.ndarray, x_init: float, hist: np.ndarray) -> np.ndarray:
        """The sweep after x_prev, from x(t0) = x_init and the history values
        hist[k] at history_nodes (other entries of hist are not read)."""
        n = self.n
        buf = np.empty(2 * n)
        buf[n:] = hist
        buf[0] = x_init
        half = self.half
        with np.errstate(over="ignore", invalid="ignore"):
            aj = self._a_j
            xh = x_prev[aj] + self._a_w * (x_prev[self._a_j1] - x_prev[aj])
            xh[self._a_clamp] = x_prev[n - 1]
            cbxh = self._cb * xh
            for s, e, run, steps in self._plan:
                if run is None:
                    self._step_nodes(buf, cbxh, s, e, steps)
                    continue
                j, j1, w, exact, ca = run
                xj = buf[j]
                xg = xj + w * (buf[j1] - xj)
                if exact is not None:  # a node read exactly takes the node's value
                    xg = np.where(exact, xj, xg)
                f = ca * xg + cbxh[s:e + 1]
                d = half * (f[:-1] + f[1:])
                d[0] += buf[s]
                np.add.accumulate(d, out=buf[s + 1:e + 1])  # in node order, as a loop adds
        return buf[:n]

    def _step_nodes(self, buf: np.ndarray, cbxh: np.ndarray, s: int, e: int,
                    steps: tuple) -> None:
        """Heun steps s -> e one node at a time, from the read tables of the plan.

        F[k] is worked out once per node: the second stage of the step into
        node k gives the first stage of the step out of it, with the same
        operations on the same values, except where that second stage read
        the Euler predictor; there F[k] is worked out again from the new node.
        """
        step, half = self.step, self.half
        lo, kinds, js, ws, cas = steps
        x = buf[lo:s + 1].tolist()  # nodes lo.., the stretch's nodes appended in turn
        push = x.append
        hl = buf[self.n + s:self.n + e + 1].tolist()
        rows = zip(kinds, js, ws, cas, cbxh[s:e + 1].tolist())
        kind, j, w, ca, cb = next(rows)
        if kind == _HISTORY:
            k1 = ca * hl[j] + cb
        else:
            k1 = ca * (x[j] if w == 0.0 else x[j] + w * (x[j + 1] - x[j])) + cb
        xi = x[-1]
        for kind, j, w, ca, cb in rows:
            if kind == _GRID:
                k2 = ca * (x[j] if w == 0.0 else x[j] + w * (x[j + 1] - x[j])) + cb
            elif kind == _HISTORY:
                k2 = ca * hl[j] + cb
            else:
                # the predictor is read at p = i + w, or at i + 1 where w = 0
                pred = xi + step * k1
                k2 = ca * (xi + (w or 1.0) * (pred - xi)) + cb
                xn = xi + half * (k1 + k2)
                push(xn)
                k1 = ca * (xn if w == 0.0 else xi + w * (xn - xi)) + cb
                xi = xn
                continue
            xi = xi + half * (k1 + k2)
            push(xi)
            k1 = k2
        buf[s + 1:e + 1] = x[s + 1 - lo:]


@dataclass(frozen=True)
class Trajectory:
    x: GridFunction
    relaxation_iterations: int
    relaxation_residual: float
    equation_residual: float
    converged: bool
    residual_history: tuple[float, ...] = ()
    caveats: tuple[str, ...] = ()


def relax(ivp: IVP, T: float, step: float, tol: float | None = None,
          max_sweeps: int = 200) -> Trajectory:
    """Iterated forward integration of the IVP on [t0, T].

    Sweep 0 is the constant x0 (with phi before t0); sweep k+1 re-integrates
    x' = -delta1*a*x(g) - delta2*b*x(h) by Heun's method, reading x(g) from the
    nodes already computed this sweep and x(h) from sweep k. Stops when the
    max node change drops below tol (default 1e-10 * max(|x0|, 1)); an explicit
    tol that is not positive and finite raises ValueError. Each sweep is a
    _HeunSweep, by the method of steps in the module docstring, planned once.

    When the advance coupling makes the pure iteration amplify with a
    sign-alternating leading mode (gain measured by a short power iteration on
    the homogeneous sweep map), sweeps are averaged, x <- (1-w)*x_old + w*raw,
    with w tuned to push that mode inside the unit disk; averaging changes the
    iteration path, never the fixed point, and the weight used is reported as
    a caveat. A positive amplifying mode cannot be stabilized this way; such
    runs end converged=False with the amplifying-advance-feedback caveat.
    """
    spec = ivp.spec
    t0 = spec.t0
    if not T > t0:
        raise ValueError("horizon T must exceed t0")
    if max_sweeps < 1:
        raise ValueError("need at least one sweep")
    if tol is None:
        tol = 1e-10 * max(abs(ivp.x0), 1.0)
    elif not (tol > 0 and math.isfinite(tol)):
        raise ValueError("tol must be positive and finite")

    report = SampledProblem(spec, (t0, T), step)
    # nodes run sigma past T, so every advanced argument up to T is on the grid
    sampled = SampledProblem(spec, (t0, T + report.sigma), step)
    n = len(sampled.ts)

    caveats = []
    delays = sampled.ts - sampled.g
    positive = delays[delays > 1e-12]
    if positive.size and step > float(np.min(positive)):
        caveats.append(CAVEAT_COARSE_STEP)

    sweep = _HeunSweep(sampled)
    hist = np.zeros(n)
    for i in sweep.history_nodes.tolist():
        hist[i] = float(ivp.phi(sampled.g[i]))
        if not math.isfinite(hist[i]):
            raise ValueError(f"history phi is not finite at t={sampled.g[i]:.6g}")
    x0 = float(ivp.x0)
    zeros = np.zeros(n)

    def dominant_gain() -> float:
        """Rayleigh estimate of the sweep map's leading error-mode gain.

        The sweep map is affine; its error dynamics equal the sweep with zero
        initial value and zero history, so a power iteration on that
        homogeneous map measures the gain that decides convergence. Iterates
        until the quotient stabilizes (the transient can last many sweeps).
        """
        e = np.ones(n)
        e[0] = 0.0
        mu = 0.0
        for k in range(_GAIN_ITERS):
            ke = sweep(e, 0.0, zeros)
            denom = float(e @ e)
            if denom == 0.0 or not np.all(np.isfinite(ke)):
                break
            prev_mu, mu = mu, float(ke @ e) / denom
            norm = float(np.max(np.abs(ke)))
            if norm == 0.0:
                break
            e = ke / norm
            if k >= 7 and abs(mu - prev_mu) <= 1e-2 * max(abs(mu), 1e-3):
                break
        return mu

    advanced_coupling = bool(np.any(sampled.b != 0.0))
    weight = 1.0
    if advanced_coupling and max_sweeps > 1:
        mu = dominant_gain()
        if mu < -0.9:
            # sign-alternating amplification: averaging with weight
            # 1/(1 + 1.15|mu|) pushes the leading mode inside the unit disk
            weight = 1.0 / (1.0 + 1.15 * abs(mu))
        elif mu > 1.02:
            # positive amplification: no sweep averaging can stabilize it
            # (the forward scheme has no fixed point to converge to here)
            caveats.append(CAVEAT_AMPLIFYING)
    min_weight = 1.0 / 64.0
    x_prev = np.full(n, x0)  # sweep 0: every node lies at or after t0
    history: list[float] = []
    converged = False
    grow_streak = 0

    while len(history) < max_sweeps:
        raw = sweep(x_prev, x0, hist)
        # the reported residual is the raw sweep defect, independent of
        # damping; np.max propagates a NaN, which Python's max would skip
        delta = float(np.max(np.abs(np.subtract(raw, x_prev))))
        history.append(delta)
        if not advanced_coupling:
            # no advanced term: the first sweep is already the fixed point
            x_prev = raw
            converged = math.isfinite(delta)
            if converged:
                history[-1] = 0.0
            break
        if delta <= tol:
            x_prev = raw
            converged = True
            break
        grow_streak = grow_streak + 1 if (
            len(history) >= 2 and delta > history[-2]) else 0
        if (not math.isfinite(delta) or grow_streak >= 8) and weight > min_weight:
            # safety net for drift past the measured gain: damp harder
            weight = max(0.5 * weight, min_weight)
            grow_streak = 0
            if not np.all(np.isfinite(x_prev)):
                x_prev = np.full(n, x0)
                continue
        if weight < 1.0:
            with np.errstate(over="ignore", invalid="ignore"):
                x_prev = (1.0 - weight) * x_prev + weight * raw
        else:
            x_prev = raw

    if weight < 1.0:
        caveats.append(f"damped-sweeps-{weight:g}")

    traj_x = GridFunction(t0, step, x_prev[:len(report.ts)].copy())
    eq_res = _equation_residual(traj_x, report)
    return Trajectory(
        x=traj_x,
        relaxation_iterations=len(history),
        relaxation_residual=history[-1],
        equation_residual=eq_res,
        converged=converged,
        residual_history=tuple(history),
        caveats=tuple(caveats),
    )


def equation_residual(x: GridFunction, spec: ProblemSpec) -> float:
    """Max |x' + delta1*a*x(g) + delta2*b*x(h)| over interior nodes.

    x' by central differences; margins of width tau (left) and sigma (right)
    are excluded so every deviated argument stays inside the trajectory's grid.
    """
    # half a cell short of t_end, so rounding cannot add a node to x's grid
    return _equation_residual(
        x, SampledProblem(spec, (x.t_start, x.t_end - 0.5 * x.step), x.step))


def _equation_residual(x: GridFunction, sampled: SampledProblem) -> float:
    """equation_residual with the problem already sampled on x's grid."""
    spec, ts = sampled.spec, sampled.ts
    lo = x.t_start + sampled.tau - 1e-9 * x.step
    hi = x.t_end - sampled.sigma + 1e-9 * x.step
    inner = np.flatnonzero((ts >= lo) & (ts <= hi))
    inner = inner[(inner >= 1) & (inner <= len(ts) - 2)]
    if inner.size == 0:
        raise ValueError("window too short: no interior nodes outside the margins")
    v = x.values
    with np.errstate(over="ignore", invalid="ignore"):  # an x at inf gives nan
        dx = (v[inner + 1] - v[inner - 1]) / (2.0 * x.step)
        xg = np.interp(sampled.g[inner], ts, v)
        xh = np.interp(sampled.h[inner], ts, v)
        res = dx + spec.delta1 * sampled.a[inner] * xg + spec.delta2 * sampled.b[inner] * xh
    return float(np.max(np.abs(res)))


def classify_trajectory(tr: Trajectory, t_from: float) -> str:
    """oscillatory | nonoscillatory_positive | nonoscillatory_negative | undetermined.

    The sign threshold is 1e-9 * max|x| on [t_from, end]; a trajectory that
    dips below the threshold without an actual sign change is undetermined.
    A t_from outside [start, end] of the trajectory, or NaN, raises ValueError.
    """
    x = tr.x
    if not x.t_start - 1e-12 <= t_from <= x.t_end + 1e-12:  # False for NaN
        raise ValueError("t_from outside the trajectory domain")
    ts = x.times()
    seg = x.values[ts >= t_from - 1e-12]
    if seg.size == 0:
        seg = x.values[-1:]
    eps = _SIGN_TOL * float(np.max(np.abs(seg)))
    m, mx = float(np.min(seg)), float(np.max(seg))
    if m >= eps and eps > 0:
        return "nonoscillatory_positive"
    if mx <= -eps and eps > 0:
        return "nonoscillatory_negative"
    if m <= -eps and mx >= eps:
        return "oscillatory"
    return "undetermined"
