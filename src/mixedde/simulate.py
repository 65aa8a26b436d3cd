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

Undamped sweeps are computed up to eight at a time, as a wavefront across
sweeps (waveform relaxation: Lelarasmee, Ruehli & Sangiovanni-Vincentelli,
IEEE Trans. CAD 1, 1982). Sweep k+1 reads sweep k only at advanced nodes, so
it can start a run of the plan once sweep k has finished the run holding the
farthest node it reads, a fixed number of plan entries ahead. At each stage
every sweep in flight advances by one plan entry, and their vectorised runs
share one set of 2-D array operations, row by row in node order. Each node
still gets the same operations on the same values, so a batch of sweeps is
bit-identical to the same sweeps one at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gridfn import GridFunction
from .model import IVP, ProblemSpec, SampledProblem, _ShortWindow

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

# _HeunSweep.batch computes at most _MAX_BATCH sweeps at once, and fewer where
# their rows would pass _BATCH_FLOATS floats (256 KB), so a large grid runs one
# sweep at a time
_MAX_BATCH = 8
_BATCH_FLOATS = 2**15


class _HeunSweep:
    """Relax sweeps on a sampled grid: the previous sweep x_prev -> the next.

    Node i+1 gets x[i] + step/2 * (F[i] + F[i+1]) with
    F[k] = ca[k]*x(g_k) + cb[k]*x_prev(h_k); a deviated value between nodes is
    read by linear interpolation, x(g) is the history where g_k < t0, and
    x_prev stays at its last value past the horizon. Where the delay is under
    one step, the second stage reads x(g) from the Euler predictor instead.

    The read geometry is fixed, so the grid is split once into the plan of the
    method of steps in the module docstring, with the read tables of each plan
    entry; the result does not depend on it. A stepped stretch works out F
    once per node, except after a predictor read. `batch` computes up to
    `depth` successive sweeps at once, as a wavefront.
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
        ca = -float(spec.delta1) * sampled.a
        self._cb = -float(spec.delta2) * sampled.b
        past = dpos < 0.0
        self.history_nodes = np.flatnonzero(past)

        # x_prev(h) of node k is read at _a_j[k] and the node above, with weight
        # _a_w[k], or at the last node where _a_clamp[k]
        aj = apos.astype(np.intp)
        self._a_w = apos - aj
        self._a_clamp = aj >= n - 1
        self._a_j = np.minimum(aj, n - 2)

        dj = np.where(past, 0.0, dpos).astype(np.intp)
        w = np.where(past, 0.0, dpos - dj)
        exact = w == 0.0
        # the last and the first node that x(g) of node k reads (none for history)
        need = np.where(past, 0, np.where(exact, dj, dj + 1))
        lowest = np.where(past, np.arange(n), dj)
        # what the second stage of the step into node k reads
        kind = np.where(past, _HISTORY, np.where(dpos > idx - 1.0, _PREDICTOR, _GRID))
        bounds = self._plan_bounds(need.tolist())
        runs = [p for p, (_, _, run) in enumerate(bounds) if run]
        width = max((bounds[p][1] - bounds[p][0] for p in runs), default=0)

        # A sweep's row holds [x | slack | the history values | one more]: the
        # slack takes what a batch writes past the last node, and every x(g)
        # read also reads one place on (see batch).
        self._hist = hb = n + width
        self._stride = hb + len(self.history_nodes) + 1
        self.depth = max(1, min(_MAX_BATCH, _BATCH_FLOATS // self._stride - 1))
        if len(runs) * (width + 1) > 2 * n:
            self.depth = 1  # a batch's tables pad every run to the widest
        rank = np.cumsum(past) - past  # history nodes before node k
        # x(g) of node k is read at row[j[k]] and the place above, with weight
        # w[k], or at row[j[k]] alone where exact[k]
        j = np.where(past, hb + rank, dj)

        # Sweep L+1 reads sweep L up to node reach[p] in plan entry p, which
        # sweep L finishes in entry q[p]; so it can run _lag entries behind
        starts = np.array([s for s, _, _ in bounds])
        ends = np.array([e for _, e, _ in bounds])
        reach = np.maximum(np.maximum.reduceat(self._a_j, starts), self._a_j[ends]) + 1
        self._lag = int(np.max(np.searchsorted(ends, reach) - np.arange(len(bounds)))) + 1
        self._schedules: dict[int, list] = {}
        self._buf = np.empty((0, self._stride))  # the rows of the last batch
        if self.depth > 1:
            self._batch_tables(runs, starts, width, j, w, exact, ca)

        # per plan entry: s, e, its nodes, whether it reads past the horizon, then a
        # run's delayed reads (tail, j, w, exact or None, ca) or a stretch's tables
        self._plan = []
        for s, e, run in bounds:
            nodes = slice(s, e + 1)
            clamp = bool(self._a_clamp[nodes].any())
            if run:
                reads = (slice(s + 1, e + 1), j[nodes], w[nodes],
                         exact[nodes] if exact[nodes].any() else None, ca[nodes])
                self._plan.append((s, e, nodes, clamp, reads, None))
                continue
            lo = min(s, int(np.min(lowest[nodes])))
            kinds = kind[nodes]
            js = np.where(kinds == _HISTORY, rank[nodes] - rank[s], dj[nodes] - lo)
            steps = (lo, int(rank[s]), kinds.tolist(), js.tolist(), w[nodes].tolist(),
                     ca[nodes].tolist())
            self._plan.append((s, e, nodes, clamp, None, steps))

    @staticmethod
    def _plan_bounds(need: list[int]) -> list[tuple[int, int, bool]]:
        """(s, e, run) in grid order, covering every step 0 -> n-1 once: run is
        True for a vectorised run [s, e], whose nodes read x(g) at or before s,
        and False for a stretch stepped node by node."""
        n, plan = len(need), []
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
                plan.append((first, s, False))
                first = None
            plan.append((s, e, True))
            s = e
        if first is not None:
            plan.append((first, s, False))
        return plan

    def _batch_tables(self, runs: list[int], starts: np.ndarray, width: int, j: np.ndarray,
                      w: np.ndarray, exact: np.ndarray, ca: np.ndarray) -> None:
        """The read tables of the vectorised runs for batch, one row per run,
        padded to the widest: _idx holds a_j - stride (so that the offset of
        sweep L's own row reads its input row, the one before), j and the node;
        _val holds a_w, w, cb and ca; _mask clamp and exact. Rows are ordered by
        plan entry modulo the lag, so the runs one stage computes are adjacent."""
        lag = self._lag
        order = sorted(runs, key=lambda p: (p % lag, p))
        self._row = {p: i for i, p in enumerate(order)}
        nodes = starts[order][:, None] + np.arange(width + 1)
        at = np.minimum(nodes, self.n - 1)  # the padding reads the last node's tables
        self._idx = np.empty((3,) + at.shape, np.intp)
        self._val = np.empty((4,) + at.shape)
        self._mask = np.empty((2,) + at.shape, bool)
        for out, table in zip((*self._idx[:2], *self._val, *self._mask),
                              (self._a_j, j, self._a_w, w, self._cb, ca, self._a_clamp, exact)):
            np.take(table, at, out=out)
        self._idx[0] -= self._stride
        self._idx[2] = nodes

    def _schedule(self, k: int) -> list[tuple]:
        """The stages of a batch of k sweeps: per stage, the block of runs
        computed together (table rows and width, row offsets, clamp, exact) or
        None, then (sweep, plan entry) of the rest."""
        if k in self._schedules:
            return self._schedules[k]
        plan, lag, entries = self._plan, self._lag, len(self._plan)
        stages = []
        for t in range(entries + lag * (k - 1)):
            active = [(L, t - lag * L)
                      for L in range(max(0, (t - entries) // lag + 1), min(k - 1, t // lag) + 1)]
            block = [(L, p) for L, p in active if plan[p][4] is not None][::-1]  # as the table rows
            if len(block) < 2 or self.depth == 1:
                stages.append((None, active))
                continue
            first = self._row[block[0][1]]
            ps = [p for _, p in block]
            stages.append((((slice(None), slice(first, first + len(ps)),
                             slice(0, max(plan[p][1] - plan[p][0] for p in ps) + 1)),
                            # sweep L writes row L+1 of the batch
                            self._stride * (np.array([L for L, _ in block]) + 1)[:, None],
                            any(plan[p][3] for p in ps),
                            any(plan[p][4][3] is not None for p in ps)),
                           [(L, p) for L, p in active if plan[p][4] is None]))
        self._schedules[k] = stages
        return stages

    def __call__(self, x_prev: np.ndarray, x_init: float, hist) -> np.ndarray:
        """The sweep after x_prev, from x(t0) = x_init and the history values
        hist at history_nodes (0.0 for a zero history)."""
        return self.batch(x_prev, x_init, hist, 1)[0][0].copy()

    def batch(self, x_prev: np.ndarray, x_init: float, hist,
              k: int) -> tuple[np.ndarray, np.ndarray]:
        """The k sweeps after x_prev, each read by the next: (raws, inputs), k
        rows of n values each, inputs[0] holding x_prev and inputs[i] raws[i-1].
        The rows are kept for the next batch to write over, x_prev's row too,
        so the caller reads x_prev from inputs[0].

        Sweep L+1 reads sweep L only at advanced nodes, so it can run _lag plan
        entries behind it. At each stage every active sweep advances by one
        plan entry: two or more vectorised runs share one set of 2-D array
        operations on the flat rows, each row in node order, padded to the
        widest run. The padding writes past its run's last node, and the row's
        sweep writes there again before anything reads it. A lone run, and
        each stepped stretch, is computed on its sweep's row. Each node gets
        the same operations on the same values as in k batches of one, so the
        sweeps are bit-identical.
        """
        n = self.n
        if len(self._buf) < k + 1:
            self._buf = np.empty((k + 1, self._stride))
        buf = self._buf[:k + 1]  # row L+1 holds sweep L
        buf[0, :n] = x_prev  # first: x_prev may be a row of the last batch
        x_prev = buf[0, :n]
        buf[1:, 0] = x_init
        buf[1:, self._hist:-1] = hist
        rows, flat = list(buf), buf.ravel()
        above = flat[1:]  # above[i] is flat[i + 1]
        with np.errstate(over="ignore", invalid="ignore"):
            cbxh = self._ahead(x_prev, self._a_j, self._a_w, self._a_clamp, self._cb,
                               x_prev[n - 1])
            for block, rest in self._schedule(k):
                if block is not None:
                    tab, off, clamp, exact = block
                    at = self._idx[tab] + off
                    x = flat[at[:2]]  # x_prev(h) and x(g), at the places below
                    val = self._val[tab]
                    # read above as well: an exact x(g) then takes the node alone
                    xh, xg = x + val[:2] * (above[at[:2]] - x)
                    if clamp:
                        np.copyto(xh, flat[off + (n - 1 - self._stride)],
                                  where=self._mask[tab][0])
                    if exact:  # a node read exactly takes the node's value
                        np.copyto(xg, x[1], where=self._mask[tab][1])
                    self._advance(flat, np.s_[:, 0], at[2][:, 0], at[2][:, 1:],
                                  val[3] * xg + val[2] * xh)
                for L, p in rest:
                    s, e, nodes, clamp, run, steps = self._plan[p]
                    row = rows[L + 1]
                    cb = cbxh[nodes] if L == 0 else self._ahead(
                        rows[L], self._a_j[nodes], self._a_w[nodes],
                        self._a_clamp[nodes] if clamp else None, self._cb[nodes], rows[L][n - 1])
                    if run is None:
                        self._step_nodes(row, s, e, steps, cb)
                        continue
                    tail, j, w, exact, ca = run
                    xj = row[j]
                    xg = xj + w * (row[1:][j] - xj)  # as in a block
                    if exact is not None:
                        np.copyto(xg, xj, where=exact)
                    self._advance(row, 0, s, tail, ca * xg + cb)
        return buf[1:, :n], buf[:k, :n]

    @staticmethod
    def _ahead(x_prev, aj, aw, clamp, cb, last):
        """cb*x_prev(h): x_prev read at aj and the place above with weight aw, or
        last where clamp."""
        xa = x_prev[aj]
        xh = x_prev[1:][aj]
        xh -= xa
        xh *= aw
        xh += xa  # xa + aw*(x_prev[aj+1] - xa), in place
        if clamp is not None:
            np.copyto(xh, last, where=clamp)
        xh *= cb
        return xh

    def _advance(self, buf, lead, head, tail, f) -> None:
        """Heun steps from the slopes f of a run's nodes: buf[tail] from
        buf[head]. lead is the run's first increment: 0 for one run, [:, 0]
        for a block of runs, one per row."""
        d = self.half * (f[..., :-1] + f[..., 1:])
        d[lead] += buf[head]
        # in node order, as a loop adds
        if isinstance(tail, slice):
            np.add.accumulate(d, out=buf[tail])
        else:
            buf[tail] = np.add.accumulate(d, axis=-1)

    def _step_nodes(self, buf: np.ndarray, s: int, e: int, steps: tuple,
                    cbxh: np.ndarray) -> None:
        """Heun steps s -> e one node at a time, from the read tables of the plan.

        F[k] is worked out once per node: the second stage of the step into
        node k gives the first stage of the step out of it, with the same
        operations on the same values, except where that second stage read
        the Euler predictor; there F[k] is worked out again from the new node.
        """
        step, half = self.step, self.half
        lo, h0, kinds, js, ws, cas = steps
        x = buf[lo:s + 1].tolist()  # nodes lo.., the stretch's nodes appended in turn
        push = x.append
        hl = buf[self._hist + h0:self._hist + h0 + e + 1 - s].tolist()
        rows = zip(kinds, js, ws, cas, cbxh.tolist())
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
    Undamped sweeps come in batches of up to eight, computed as a wavefront;
    where the loop stops or changes the weight, the rest of a batch is dropped,
    so the sweeps, the residual history and the result are as one at a time.

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
    past = sampled.g[sweep.history_nodes]
    hist = np.array([float(ivp.phi(t)) for t in past])
    if not np.all(np.isfinite(hist)):
        raise ValueError(f"history phi is not finite at t={past[~np.isfinite(hist)][0]:.6g}")
    x0 = float(ivp.x0)

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
            ke = sweep(e, 0.0, 0.0)
            denom = float(e @ e)
            if denom == 0.0 or not np.all(np.isfinite(ke)):
                break
            with np.errstate(over="ignore"):  # a dot product past the float range is +/-inf
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
    batch: list[tuple] = []  # (raw, input) of the sweeps computed ahead, last first

    while len(history) < max_sweeps:
        if not batch:
            # undamped sweeps run in batches; where they stop, or the weight
            # changes, the rest of the batch is dropped
            k = sweep.depth if advanced_coupling and weight == 1.0 else 1
            batch = list(zip(*sweep.batch(x_prev, x0, hist, min(k, max_sweeps - len(history)))))
            batch.reverse()
        raw, x_prev = batch.pop()  # x_prev: the same values, in the batch's rows
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
            batch = []
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
    del sweep, batch, raw, x_prev  # the batch's rows and tables go before the residual's arrays
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
        raise _ShortWindow("window too short: no interior nodes outside the margins")
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
    dips below the threshold without an actual sign change is undetermined,
    and so is one that is zero throughout.
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
    if m <= -eps and mx >= eps and eps > 0:
        return "oscillatory"
    return "undetermined"
