"""Direct numerical integration of the mixed-equation IVP by waveform relaxation.

The advanced argument makes one-pass marching impossible, so each sweep
integrates forward with Heun's method, taking delayed values from the sweep
being built and advanced values from the previous sweep's trajectory
(continued as a constant past its horizon). Sweeps repeat until the trajectory
stops changing. Convergence diagnostics are reported, never a uniqueness claim.
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
    max node change drops below tol (default 1e-10 * max(|x0|, 1)).

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

    report = SampledProblem(spec, (t0, T), step)
    # nodes run sigma past T, so every advanced argument up to T is on the grid
    sampled = SampledProblem(spec, (t0, T + report.sigma), step)
    n = len(sampled.ts)

    caveats = []
    delays = sampled.ts - sampled.g
    positive = delays[delays > 1e-12]
    if positive.size and step > float(np.min(positive)):
        caveats.append(CAVEAT_COARSE_STEP)

    # Grid positions of the deviated arguments, in units of step.
    idx = np.arange(n, dtype=float)
    dpos = np.minimum((sampled.g - t0) / step, idx)   # delayed, never ahead of its node
    apos = np.clip((sampled.h - t0) / step, idx, float(n - 1))  # advanced, clamped at horizon

    hist = [0.0] * n
    for i in np.flatnonzero(dpos < 0.0).tolist():
        hist[i] = float(ivp.phi(sampled.g[i]))
        if not math.isfinite(hist[i]):
            raise ValueError(f"history phi is not finite at t={sampled.g[i]:.6g}")

    dpos_l = dpos.tolist()
    apos_l = apos.tolist()
    ca = (-float(spec.delta1) * sampled.a).tolist()
    cb = (-float(spec.delta2) * sampled.b).tolist()

    half = 0.5 * step
    x0 = float(ivp.x0)

    zeros = [0.0] * n

    def sweep(x_prev: list[float], x_init: float = x0,
              hist_l: list[float] | None = None) -> list[float]:
        hl = hist if hist_l is None else hist_l
        x = [0.0] * n
        x[0] = x_init
        for i in range(n - 1):
            xi = x[i]
            # stage 1 at ts[i]
            p = dpos_l[i]
            if p < 0.0:
                xg = hl[i]
            else:
                j = int(p)
                w = p - j
                xg = x[j] if w == 0.0 else x[j] + w * (x[j + 1] - x[j])
            q = apos_l[i]
            j = int(q)
            if j >= n - 1:
                xh = x_prev[n - 1]
            else:
                xh = x_prev[j] + (q - j) * (x_prev[j + 1] - x_prev[j])
            k1 = ca[i] * xg + cb[i] * xh
            pred = xi + step * k1
            # stage 2 at ts[i+1]
            p = dpos_l[i + 1]
            if p < 0.0:
                xg = hl[i + 1]
            elif p > i:
                xg = xi + (p - i) * (pred - xi)
            else:
                j = int(p)
                w = p - j
                xg = x[j] if w == 0.0 else x[j] + w * (x[j + 1] - x[j])
            q = apos_l[i + 1]
            j = int(q)
            if j >= n - 1:
                xh = x_prev[n - 1]
            else:
                xh = x_prev[j] + (q - j) * (x_prev[j + 1] - x_prev[j])
            k2 = ca[i + 1] * xg + cb[i + 1] * xh
            x[i + 1] = xi + half * (k1 + k2)
        return x

    def dominant_gain(max_iters: int = 48) -> float:
        """Rayleigh estimate of the sweep map's leading error-mode gain.

        The sweep map is affine; its error dynamics equal the sweep with zero
        initial value and zero history, so a power iteration on that
        homogeneous map measures the gain that decides convergence. Iterates
        until the quotient stabilizes (the transient can last many sweeps).
        """
        e = np.ones(n)
        e[0] = 0.0
        mu = 0.0
        for k in range(max_iters):
            ke = np.asarray(sweep(e.tolist(), 0.0, zeros))
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
    x_prev = [x0] * n  # sweep 0: every node lies at or after t0
    history: list[float] = []
    converged = False
    sweeps = 0
    grow_streak = 0

    while sweeps < max_sweeps:
        sweeps += 1
        raw = sweep(x_prev)
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
            if not all(math.isfinite(v) for v in x_prev):
                x_prev = [x0] * n
                continue
        if weight < 1.0:
            x_prev = [(1.0 - weight) * u + weight * v for u, v in zip(x_prev, raw)]
        else:
            x_prev = raw

    if weight < 1.0:
        caveats.append(f"damped-sweeps-{weight:g}")

    traj_x = GridFunction(t0, step, np.asarray(x_prev[:len(report.ts)]))
    eq_res = _equation_residual(traj_x, report)
    return Trajectory(
        x=traj_x,
        relaxation_iterations=sweeps,
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
    dx = (v[inner + 1] - v[inner - 1]) / (2.0 * x.step)
    xg = np.interp(sampled.g[inner], ts, v)
    xh = np.interp(sampled.h[inner], ts, v)
    res = dx + spec.delta1 * sampled.a[inner] * xg + spec.delta2 * sampled.b[inner] * xh
    return float(np.max(np.abs(res)))


def classify_trajectory(tr: Trajectory, t_from: float) -> str:
    """oscillatory | nonoscillatory_positive | nonoscillatory_negative | undetermined.

    The sign threshold is 1e-9 * max|x| on [t_from, end]; a trajectory that
    dips below the threshold without an actual sign change is undetermined.
    """
    x = tr.x
    if t_from < x.t_start - 1e-12 or t_from > x.t_end + 1e-12:
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
