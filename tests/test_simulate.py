import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from mixedde import simulate
from mixedde.construct import GeneratingCandidate, iterate
from mixedde.gridfn import GridFunction
from mixedde.model import IVP, CoefficientExpr, SampledProblem, parse_expr
from mixedde.simulate import (_GRID, _HISTORY, _MIN_RUN, _PREDICTOR, Trajectory, _HeunSweep,
                              classify_trajectory, equation_residual, relax)

from conftest import EXAMPLES, LAM2, make_spec, peak_window_arrays


def test_ode_reduction_single_sweep():
    spec = make_spec(a="1", b="0", g="t", h="t")
    tr = relax(IVP(spec, parse_expr("1"), 1.0), 1.0, 1e-3)
    assert tr.converged
    assert tr.relaxation_iterations == 1
    assert tr.x(1.0) == pytest.approx(math.exp(-1.0), abs=1e-6)


def test_example1_tracks_exponential(ex1_spec):
    ivp = IVP(ex1_spec, parse_expr(f"exp(-{LAM2!r}*t)"), 1.0)
    tr = relax(ivp, 10.0, 1e-3)
    assert tr.converged
    ts = tr.x.times()
    ref = np.exp(-LAM2 * ts)
    # away from the terminal-closure quarantine the match is tight
    keep = ts <= 8.0
    rel = np.abs(tr.x.values[keep] - ref[keep]) / ref[keep]
    assert np.max(rel) <= 1e-3
    assert np.all(tr.x.values > 0)
    assert classify_trajectory(tr, 0.0) == "nonoscillatory_positive"


def test_example3_relaxation(ex3_spec):
    ivp = IVP(ex3_spec, parse_expr("1"), 1.0)
    tr = relax(ivp, 20.0, 2e-3, tol=1e-8, max_sweeps=400)
    assert tr.converged
    assert tr.equation_residual <= 1e-4
    ts = tr.x.times()
    assert np.all(tr.x.values[ts <= 20.0 - 0.3] > 0)
    assert any(c.startswith("damped-sweeps") for c in tr.caveats)


def test_sweep_contraction_example1(ex1_spec):
    ivp = IVP(ex1_spec, parse_expr("1"), 1.0)
    tr = relax(ivp, 6.0, 2e-3)
    drops = np.diff(np.asarray(tr.residual_history))
    assert np.all(drops[:-1] <= 0)  # monotone until the convergence cut


def _constant_trajectory(values, step=0.01):
    x = GridFunction(0.0, step, np.asarray(values, dtype=float))
    return Trajectory(x, 1, 0.0, 0.0, True)


def test_classify_positive():
    tr = _constant_trajectory(np.ones(201))
    assert classify_trajectory(tr, 0.0) == "nonoscillatory_positive"


def test_classify_negative():
    tr = _constant_trajectory(-np.ones(201))
    assert classify_trajectory(tr, 0.0) == "nonoscillatory_negative"


def test_classify_oscillatory():
    ts = np.arange(0.0, 10.0, 0.01)
    tr = _constant_trajectory(np.sin(ts))
    assert classify_trajectory(tr, 0.0) == "oscillatory"


def test_classify_undetermined_on_deep_dip():
    ts = np.arange(0.0, 3.0, 0.01)
    tr = _constant_trajectory(np.exp(-10.0 * ts))  # dips below 1e-9 * max|x|
    assert classify_trajectory(tr, 0.0) == "undetermined"


def test_classify_undetermined_when_zero_throughout():
    # no sign, so no sign change: the zero threshold must not read 0 as both signs
    assert classify_trajectory(_constant_trajectory(np.zeros(201)), 0.0) == "undetermined"


def test_classify_an_empty_segment_reads_the_last_value():
    # t_from - 1e-12 rounds past t_end, so no node is at or after it
    tr = Trajectory(GridFunction(0.0, 1.2259096130103334e-12, [1.0, 2.0]), 1, 0.0, 0.0, True)
    t_from = tr.x.t_end + 1e-12
    assert not np.any(tr.x.times() >= t_from - 1e-12)
    assert classify_trajectory(tr, t_from) == "nonoscillatory_positive"


def test_classify_start_time_restriction():
    ts = np.arange(0.0, 10.0, 0.01)
    vals = np.where(ts < 4.0, np.sin(5 * ts), 1.0)
    tr = _constant_trajectory(vals)
    assert classify_trajectory(tr, 0.0) == "oscillatory"
    assert classify_trajectory(tr, 5.0) == "nonoscillatory_positive"
    with pytest.raises(ValueError):
        classify_trajectory(tr, 99.0)


def test_residual_zero_solution():
    spec = make_spec()
    tr = _constant_trajectory(np.zeros(2001), step=0.005)
    assert equation_residual(tr.x, spec) == 0.0


def test_residual_margin_guard():
    spec = make_spec(g="t-3", h="t+3")
    x = GridFunction.constant(1.0, 0.0, 4.0, 0.1)
    with pytest.raises(ValueError, match="margin"):
        equation_residual(x, spec)


def test_residual_order_on_exponential(ex1_spec):
    # exact exponential solution: residual decays at order >= 1.9 under halving
    resids = []
    for step in (2e-3, 1e-3):
        ts = np.arange(0.0, 4.0 + step / 2, step)
        x = GridFunction(0.0, step, np.exp(-LAM2 * ts))
        resids.append(equation_residual(x, ex1_spec))
    order = math.log2(resids[0] / resids[1])
    assert order >= 1.9


def test_relax_order_on_smooth_problem(ex1_spec):
    ivp = IVP(ex1_spec, parse_expr(f"exp(-{LAM2!r}*t)"), 1.0)
    resids = [relax(ivp, 4.0, step).equation_residual for step in (2e-3, 1e-3)]
    order = math.log2(resids[0] / resids[1])
    assert order >= 1.9


def test_cross_validation_with_construct(ex1_spec):
    tol = 1e-6
    window = (0.0, 15.0)
    built = iterate(GeneratingCandidate.constant(1.0, "delay", window, 1e-3),
                    ex1_spec, window, tol=tol)
    assert built.converged
    ivp = IVP(ex1_spec, built.x, float(built.x(0.0)))
    tr = relax(ivp, 12.0, 1e-3)
    assert tr.converged
    ts = tr.x.times()
    keep = ts <= 9.0
    diff = np.abs(tr.x.values[keep] - built.x(ts[keep]))
    assert np.max(diff) <= 10 * tol
    assert classify_trajectory(tr, 0.0) == "nonoscillatory_positive"


def test_relax_argument_validation(ex1_spec):
    ivp = IVP(ex1_spec, parse_expr("1"), 1.0)
    with pytest.raises(ValueError):
        relax(ivp, -1.0, 1e-3)
    with pytest.raises(ValueError):
        relax(ivp, 5.0, -1e-3)


def test_coarse_step_flagged(ex1_spec):
    ivp = IVP(ex1_spec, parse_expr("1"), 1.0)
    tr = relax(ivp, 3.0, 0.5, tol=1e-6)
    assert "step-larger-than-min-delay" in tr.caveats


def test_relax_rejects_non_finite_history(ex1_spec):
    with pytest.raises(ValueError, match="history phi is not finite"):
        relax(IVP(ex1_spec, lambda t: math.nan, 1.0), 2.0, 0.004)


def test_relax_overflowing_sweeps_do_not_converge():
    # finite but huge: the sweeps overflow to inf and then NaN
    ivp = IVP(make_spec(a="1e300"), CoefficientExpr.const(1.0), 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        tr = relax(ivp, 2.0, 0.004, max_sweeps=30)
    assert not tr.converged


def test_relax_samples_report_and_node_grids_once(ex1_spec, sampled_builds):
    relax(IVP(ex1_spec, parse_expr("1"), 1.0), 10.0, 0.004)
    assert [args[1:] for args in sampled_builds] == [((0.0, 10.0), 0.004),
                                                     ((0.0, 10.3), 0.004)]


# -- the method-of-steps sweep against the node-by-node loop it replaced ----------------

def _loop_sweep(sampled, x_prev, x_init, hl):
    """The node-by-node Heun sweep that _HeunSweep replaced, kept as its oracle:
    the read geometry and the loop body are copied verbatim from that version."""
    spec, step = sampled.spec, sampled.step
    t0, n = sampled.window[0], len(sampled.ts)
    idx = np.arange(n, dtype=float)
    dpos = np.minimum((sampled.g - t0) / step, idx)   # delayed, never ahead of its node
    apos = np.clip((sampled.h - t0) / step, idx, float(n - 1))  # advanced, clamped at horizon
    dpos_l = dpos.tolist()
    apos_l = apos.tolist()
    ca = (-float(spec.delta1) * sampled.a).tolist()
    cb = (-float(spec.delta2) * sampled.b).tolist()
    half = 0.5 * step

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


def _assert_sweeps_identical(sampled, x_prev, x_init, phi):
    """Both sweeps, with history phi and with the homogeneous data (0, 0)."""
    sweep = _HeunSweep(sampled)
    hist = np.zeros(len(sampled.ts))
    hist[sweep.history_nodes] = phi(sampled.g[sweep.history_nodes])
    # the sweep takes the history nodes' values, the loop reads them by node
    for init, past, hl in ((x_init, hist[sweep.history_nodes], hist),
                           (0.0, 0.0, np.zeros_like(hist))):
        got = sweep(x_prev, init, past)
        want = np.asarray(_loop_sweep(sampled, x_prev.tolist(), init, hl.tolist()))
        # bit patterns, so that signed zeros count too
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def _delays(step):
    """Delay expressions t - g(t): zero, under one step, exact multiples of the
    (dyadic) step, arbitrary constants, and cos-varying ones reaching zero."""
    return st.one_of(
        st.just("0"),
        st.floats(0.05, 0.95).map(lambda f: repr(f * step)),
        st.integers(1, 40).map(lambda m: repr(m * step)),
        st.floats(0.0, 0.6).map(repr),
        st.tuples(st.floats(0.0, 0.2), st.floats(0.0, 1.0), st.floats(0.5, 3.0)).map(
            lambda c: f"{c[0]!r}+{c[0] * c[1]!r}*cos({c[2]!r}*t)"),
    )


@st.composite
def _sweep_cases(draw):
    step = draw(st.sampled_from([2.0 ** -5, 2.0 ** -6, 2.0 ** -7, 0.01]))
    delay = draw(_delays(step))
    advance = draw(st.one_of(st.floats(0.0, 0.6).map(repr),
                             st.floats(0.0, 0.3).map(lambda s: f"{s!r}+{s!r}*sin(t)")))
    spec = make_spec(a=draw(st.sampled_from(["1.4", "1.3+0.1*sin(t)", "0.2"])),
                     b=draw(st.sampled_from(["1.3", "1.7+0.1*cos(t)", "0"])),
                     g=f"t-({delay})", h=f"t+({advance})",
                     delta1=draw(st.sampled_from([1, -1])),
                     delta2=draw(st.sampled_from([1, -1])))
    T = draw(st.floats(0.5, 4.0))
    return spec, T, step, draw(st.integers(0, 2**32 - 1)), {}


def _pinned_case(delay, T, overwrite=None):
    """A sweep case on the dyadic step 2^-6: (spec, T, step, seed, x_prev
    entries to overwrite)."""
    spec = make_spec(a="1.3+0.1*sin(t)", b="1.7+0.1*cos(t)", g=f"t-({delay})",
                     h="t+(0.2)", delta1=-1, delta2=1)
    return spec, T, 2.0 ** -6, 0, overwrite or {}


# cases that reach each branch of the stepped path, checked by
# test_the_pinned_sweep_cases_reach_their_branches
_PINNED = {
    # a delay reaching zero on the nodes t = 1 and 3: predictor and grid reads
    # in one stretch, and predictor reads of the predictor itself (p = i + 1)
    "predictor-and-grid": _pinned_case("0.1+0.1*cos(3.141592653589793*t)", 4.0),
    # a delay of five steps: nodes 0-4 read the history inside a stepped stretch
    "history": _pinned_case(repr(5 * 2.0 ** -6), 1.0),
    # the grid ends next to t = pi, so the stretch's last node is a predictor read
    "last-predictor": _pinned_case("0.1+0.1*cos(t)", math.pi),
    # non-finite advanced values reach the stepped stretch
    "non-finite": _pinned_case("0.1+0.1*cos(t)", 4.0, {100: math.inf, 180: math.nan}),
}


def _x_prev(sampled, seed, overwrite):
    rng = np.random.default_rng(seed)
    x_prev = rng.standard_normal(len(sampled.ts))
    for k, v in overwrite.items():
        x_prev[k] = v
    return x_prev, float(rng.standard_normal())


@settings(max_examples=60, deadline=None, database=None)
@given(_sweep_cases())
@example(_PINNED["predictor-and-grid"])
@example(_PINNED["history"])
@example(_PINNED["last-predictor"])
@example(_PINNED["non-finite"])
def test_sweep_matches_the_node_by_node_loop_exactly(case):
    spec, T, step, seed, overwrite = case
    sampled = SampledProblem(spec, (0.0, T), step)
    x_prev, x_init = _x_prev(sampled, seed, overwrite)
    _assert_sweeps_identical(sampled, x_prev, x_init, parse_expr("cos(3*t)+0.5*t"))


def _stepped(sweep):
    """(s, e, (kind, weight) of the second-stage reads of nodes s+1..e) of each
    stretch the plan steps node by node."""
    return [(s, e, list(zip(steps[2], steps[4]))[1:])
            for s, e, _, _, run, steps in sweep._plan if run is None]


def test_the_pinned_sweep_cases_reach_their_branches():
    reached = {}
    for name, (spec, T, step, seed, overwrite) in _PINNED.items():
        sampled = SampledProblem(spec, (0.0, T), step)
        sweep = _HeunSweep(sampled)
        stretches = _stepped(sweep)
        if name == "predictor-and-grid":
            reached[name] = any({_GRID, _PREDICTOR} <= {kind for kind, _ in k}
                                and (_PREDICTOR, 0.0) in k[:-1] for _, _, k in stretches)
        elif name == "history":
            reached[name] = any(_HISTORY in {kind for kind, _ in k} for _, _, k in stretches)
        elif name == "last-predictor":
            s, e, k = stretches[-1]
            reached[name] = e == sweep.n - 1 and k[-1][0] == _PREDICTOR
        else:
            x_prev, x_init = _x_prev(sampled, seed, overwrite)
            x = sweep(x_prev, x_init, 0.0)
            reached[name] = any(np.isinf(x[s + 1:e + 1]).any() and np.isnan(x[s + 1:e + 1]).any()
                                for s, e, _ in stretches)
    assert reached == dict.fromkeys(_PINNED, True)


@pytest.mark.parametrize("example", ["ex1", "ex2", "ex3"])
def test_sweep_matches_the_loop_on_the_examples(example):
    sampled = SampledProblem(make_spec(**EXAMPLES[example]), (0.0, 10.3), 0.004)
    x_prev = np.random.default_rng(7).uniform(-1.0, 2.0, len(sampled.ts))
    _assert_sweeps_identical(sampled, x_prev, 1.0, parse_expr("1"))


def _delayed_positions(sampled):
    """Grid positions of the delayed arguments, never ahead of their node."""
    idx = np.arange(len(sampled.ts), dtype=float)
    return np.minimum((sampled.g - sampled.window[0]) / sampled.step, idx)


def _check_plan(sweep, sampled):
    """Returns the nodes stepped one at a time; asserts the plan covers every
    step once, in order, with every vectorised run valid and every stepped
    stretch's tables reading what the node-by-node loop reads."""
    dpos = _delayed_positions(sampled)
    need = np.where(dpos < 0.0, 0, np.ceil(dpos))
    stepped, at = [], 0
    for s, e, _, _, run, steps in sweep._plan:
        assert s == at and e > s
        if run is None:
            lo, h0, kinds, js, ws, _ = steps
            assert lo <= s and h0 == np.count_nonzero(dpos[:s] < 0.0)
            stepped.extend(range(s + 1, e + 1))
            for k, kind, j, w in zip(range(s, e + 1), kinds, js, ws):
                p = dpos[k]
                if p < 0.0:  # the history values of the stretch, in node order
                    assert (kind, j) == (_HISTORY, np.count_nonzero(dpos[s:k] < 0.0))
                else:
                    assert kind == (_PREDICTOR if p > k - 1 else _GRID)
                    assert (j, w) == (int(p) - lo, p - int(p))
        else:
            assert e - s >= _MIN_RUN
            assert np.all(need[s + 1:e + 1] <= s)
        at = e
    assert at == sweep.n - 1
    return np.asarray(stepped, dtype=int)


def test_sweep_plan_vectorises_constant_delays():
    sampled = SampledProblem(make_spec(**EXAMPLES["ex1"]), (0.0, 10.3), 0.004)
    assert _check_plan(_HeunSweep(sampled), sampled).size == 0


def test_sweep_plan_steps_the_predictor_nodes_one_at_a_time(ex3_spec):
    # ex3's delay 0.1 + 0.1 cos t vanishes at t = pi and 3 pi
    sampled = SampledProblem(ex3_spec, (0.0, 10.4), 0.004)
    sweep = _HeunSweep(sampled)
    stepped = _check_plan(sweep, sampled)
    k = np.arange(1, sweep.n)
    predictor = k[_delayed_positions(sampled)[1:] > k - 1]
    assert predictor.size > 0
    assert np.all(np.isin(predictor, stepped))
    assert stepped.size < sweep.n // 2


# -- a batch of sweeps, computed as a wavefront, against one sweep at a time ---------

def _one_at_a_time(sweep, x_prev, x_init, hist, k):
    """k sweeps by the one-sweep path, each read by the next."""
    raws = []
    for _ in range(k):
        x_prev = sweep(x_prev, x_init, hist)
        raws.append(x_prev)
    return raws


@seed(2929)
@settings(max_examples=40, deadline=None, database=None)
@given(_sweep_cases(), st.booleans())
@example(_PINNED["predictor-and-grid"], False)
@example(_PINNED["history"], False)
@example(_PINNED["last-predictor"], False)
@example(_PINNED["non-finite"], False)
@example(_PINNED["history"], True)
def test_a_batch_of_sweeps_is_bit_identical_to_one_sweep_at_a_time(case, non_finite):
    spec, T, step, case_seed, overwrite = case
    sampled = SampledProblem(spec, (0.0, T), step)
    sweep = _HeunSweep(sampled)
    x_prev, x_init = _x_prev(sampled, case_seed, overwrite)
    if non_finite:  # an inf and a nan, on drawn nodes
        at = np.random.default_rng(case_seed).choice(sweep.n, 2, replace=False)
        x_prev[at] = math.inf, math.nan
    hist = np.cos(3 * sampled.g[sweep.history_nodes])
    want = _one_at_a_time(sweep, x_prev, x_init, hist, 8)
    for k in sorted({1, 2, 8, 5, sweep.depth}):  # 5: a batch the sweep cap cuts short
        raws, inputs = sweep.batch(x_prev, x_init, hist, k)
        got = np.concatenate([inputs, raws[-1:]])
        expected = np.asarray([x_prev] + want[:k])
        np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))
        np.testing.assert_array_equal(raws.view(np.int64), expected[1:].view(np.int64))


@pytest.mark.parametrize("example", ["ex1", "ex3"])
def test_a_batch_on_the_examples_is_bit_identical(example):
    sampled = SampledProblem(make_spec(**EXAMPLES[example]), (0.0, 10.3), 0.004)
    sweep = _HeunSweep(sampled)
    assert sweep.depth == 8 and sweep._lag == {"ex1": 3, "ex3": 7}[example]
    x_prev = np.random.default_rng(7).uniform(-1.0, 2.0, sweep.n)
    hist = np.ones(len(sweep.history_nodes))
    want = np.asarray(_one_at_a_time(sweep, x_prev, 1.0, hist, 8))
    raws, _ = sweep.batch(x_prev, 1.0, hist, 8)  # the next batch writes over its rows
    np.testing.assert_array_equal(raws.view(np.int64), want.view(np.int64))


def test_a_large_grid_runs_one_sweep_at_a_time(ex1_spec):
    # a batch's rows stay under a fixed budget: on 40 076 nodes one sweep is one row
    ivp = IVP(ex1_spec, parse_expr("1"), 1.0)
    sampled = SampledProblem(ex1_spec, (0.0, 160.3), 0.004)
    assert _HeunSweep(sampled).depth == 1
    peak = peak_window_arrays(lambda: relax(ivp, 160.0, 0.004, max_sweeps=3), len(sampled.ts))
    # 30.5 here and 34.6 before sweeps were batched; eight in flight would add 9.5
    assert peak <= 35.0


# ex3 with a delay that varies widely: its 44 runs padded to the widest, 233
# nodes, would fill 3.98 n places of tables, so its sweeps run one at a time
_WIDE_DELAY = dict(EXAMPLES["ex3"], g="t-(0.5+0.45*sin(2*t))", h="t+0.2")


def test_a_widely_varying_delay_runs_one_sweep_at_a_time():
    sampled = SampledProblem(make_spec(**_WIDE_DELAY), (0.0, 10.3), 0.004)
    sweep = _HeunSweep(sampled)
    runs = [e - s for s, e, _, _, run, _ in sweep._plan if run is not None]
    assert (len(runs), max(runs)) == (44, 232)
    assert len(runs) * (max(runs) + 1) > 2 * sweep.n and sweep.depth == 1
    x_prev = np.random.default_rng(7).uniform(-1.0, 2.0, sweep.n)
    _assert_sweeps_identical(sampled, x_prev, 1.0, parse_expr("1"))


# -- relax against its loop as written for one sweep at a time -----------------------

def _relax_one_at_a_time(ivp, T, step, tol=None, max_sweeps=200):
    """relax as written before sweeps were batched (the sweep loop and its
    set-up verbatim), kept as the oracle of the batched loop."""
    spec = ivp.spec
    t0 = spec.t0
    if tol is None:
        tol = 1e-10 * max(abs(ivp.x0), 1.0)
    report = SampledProblem(spec, (t0, T), step)
    report.sample()
    sampled = SampledProblem(spec, (t0, T + report.sigma), step)
    sampled.sample()
    n = len(sampled.ts)
    caveats = []
    delays = sampled.ts - sampled.g
    positive = delays[delays > 1e-12]
    if positive.size and step > float(np.min(positive)):
        caveats.append(simulate.CAVEAT_COARSE_STEP)
    sweep = _HeunSweep(sampled)
    hist = np.zeros(n)
    for i in sweep.history_nodes.tolist():
        hist[i] = float(ivp.phi(sampled.g[i]))
    hist = hist[sweep.history_nodes]  # the sweep takes the history nodes' values
    x0 = float(ivp.x0)

    def dominant_gain():
        e = np.ones(n)
        e[0] = 0.0
        mu = 0.0
        for k in range(simulate._GAIN_ITERS):
            ke = sweep(e, 0.0, 0.0)
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
            weight = 1.0 / (1.0 + 1.15 * abs(mu))
        elif mu > 1.02:
            caveats.append(simulate.CAVEAT_AMPLIFYING)
    min_weight = 1.0 / 64.0
    x_prev = np.full(n, x0)
    history = []
    converged = False
    grow_streak = 0
    while len(history) < max_sweeps:
        raw = sweep(x_prev, x0, hist)
        delta = float(np.max(np.abs(np.subtract(raw, x_prev))))
        history.append(delta)
        if not advanced_coupling:
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
    return x_prev[:len(report.ts)], tuple(history), converged, tuple(caveats)


_RELAX_CASES = {
    # converges after 127 sweeps, at the seventh of the sixteenth batch of eight
    "stop-mid-batch": (EXAMPLES["ex1"], 3.0, 0.01, None, 200, 127),
    # ex2 stops at a cap of 13 sweeps: a batch of eight, then one of five
    "cap-not-a-multiple-of-8": (EXAMPLES["ex2"], 4.0, 0.01, None, 13, 13),
    # an amplifying mode: the grow streak halves the weight down to 1/64
    "grow-streak-halving": (dict(a="1.4", b="2", delta1=1, delta2=-1), 3.0, 0.01, None, 60, 60),
    # test_relax_overflowing_sweeps_do_not_converge's spec: sweeps overflow, and
    # the non-finite iterate is reseeded
    "non-finite-reseed": (dict(a="1e300"), 2.0, 0.004, None, 30, 30),
    # no advanced term: one sweep
    "no-advanced-coupling": (dict(b="0"), 4.0, 0.01, None, 200, 1),
    # the padding rule: damped sweeps on a grid whose batches would run one at a time
    "wide-delay-variation": (_WIDE_DELAY, 10.0, 0.004, None, 200, 40),
}


@pytest.mark.parametrize("name", sorted(_RELAX_CASES))
def test_relax_is_bit_identical_to_its_loop_one_sweep_at_a_time(name):
    fields, T, step, tol, max_sweeps, sweeps = _RELAX_CASES[name]
    ivp = IVP(make_spec(**fields), parse_expr("1"), 1.0)
    runs = []
    for run in (relax, _relax_one_at_a_time):
        # what each run warns of, with warnings recorded: sweeps a batch
        # computes past the loop's stop must add none
        with warnings.catch_warnings(record=True) as warned, np.errstate(all="warn"):
            warnings.simplefilter("always")
            got = run(ivp, T, step, tol, max_sweeps)
        runs.append((got, sorted(str(w.message) for w in warned)))
    (tr, warned), ((x, history, converged, caveats), want_warned) = runs
    assert len(history) == sweeps
    for got, want in ((tr.x.values, x), (tr.residual_history, history)):  # nan counts too
        np.testing.assert_array_equal(np.asarray(got).view(np.int64), np.asarray(want).view(np.int64))
    assert (tr.converged, tr.caveats, warned) == (converged, caveats, want_warned)


def test_relax_ends_the_gain_estimate_at_a_zero_homogeneous_sweep(monkeypatch):
    # b = 5e-324: each Heun increment of the homogeneous sweep underflows to 0
    ivp = IVP(make_spec(b="5e-324"), parse_expr("1"), 1.0)
    x, history, _, _ = _relax_one_at_a_time(ivp, 4.0, 0.01)
    homogeneous = []
    real_call = _HeunSweep.__call__

    def recording(self, *args):
        homogeneous.append(real_call(self, *args))
        return homogeneous[-1]

    monkeypatch.setattr(_HeunSweep, "__call__", recording)  # relax calls it for the gain alone
    tr = relax(ivp, 4.0, 0.01)
    assert len(homogeneous) == 1 and not np.any(homogeneous[0])
    assert tr.converged and tr.caveats == () and len(history) == 2
    for got, want in ((tr.x.values, x), (tr.residual_history, history)):
        np.testing.assert_array_equal(np.asarray(got).view(np.int64),
                                      np.asarray(want).view(np.int64))
