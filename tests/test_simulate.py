import math

import numpy as np
import pytest

from mixedde.construct import GeneratingCandidate, iterate
from mixedde.gridfn import GridFunction
from mixedde.model import IVP, CoefficientExpr, parse_expr
from mixedde.simulate import Trajectory, classify_trajectory, equation_residual, relax

from conftest import LAM2, make_spec


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
