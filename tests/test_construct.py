import hashlib
import importlib
import io
import math
import os
import signal
import sys
import threading
import time
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st
from hypothesis.internal.constants_ast import is_local_module_file

from mixedde import charroots, construct, gridfn
from mixedde.construct import (GeneratingCandidate, IterationKernel, auto_construct,
                               ineq_residual, iterate, synthesize_solution,
                               witness_candidate)
from mixedde.criteria import check
from mixedde.gridfn import CHUNK, GridFunction, grid_cells
from mixedde.model import CoefficientExpr, SampledProblem
from mixedde.simulate import equation_residual

from conftest import (EX1_INEQ_VALUE, EX2_RESIDUAL_T0, EXAMPLES, LAM2, _bits, _where_eval,
                      _where_nodes, make_spec, peak_window_arrays)

STEP = 1e-3


def const_candidate(value, case="delay", window=(0.0, 10.0), step=STEP):
    return GeneratingCandidate.constant(value, case, window, step)


# -- inequality residuals -----------------------------------------------------

def test_delay_residual_example1(ex1_spec):
    u = const_candidate(1.0)
    r = ineq_residual(u, ex1_spec, 5.0)
    assert r == pytest.approx(EX1_INEQ_VALUE - 1.0, abs=1e-12)


def test_delay_residual_equality_case():
    spec = make_spec(a="0.7", b="0", g="t", h="t+0.5")
    u = witness_candidate("COR_1_2", SampledProblem(spec, (0.0, 10.0), STEP))
    assert ineq_residual(u, spec, 4.0) == pytest.approx(0.0, abs=1e-12)


def test_delay_residual_example2_full_history(ex2_spec):
    # candidate active well before t = 0 so both integrals are full there
    u = const_candidate(1.0, window=(-1.0, 10.0))
    r = ineq_residual(u, ex2_spec, 0.0)
    assert r == pytest.approx(EX2_RESIDUAL_T0, abs=1e-9)


def test_advance_residual_equality_case():
    spec = make_spec(a="0", b="0.7", g="t-0.5", h="t")
    u = witness_candidate("COR_2_2", SampledProblem(spec, (0.0, 10.0), STEP))
    assert ineq_residual(u, spec, 4.0) == pytest.approx(0.0, abs=1e-12)


def test_advance_residual_at_characteristic_root():
    # lambda solves l + 1*e^{-0.1 l} - 1.05*e^{0.1 l} = 0 (bisection oracle)
    lam = 0.06289443262240785
    spec = make_spec(a="1", b="1.05", g="t-0.1", h="t+0.1")
    u = const_candidate(lam, "advance")
    assert ineq_residual(u, spec, 5.0) == pytest.approx(0.0, abs=1e-9)


def test_advance_residual_zero_candidate():
    spec = make_spec(a="1", b="1.2")
    u = const_candidate(0.0, "advance")
    assert ineq_residual(u, spec, 5.0) == pytest.approx(0.2, abs=1e-12)


def test_residual_saturates_where_the_exponential_overflows():
    spec = make_spec(a="1e200", b="0.5", g="t-0.3", h="t+0.001")
    u = witness_candidate("COR_1_2", SampledProblem(spec, (0.0, 2.0), STEP))
    assert ineq_residual(u, spec, 1.0) == math.inf


@pytest.mark.parametrize("case, a, b", [("delay", "0", "1"), ("advance", "1", "0")])
def test_residual_takes_a_zero_coefficient_times_an_overflowing_exponential_as_zero(case, a,
                                                                                     b):
    """On u = 1e308 the exponential of the integral over [t, h] (delay) or
    [g, t] (advance) overflows, and its coefficient is 0: the term is 0, not
    0 * inf = nan, and the residual is about -u(t). Nothing warns."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = ineq_residual(const_candidate(1e308, case), make_spec(a=a, b=b), 5.0)
    assert r == pytest.approx(-1e308, rel=1e-12)


def test_residual_sign_pattern_guard(ex3_spec):
    u = const_candidate(1.0)
    with pytest.raises(ValueError):
        ineq_residual(u, ex3_spec, 1.0)
    with pytest.raises(ValueError):
        ineq_residual(const_candidate(1.0, "advance"), ex3_spec, 1.0)


# -- monotone iterations -------------------------------------------------------

def test_iterate_delay_example1(ex1_spec):
    res = iterate(const_candidate(1.0), ex1_spec, (0.0, 10.0))
    assert res.converged
    ts = res.u_limit.times()
    mid = (ts >= 3.0) & (ts <= 7.0)
    assert np.max(np.abs(res.u_limit.values[mid] - LAM2)) < 1e-2
    # x behaves like exp(-lambda2 t): log-slope within 1e-2 of -lambda2
    logx = np.log(res.x.values)
    slopes = np.diff(logx[mid]) / STEP
    assert np.max(np.abs(slopes + LAM2)) < 1e-2
    assert np.all(res.x.values > 0)
    assert np.all(np.diff(res.x.values) <= 1e-12)
    assert res.max_ineq_residual <= 2e-8


def test_iterate_delay_pure_delay_fixed_seed():
    spec = make_spec(a="0.8", b="0", g="t", h="t+0.3")
    u0 = witness_candidate("COR_1_2", SampledProblem(spec, (0.0, 5.0), STEP))
    res = iterate(u0, spec, (0.0, 5.0))
    assert res.converged
    assert res.iterations == 1
    assert np.max(np.abs(res.u_limit.values - 0.8)) <= 1e-12


def test_iterate_delay_example2(ex2_spec):
    res = iterate(const_candidate(1.0, window=(0.0, 20.0)), ex2_spec,
                  (0.0, 20.0))
    assert res.converged
    assert np.all(res.x.values > 0)
    assert np.all(np.diff(res.x.values) <= 1e-12)
    assert res.max_eq_residual <= 1e-4
    assert res.x.values[-1] < res.x.values[0]


def test_iterate_delay_rejects_bad_seed(ex1_spec):
    with pytest.raises(ValueError, match="supersolution"):
        iterate(const_candidate(0.01), ex1_spec, (0.0, 10.0))


def test_iterate_rejects_a_seed_that_maps_to_nan():
    # a = b = 1e307: the node sums overflow, and the first map reads inf - inf;
    # a nan residual fails the gate, so no nan iterate is mapped again
    spec = make_spec(a="1e307", b="1e307")
    with pytest.raises(ValueError, match=r"^u0 is not a supersolution: inequality "
                                         r"residual nan > 1\.0e-08 at t="):
        iterate(const_candidate(1e307, window=(0.0, 20.0)), spec, (0.0, 20.0))


def test_iterate_delay_rejects_wrong_dominance():
    spec = make_spec(a="1", b="1.2", h="t+0.1")
    with pytest.raises(ValueError, match="dominance"):
        iterate(const_candidate(2.0), spec, (0.0, 5.0))


def test_iterate_advance_pure_advance_fixed_seed():
    spec = make_spec(a="0", b="0.6", g="t-0.3", h="t")
    u0 = witness_candidate("COR_2_2", SampledProblem(spec, (0.0, 5.0), STEP))
    res = iterate(u0, spec, (0.0, 5.0))
    assert res.converged
    assert res.iterations == 1
    assert np.max(np.abs(res.u_limit.values - 0.6)) <= 1e-12


def test_iterate_advance_constant_fixed_point():
    # root of l + 1.2 e^{-0.2 l} - 1.3 e^{0.1 l} (bisection oracle)
    lam = 0.15804760708022156
    spec = make_spec(a="1.2", b="1.3", g="t-0.2", h="t+0.1")
    res = iterate(const_candidate(lam, "advance"), spec, (0.0, 10.0),
                  tol=1e-8)
    assert res.converged
    ts = res.u_limit.times()
    # away from the activation transient on the left and the clamped horizon
    interior = (ts >= 2.0) & (ts <= 9.0)
    assert np.max(np.abs(res.u_limit.values[interior] - lam)) <= 1e-6
    assert np.all(np.diff(res.x.values) >= -1e-12)  # nondecreasing


def test_iterate_advance_rejects_delay_dominant(ex1_spec):
    with pytest.raises(ValueError, match="dominance"):
        iterate(const_candidate(1.0, "advance"), ex1_spec, (0.0, 10.0))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_generating_candidate_rejects_non_finite_values(value):
    with pytest.raises(ValueError, match="must be finite"):
        const_candidate(value, window=(0.0, 2.0))
    vals = np.full(2001, 0.5)
    vals[1000] = value
    with pytest.raises(ValueError, match="must be finite"):
        GeneratingCandidate(GridFunction(0.0, STEP, vals), "advance")


_CONSTRUCT_REJECTIONS = {
    "candidate-case": (lambda spec: const_candidate(0.5, "mixed"), "case must be one of"),
    "candidate-negative": (lambda spec: const_candidate(-1e-9),
                           "generating candidate must be nonnegative"),
    "kernel-case": (lambda spec: IterationKernel(SampledProblem(spec, (0.0, 2.0), STEP),
                                                 "mixed"), "case must be one of"),
    "kernel-shape": (lambda spec: IterationKernel(SampledProblem(spec, (0.0, 2.0), STEP),
                                                  "delay").apply(np.zeros(3)),
                     r"u has shape \(3,\), the kernel's grid \(2001,\)"),
    "iterate-activation": (lambda spec: iterate(const_candidate(0.5, window=(1.0, 3.0)),
                                                spec, (0.0, 2.0)),
                           "candidate activation time must match the window start"),
    "residual-before-activation": (
        lambda spec: ineq_residual(const_candidate(0.5, window=(1.0, 3.0)), spec, 0.5),
        "t must not precede the candidate's activation time"),
}


@pytest.mark.parametrize("name", list(_CONSTRUCT_REJECTIONS))
def test_construct_rejects_inconsistent_input(ex1_spec, name):
    run, message = _CONSTRUCT_REJECTIONS[name]
    with pytest.raises(ValueError, match=message):
        run(ex1_spec)


# -- solution synthesis ---------------------------------------------------------

def test_synthesize_zero():
    u = GridFunction.constant(0.0, 0.0, 5.0, 0.01)
    x = synthesize_solution(u, "delay")
    assert np.all(x.values == 1.0)


def test_synthesize_constant_rate():
    u = GridFunction.constant(0.5436, 0.0, 5.0, STEP)
    x = synthesize_solution(u, "delay")
    assert x(5.0) == pytest.approx(math.exp(-2.718), abs=1e-3)


def test_synthesize_linear_rate():
    u = GridFunction.from_callable(lambda t: t, 0.0, 2.0, STEP)
    x = synthesize_solution(u, "delay")
    assert x(2.0) == pytest.approx(math.exp(-2.0), abs=1e-4)


def test_synthesize_rejects_negative():
    u = GridFunction.constant(-0.1, 0.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        synthesize_solution(u, "delay")


def test_synthesize_advance_grows_from_the_grid_start():
    u = GridFunction.constant(0.5, 1.0, 3.0, STEP)
    x = synthesize_solution(u, "advance")
    assert (x.t_start, x.step) == (u.t_start, u.step)
    assert x(1.0) == 1.0
    assert x(3.0) == pytest.approx(math.e, abs=1e-12)
    with pytest.raises(ValueError, match="case"):
        synthesize_solution(u, "increasing")


# -- iteration properties --------------------------------------------------------

def random_delay_dominant_spec(rng):
    base_a = rng.uniform(0.8, 1.4)
    amp_a = base_a * rng.uniform(0.0, 0.1)
    base_b = base_a * rng.uniform(0.55, 0.75)
    amp_b = base_b * rng.uniform(0.0, 0.1)
    tau = rng.uniform(0.05, 0.2)
    sigma = rng.uniform(0.05, 0.2)
    return make_spec(
        a=f"{base_a}+{amp_a}*sin(t)",
        b=f"{base_b}+{amp_b}*cos(t)",
        g=f"t-{tau}",
        h=f"t+{sigma}",
    )


def drive_monotone(spec, window, case, seed_fn, tol=1e-8, max_iter=200):
    """Run the map directly, asserting the monotone-descent chain per step."""
    kernel = IterationKernel(SampledProblem(spec, window, 2e-3), case)
    floor = (kernel.sampled.a - kernel.sampled.b if case == "delay"
             else kernel.sampled.b - kernel.sampled.a)
    u = np.asarray(seed_fn(kernel.sampled.ts), dtype=float)
    for _ in range(max_iter):
        v = kernel.apply(u)
        assert np.all(v >= 0.0)
        assert np.all(v <= u + 1e-9)
        assert np.all(v >= floor - 1e-9)
        if np.max(np.abs(v - u)) <= tol:
            return v
        u = v
    return u


def test_monotone_descent_delay_random():
    rng = np.random.default_rng(21)
    for _ in range(10):
        spec = random_delay_dominant_spec(rng)
        drive_monotone(spec, (0.0, 6.0), "delay", spec.a)


def test_monotone_descent_advance_random():
    rng = np.random.default_rng(22)
    for _ in range(5):
        base_b = rng.uniform(0.8, 1.2)
        spec = make_spec(a=f"{base_b * rng.uniform(0.55, 0.7)}",
                         b=f"{base_b}",
                         g=f"t-{rng.uniform(0.05, 0.15)}",
                         h=f"t+{rng.uniform(0.05, 0.15)}")
        drive_monotone(spec, (0.0, 6.0), "advance", spec.b)


def test_fixed_point_defect_bound(ex1_spec):
    tol = 1e-8
    res = iterate(const_candidate(1.0), ex1_spec, (0.0, 10.0), tol=tol)
    assert res.max_ineq_residual <= 2 * tol


def test_zero_limit_bound(ex2_spec):
    # x(T) <= exp(-int (a-b)) when the gap integral accumulates
    window = (0.0, 20.0)
    res = iterate(const_candidate(1.0, window=window), ex2_spec, window)
    ts = np.linspace(*window, 20001)
    gap = np.trapezoid(ex2_spec.a(ts) - ex2_spec.b(ts), ts)
    assert res.x.values[-1] <= math.exp(-gap) + 1e-6


def test_equation_residual_shrinks_with_step(ex1_spec):
    # halving the step shrinks the residual (first order at the activation
    # kinks of the constructed solution, second order elsewhere)
    resids = []
    for step in (4e-3, 2e-3):
        u0 = GeneratingCandidate.constant(1.0, "delay", (0.0, 6.0), step)
        res = iterate(u0, ex1_spec, (0.0, 6.0), tol=1e-11)
        resids.append(res.max_eq_residual)
    assert resids[1] <= 0.7 * resids[0]


# -- starter candidates ----------------------------------------------------------

def test_witness_candidates(ex1_spec, ex2_spec):
    window = (0.0, 10.0)
    sp = SampledProblem(ex1_spec, window, STEP)
    for cid, scale in (("COR_1_2", 1.0), ("COR_1_4_REMARK", math.e)):
        cand = witness_candidate(cid, sp)
        assert cand.case == "delay"
        assert np.allclose(cand.u.values, scale * 1.4)
    cand = witness_candidate("COR_1_3", sp, lam=LAM2)
    assert np.allclose(cand.u.values, LAM2)
    with pytest.raises(ValueError):
        witness_candidate("COR_1_3", sp)
    with pytest.raises(ValueError):
        witness_candidate("SYS_30_FEASIBLE", sp)
    # the seeds read from the samples are the coefficient evaluated again on
    # the window grid, bit for bit, and leave the samples as they were
    advance = make_spec(a="1.2+0.1*sin(t)", b="1.3+0.1*cos(t)", g="t-0.2", h="t+0.1")
    for spec, name, family in ((ex2_spec, "a", ("COR_1_2", "COR_1_4_REMARK")),
                               (advance, "b", ("COR_2_2", "COR_2_4_REMARK"))):
        sp = SampledProblem(spec, window, STEP)
        for cid, scale in zip(family, (1.0, math.e)):
            cand = witness_candidate(cid, sp)
            again = GridFunction.from_callable(
                lambda t: scale * getattr(spec, name)(t), *window, STEP)
            assert (cand.u.t_start, cand.u.step) == (again.t_start, again.step)
            np.testing.assert_array_equal(_bits(cand.u.values), _bits(again.values))
            assert not np.shares_memory(cand.u.values, getattr(sp, name))


def test_auto_construct_delay(ex1_spec):
    res = auto_construct(ex1_spec, (0.0, 10.0))
    assert res.converged
    assert np.all(res.x.values > 0)


def test_auto_construct_advance():
    spec = make_spec(a="1.2", b="1.3", g="t-0.2", h="t+0.1")
    res = auto_construct(spec, (0.0, 10.0))
    assert res.converged
    assert np.all(np.diff(res.x.values) >= -1e-12)


def test_auto_construct_rejects_mixed_dominance():
    spec = make_spec(a="1+0.5*sin(t)", b="1", g="t-0.1", h="t+0.1")
    with pytest.raises(ValueError, match="dominance"):
        auto_construct(spec, (0.0, 10.0))


def test_construction_csv_and_summary(ex1_spec):
    res = iterate(const_candidate(1.0, window=(0.0, 2.0)), ex1_spec,
                  (0.0, 2.0))
    buf = io.StringIO()
    res.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t,u,x"
    assert len(lines) == len(res.x.values) + 1
    assert res.caveats == ("extrapolation-flagged",)  # h(t) peeks past the window


def test_auto_construct_samples_the_window_once(ex1_spec, sampled_builds, monkeypatch):
    kernels = []

    class Counting(IterationKernel):
        def __init__(self, *args):
            kernels.append(args)
            super().__init__(*args)

    monkeypatch.setattr(construct, "IterationKernel", Counting)
    result = auto_construct(ex1_spec, (0.0, 20.0))
    assert result.converged
    assert len(sampled_builds) == 1 and len(kernels) == 1



def test_auto_construct_evaluates_each_coefficient_once_on_the_window_grid(ex1_spec,
                                                                          monkeypatch):
    """The seeds read a and b from the window's samples, so a, b, g and h are
    evaluated on the window grid once each, also when all three seeds run."""
    window = (0.0, 10.0)
    ts = SampledProblem(ex1_spec, window, STEP).ts
    names = {id(getattr(ex1_spec, name)): name for name in "abgh"}
    on_grid = dict.fromkeys("abgh", 0)
    real_call = CoefficientExpr.__call__
    tried = []

    def counting(self, t):
        if id(self) in names and np.shape(t) == ts.shape and np.array_equal(t, ts):
            on_grid[names[id(self)]] += 1
        return real_call(self, t)

    def rejected(kernel, seed, tol, max_iter):
        tried.append(seed)
        raise ValueError("seed rejected")

    monkeypatch.setattr(CoefficientExpr, "__call__", counting)
    monkeypatch.setattr(construct, "_iterate", rejected)
    with pytest.raises(ValueError, match="no admissible starter candidate"):
        auto_construct(ex1_spec, window)
    assert len(tried) == 3
    assert on_grid == dict.fromkeys("abgh", 1)


def test_auto_construct_holds_a_bounded_working_set(ex1_spec):
    """The traced peak of auto_construct on ex1 over (0, 20), in window-sized
    float arrays (21.34 since the kernel's working arrays are freed before the
    solution is synthesized and its residual taken; 27.14 before, 29.17 while
    the kernel kept the offsets of the split g and h points, 32.18 while it
    kept a window-sized longdouble node-sum buffer and a placement and an
    integral of the window's own points, 36.19 while the window-sized dominance
    gaps, the seed and the first iterate stayed alive through the
    construction)."""
    auto_construct(ex1_spec, (0.0, 2.0))  # anything built once per process
    n = grid_cells(0.0, 20.0, STEP) + 1
    assert peak_window_arrays(lambda: auto_construct(ex1_spec, (0.0, 20.0)), n) <= 21.4


def test_auto_construct_over_three_chunks_holds_a_bounded_working_set(ex1_spec):
    """The traced peak of auto_construct on ex1 over (0, 70), whose node sums
    are summed in three chunks, in window-sized float arrays (19.82 since the
    kernel's working arrays are freed before the solution is synthesized; 24.77
    with the second node-sum array the worker sums the next iterate into, and
    the per-block work arrays sized to the longest block; 25.31 before either)."""
    auto_construct(ex1_spec, (0.0, 2.0))  # anything built once per process
    n = grid_cells(0.0, 70.0, STEP) + 1
    assert n > 2 * CHUNK + 1
    assert peak_window_arrays(lambda: auto_construct(ex1_spec, (0.0, 70.0)), n) <= 19.9


def test_a_seed_rejected_after_the_kernel_is_released_is_followed_by_the_next(ex1_spec,
                                                                             monkeypatch):
    """A construction frees the kernel's working arrays before it synthesizes the
    solution; a seed whose solution is then rejected leaves the kernel for the
    next seed, which allocates them again and gives the same bits as its own
    construction."""
    window = (0.0, 40.0)  # two chunks of node sums: the second node-sum array too
    kernels, limits = [], []
    real_iterate, real_synthesize = construct._iterate, construct.synthesize_solution

    def watching(kernel, seed, tol, max_iter):
        kernels.append(kernel)
        return real_iterate(kernel, seed, tol, max_iter)

    def first_rejected(u, case):
        limits.append(u)
        if len(limits) == 1:
            assert kernels[0]._nodes is None  # freed
            raise ValueError("first limit rejected")
        return real_synthesize(u, case)

    monkeypatch.setattr(construct, "_iterate", watching)
    monkeypatch.setattr(construct, "synthesize_solution", first_rejected)
    result = auto_construct(ex1_spec, window)
    monkeypatch.undo()
    assert len(kernels) == 2 and kernels[0] is kernels[1] and kernels[0]._nodes is None
    lam = check("COR_1_3", ex1_spec, window).witness["lambda"]
    direct = iterate(witness_candidate("COR_1_3", SampledProblem(ex1_spec, window, STEP),
                                       lam=lam), ex1_spec, window)
    assert result.iterations == direct.iterations
    np.testing.assert_array_equal(_bits(result.u_limit.values), _bits(direct.u_limit.values))
    np.testing.assert_array_equal(_bits(result.x.values), _bits(direct.x.values))


def test_auto_construct_scans_no_roots_when_the_first_seed_converges(ex1_spec, monkeypatch):
    scans = []
    real_scan = charroots._real_roots  # what positive_root_exists calls

    def counting(*args, **kw):
        scans.append(args)
        return real_scan(*args, **kw)

    monkeypatch.setattr(charroots, "_real_roots", counting)
    assert auto_construct(ex1_spec, (0.0, 10.0)).converged  # on the COR_1_2 seed
    assert scans == []
    assert check("COR_1_3", ex1_spec, (0.0, 10.0)).holds  # the count sees a root search
    assert len(scans) == 1


def test_auto_construct_raises_a_window_too_short_after_one_construction(ex1_spec,
                                                                         monkeypatch):
    # ex1's margins take tau + sigma = 0.6 of the window (0, 0.3): the first
    # seed converges, and the equation residual finds no interior node
    runs = []
    real_iterate = construct._iterate

    def counting(*args):
        runs.append(args[1])
        return real_iterate(*args)

    monkeypatch.setattr(construct, "_iterate", counting)
    with pytest.raises(ValueError, match="^window too short: no interior nodes"):
        auto_construct(ex1_spec, (0.0, 0.3))
    assert len(runs) == 1


def test_auto_construct_builds_the_root_seed_after_the_first_fails(ex1_spec, monkeypatch):
    window = (0.0, 10.0)
    tried = []
    real_iterate = construct._iterate

    def first_fails(kernel, seed, tol, max_iter):
        tried.append(seed)
        if len(tried) == 1:
            raise ValueError("first seed rejected")
        return real_iterate(kernel, seed, tol, max_iter)

    monkeypatch.setattr(construct, "_iterate", first_fails)
    result = auto_construct(ex1_spec, window)
    monkeypatch.undo()

    lam = check("COR_1_3", ex1_spec, window).witness["lambda"]
    assert lam == pytest.approx(LAM2, abs=1e-9)
    assert len(tried) == 2 and tried[1].case == "delay"
    assert np.all(tried[1].u.values == lam)  # the constant envelope-root candidate
    direct = iterate(witness_candidate("COR_1_3", SampledProblem(ex1_spec, window, STEP),
                                       lam=lam),
                     ex1_spec, window)
    assert result.iterations == direct.iterations
    assert np.array_equal(result.u_limit.values, direct.u_limit.values)
    assert np.array_equal(result.x.values, direct.x.values)
    for field in ("iterations", "max_ineq_residual", "max_eq_residual", "converged",
                  "caveats"):
        assert getattr(result, field) == getattr(direct, field)


# -- the kernel against its per-call np.where predecessor ---------------------

def _where_apply(sampled, case, u_vals):
    """IterationKernel.apply as first written: fresh node sums with temporaries
    and a fresh np.where evaluation at each of its three point sets per call."""
    t1 = sampled.window[0]
    f = GridFunction(t1, sampled.step, u_vals)
    cum = SimpleNamespace(grid=(t1, f.step, len(f.values)), values=f.values,
                          nodes=_where_nodes(f))
    at_nodes = _where_eval(cum, sampled.ts)
    int_delay = at_nodes - _where_eval(cum, np.maximum(sampled.g, t1))
    int_advance = _where_eval(cum, sampled.h) - at_nodes
    if case == "delay":
        return sampled.a * np.exp(int_delay) - sampled.b * np.exp(-int_advance)
    return sampled.b * np.exp(int_advance) - sampled.a * np.exp(-int_delay)


@pytest.mark.parametrize("example", ["ex1", "ex2", "ex3"])
@pytest.mark.parametrize("case", ["delay", "advance"])
def test_kernel_iterates_are_bit_identical_to_where_apply(example, case):
    sampled = SampledProblem(make_spec(**EXAMPLES[example]), (0.5, 12.0), 2e-3)
    kernel = IterationKernel(sampled, case)
    u = want = sampled.a if case == "delay" else sampled.b
    for _ in range(30):
        u, want = kernel.apply(u), _where_apply(sampled, case, want)
        np.testing.assert_array_equal(_bits(u), _bits(want))
    assert np.all(np.isfinite(u))


def test_kernel_iterates_are_bit_identical_to_where_apply_across_node_sum_chunks():
    # the kernel sums nodes a chunk of gridfn.CHUNK cells at a time
    sampled = SampledProblem(make_spec(**EXAMPLES["ex2"]), (0.5, 80.0), 2e-3)
    assert sampled.ts.size > CHUNK + 1
    kernel = IterationKernel(sampled, "delay")
    u = want = sampled.a
    for _ in range(5):
        u, want = kernel.apply(u), _where_apply(sampled, "delay", want)
        np.testing.assert_array_equal(_bits(u), _bits(want))


def _shift(kind, span, frac, step):
    """A deviation of about `span` as whole steps, as whole steps plus frac of
    a step, or varying with t between half and one and a half times that."""
    cells = max(1, round(span / step))
    if kind == "whole":
        return repr(cells * step)
    if kind == "fraction":
        return repr((cells + frac) * step)
    return f"{cells * step!r}*(1+0.5*cos(t))"


# spans up to 0.3 keep three applies of the map well inside the float range
_SHIFTS = st.tuples(st.sampled_from(["whole", "fraction", "varying"]),
                    st.floats(0.01, 0.3), st.floats(0.05, 0.95))


@seed(20160)
@settings(max_examples=60, deadline=None, database=None)
@given(t1=st.sampled_from([0.0, 0.7, -2.9, 1000.1]),
       step=st.sampled_from([0.01, 0.03, 2.0 ** -6, 0.1]),
       g_shift=_SHIFTS, h_shift=_SHIFTS, case=st.sampled_from(["delay", "advance"]))
# every point set on the all-points formula (ts placed off its nodes at 1000.1)
@example(t1=1000.1, step=0.01, g_shift=("fraction", 0.3, 0.5),
         h_shift=("varying", 0.3, 0.5), case="delay")
# every point set read on its nodes (whole steps of 2**-6 are exact)
@example(t1=0.0, step=2.0 ** -6, g_shift=("whole", 0.3, 0.5),
         h_shift=("whole", 0.3, 0.5), case="advance")
def test_kernel_on_and_off_node_paths_are_bit_identical_to_where_apply(t1, step, g_shift,
                                                                      h_shift, case):
    spec = make_spec(**EXAMPLES["ex2"], g=f"t-{_shift(*g_shift, step)}",
                     h=f"t+{_shift(*h_shift, step)}")
    sampled = SampledProblem(spec, (t1, t1 + 4.0), step)
    kernel = IterationKernel(sampled, case)
    u = want = sampled.a if case == "delay" else sampled.b
    for _ in range(3):
        u, want = kernel.apply(u), _where_apply(sampled, case, want)
        np.testing.assert_array_equal(_bits(u), _bits(want))


def _seeded_draws():
    """The cases the seeded test above draws, and their sha256, recorded by
    swapping in a body that records its arguments."""
    seeded = test_kernel_on_and_off_node_paths_are_bit_identical_to_where_apply
    drawn = []
    body = seeded.hypothesis.inner_test
    seeded.hypothesis.inner_test = lambda **case: drawn.append(sorted(case.items()))
    try:
        seeded()
    finally:
        seeded.hypothesis.inner_test = body
    return len(drawn), hashlib.sha256(repr(drawn).encode()).hexdigest()


def test_seeded_draws_do_not_depend_on_the_loaded_modules(tmp_path, monkeypatch):
    """tests/conftest.py pins hypothesis's pool of local constants empty, so a
    module with new literals, loaded after the first draws, moves no draw."""
    first = _seeded_draws()
    assert first[0] >= 60
    (tmp_path / "new_literals.py").write_text(
        "LITERALS = (0.0123, 0.0456, 0.0789, 0.1234, 0.2345, 0.2876, 3, 17, 2**-6)\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    importlib.import_module("new_literals")
    assert is_local_module_file(sys.modules["new_literals"].__file__)
    try:
        assert _seeded_draws() == first
    finally:
        del sys.modules["new_literals"]


def test_kernel_runs_the_formula_on_the_off_node_points_only(ex1_spec, ex3_spec,
                                                             monkeypatch):
    """The work-count guard: `_placed_integral` sees the points of each set that
    are off a node, all points of a set mostly off its nodes, and none of an
    apply on an iterate that is not finite, which raises."""
    placed = []
    formula = construct._placed_integral

    def counting(p, *args):
        placed.append(p.idx.size)
        return formula(p, *args)

    def per_set():  # the points placed per point set, over the blocks
        # a block integrates at its delay, its advance, then its own points
        delay, advance, own = np.reshape(placed, (-1, 3)).sum(axis=0).tolist()
        placed.clear()
        return [own, delay, advance]

    monkeypatch.setattr(construct, "_placed_integral", counting)
    ex1 = SampledProblem(ex1_spec, (0.0, 100.0), 1e-3)
    kernel = IterationKernel(ex1, "delay")
    n = ex1.ts.size
    assert len(kernel._blocks) == 4  # one per chunk of node sums
    # every set is split: it keeps the cells of its points, the window's own
    # points not even those, and the placement of its off-node points alone
    for block in kernel._blocks:
        assert block.points == (None, None, None)
        assert block.off_node[0][0] is None
        assert [block.off_node[k][0].size for k in (1, 2)] == [block.hi - block.lo] * 2
    assert [sum(block.off_node[k][1].size for block in kernel._blocks)
            for k in range(3)] == [1496, 28726, 28205]
    u = kernel.apply(ex1.a)
    assert per_set() == [1496, 28726, 28205]
    # node sums of -0.0 are read too: x - (+/-0) = x and exp(+/-0) = 1
    kernel.apply(np.where(np.arange(n) < 5, -0.0, u))
    assert per_set() == [1496, 28726, 28205]
    for bad, value in ((7, np.inf), (n // 2, np.nan)):
        with pytest.raises(ValueError, match="^u must be finite"):
            kernel.apply(np.where(np.arange(n) == bad, value, u))
        assert placed == []
    ex3 = SampledProblem(ex3_spec, (0.0, 100.0), 1e-3)
    IterationKernel(ex3, "delay").apply(ex3.a)
    assert per_set() == [1496, n, n]


# name -> (spec fields, window, step, case, applies of a finite iterate)
_EDGE_KERNELS = {
    # h = t + 0.5 ends five cells past the last node: the `above` points
    "h-past-the-grid": (dict(h="t+0.5"), (0.0, 3.0), 0.1, "delay", 4),
    # g = t - 5 is clamped at t1 on the first five of eight units
    "g-clamped-at-t1": (dict(g="t-5"), (0.0, 8.0), 1e-2, "delay", 2),
    # exp(int_g^t a) overflows to inf, and the first iterate holds inf
    "exp-saturates": (dict(a="1e200"), (0.0, 2.0), 1e-2, "delay", 1),
    # u starts with -0.0 on five nodes, so the first node sums are -0.0
    "u-starts-with-minus-zero": (dict(), (0.0, 3.0), 1e-2, "delay", 3),
    # u alternates +/-1.7e308: the half-differences overflow at once
    "half-differences-overflow": (dict(), (0.0, 3.0), 1e-2, "delay", 0),
    # whole steps of 2**-4: every point set is read on its nodes, and h's
    # points past the grid are among the few that run the formula
    "on-node-with-above": (dict(g="t-0.25", h="t+0.5"), (0.0, 3.0), 2.0 ** -4, "advance", 4),
}

# name -> the first iterate, where it is not sampled.a
_EDGE_STARTS = {
    "u-starts-with-minus-zero": lambda sp: np.where(sp.ts < 0.045, -0.0, sp.a),
    "half-differences-overflow": lambda sp: np.where(np.arange(sp.ts.size) % 2, -1.7e308,
                                                     1.7e308),
}

# the edge kernels whose last finite apply maps to an iterate that is not
# finite, or starts with one whose half-differences overflow
_EDGE_RAISES = {"g-clamped-at-t1", "exp-saturates", "half-differences-overflow"}


@pytest.mark.parametrize("name", list(_EDGE_KERNELS))
def test_kernel_is_bit_identical_to_where_apply_at_the_edges(name):
    fields, window, step, case, applies = _EDGE_KERNELS[name]
    sampled = SampledProblem(make_spec(**fields), window, step)
    kernel = IterationKernel(sampled, case)
    (block,) = kernel._blocks
    edge = {"h-past-the-grid": _above(block, 2) > 1,
            "g-clamped-at-t1": np.count_nonzero(sampled.g < window[0]) > sampled.ts.size // 2,
            "on-node-with-above": (_above(block, 2) > 1
                                   and all(s is not None for s in block.off_node))}
    assert edge.get(name, True)
    # a split set keeps the placement of its off-node points alone
    assert [p is None for p in block.points] == [s is not None for s in block.off_node]
    assert block.points[0] is None
    u = want = _EDGE_STARTS.get(name, lambda sp: sp.a)(sampled)
    for _ in range(applies):
        u, want = _apply_both(kernel, sampled, case, u, want)
    if name in _EDGE_RAISES:
        _raises_on(kernel, u)
    if name == "exp-saturates":
        assert np.isinf(u).any()


def _above(block, k):
    """How many of the block's points of set k lie past the grid: all off a
    node, so all in the split's placement where the set is split."""
    split = block.off_node[k]
    return (block.points[k] if split is None else split[2]).above.size


def _apply_both(kernel, sampled, case, u, want):
    """kernel.apply(u), with no RuntimeWarning, and _where_apply(want), checked
    bit for bit and returned."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        u = kernel.apply(u)
    with np.errstate(all="ignore"):
        want = _where_apply(sampled, case, want)
    np.testing.assert_array_equal(_bits(u), _bits(want))
    return u, want


def _raises_on(kernel, u):
    """apply on u, which is not finite or has half-differences that overflow,
    raises ValueError and warns nothing."""
    with np.errstate(all="ignore"):
        assert not math.isfinite(np.sum(np.diff(u) * 0.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="^u must be finite"):
            kernel.apply(u)


# windows of at least three chunks of node sums, mapped block by block while a
# worker thread sums the next chunk: name -> (spec fields, window, first iterate)
_STAGED_KERNELS = {
    "ex2": (EXAMPLES["ex2"], (0.5, 140.0), None),
    # fewer than half of the g and h points sit on a node: every one runs the formula
    "ex3": ({k: v for k, v in EXAMPLES["ex3"].items() if k not in ("delta1", "delta2")},
            (0.5, 140.0), None),
    # every h point past T reads the last node sum, so the last block holds
    # them all; h = t + 70 reaches past the first chunk, whose block is empty
    "h-far-past-T": (dict(EXAMPLES["ex2"], h="t+70"), (0.0, 140.0), None),
    # an iterate holding +inf raises at once
    "u-holds-inf": (EXAMPLES["ex2"], (0.0, 140.0),
                    lambda sp: np.where(np.arange(sp.ts.size) == 40000, np.inf, sp.a)),
    # the first node sums are -0.0, and read as they are
    "u-starts-with-minus-zero": (EXAMPLES["ex2"], (0.0, 140.0),
                                 lambda sp: np.where(sp.ts < 0.045, -0.0, sp.a)),
}

# (name, case) -> the finite applies before one raises, where fewer than three:
# h = t + 70 clamps the advance integrals, and the second iterate holds inf
_STAGED_RAISES = {("h-far-past-T", "advance"): 2, ("u-holds-inf", "delay"): 0,
                  ("u-holds-inf", "advance"): 0}


@pytest.mark.parametrize("name", list(_STAGED_KERNELS))
@pytest.mark.parametrize("case", ["delay", "advance"])
def test_kernel_is_bit_identical_to_where_apply_across_three_node_sum_chunks(name, case):
    fields, window, start = _STAGED_KERNELS[name]
    sampled = SampledProblem(make_spec(**fields), window, 2e-3)
    kernel = IterationKernel(sampled, case)
    blocks = kernel._blocks
    assert sampled.ts.size > 2 * CHUNK + 1
    assert [b.chunks for b in blocks] == ([2, 3] if name == "h-far-past-T" else [1, 2, 3])
    assert blocks[-1].hi == sampled.ts.size
    assert _above(blocks[-1], 2) == np.count_nonzero(sampled.h > sampled.ts[-1])
    split = [s is not None for s in blocks[0].off_node]
    assert split == {"ex2": [True, True, True], "ex3": [True, False, False]}.get(name, split)
    assert all([p is None for p in b.points] == [s is not None for s in b.off_node]
               for b in blocks)
    u = want = (start or (lambda sp: sp.a if case == "delay" else sp.b))(sampled)
    for _ in range(_STAGED_RAISES.get((name, case), 3)):
        u, want = _apply_both(kernel, sampled, case, u, want)
    if (name, case) in _STAGED_RAISES:
        _raises_on(kernel, u)


def test_a_chunk_that_fails_on_the_helper_raises_from_apply(monkeypatch):
    """The worker sums the second chunk of node sums; its error must reach
    apply's caller at once, leave no chunk behind, and leave the kernel exact."""
    sampled = SampledProblem(make_spec(**EXAMPLES["ex2"]), (0.5, 140.0), 2e-3)
    kernel = IterationKernel(sampled, "delay")
    real_chunk = gridfn._node_sums_chunk

    def failing(v, step, lo, *args):
        if lo == CHUNK:
            raise ArithmeticError("the second chunk fails")
        return real_chunk(v, step, lo, *args)

    monkeypatch.setattr(gridfn, "_node_sums_chunk", failing)
    raised = []

    def call():
        try:
            kernel.apply(sampled.a)
        except ArithmeticError as exc:
            raised.append(exc)

    caller = threading.Thread(target=call, daemon=True)  # so that a hang fails
    caller.start()
    caller.join(timeout=60.0)
    assert not caller.is_alive()
    assert [str(exc) for exc in raised] == ["the second chunk fails"]
    assert construct._workers[os.getpid()]._work_queue.empty()  # no chunk is left queued
    monkeypatch.undo()
    np.testing.assert_array_equal(_bits(kernel.apply(sampled.a)),
                                  _bits(_where_apply(sampled, "delay", sampled.a)))


def test_an_iterate_that_overflows_in_a_later_chunk_warns_nothing():
    """The worker sums the third chunk in the caller's floating-point state:
    node sums of a finite iterate past the float range raise no RuntimeWarning
    (`_apply_both` turns one into an error). Nor do those of the returned
    iterate, which holds inf and nan and is summed ahead; the apply handed it
    raises, with no chunk left queued."""
    sampled = SampledProblem(make_spec(**EXAMPLES["ex2"]), (0.5, 140.0), 2e-3)
    kernel = IterationKernel(sampled, "delay")
    k = np.arange(sampled.ts.size)
    u = np.where((k > 2 * CHUNK + 100) & (k < 2 * CHUNK + 1000), 1.7e308, sampled.a)
    u, _ = _apply_both(kernel, sampled, "delay", u, u)
    assert np.isnan(u).any() and np.isinf(u).any()
    assert kernel._look_ahead.v is u
    _raises_on(kernel, u)
    assert kernel._look_ahead is None
    assert construct._workers[os.getpid()]._work_queue.empty()


@pytest.mark.parametrize("window", [(0.5, 12.0), (0.5, 140.0)],
                         ids=["one-chunk", "three-chunks"])
def test_apply_raises_on_an_iterate_that_is_not_finite(window):
    """An iterate holding inf or nan, or one whose half-differences overflow,
    raises before any point is mapped; the worker is left with no chunk
    queued, and the kernel maps the next finite iterate exactly."""
    sampled = SampledProblem(make_spec(**EXAMPLES["ex2"]), window, 2e-3)
    kernel = IterationKernel(sampled, "delay")
    assert len(kernel._blocks) == (1 if window[1] < 20.0 else 3)
    k = np.arange(sampled.ts.size)
    want = _bits(_where_apply(sampled, "delay", sampled.a))
    for u in (np.where(k == k.size // 2, np.inf, sampled.a),
              np.where(k == k.size - 1, np.nan, sampled.a),
              np.where(k % 2, -1.7e308, 1.7e308)):
        _raises_on(kernel, u)
        worker = construct._workers.get(os.getpid())
        assert worker is None or worker._work_queue.empty()
        np.testing.assert_array_equal(_bits(kernel.apply(sampled.a)), want)


def _drain_worker() -> None:
    """Wait until the worker has run every chunk queued so far, such as those
    an earlier test's kernel summed ahead and left."""
    worker = construct._workers.get(os.getpid())
    if worker is not None:
        worker.submit(int).result()


def _chunks_summed(monkeypatch) -> list:
    """The array of each node-sum chunk summed from now on, in order."""
    _drain_worker()
    summed = []
    real_chunk = gridfn._node_sums_chunk

    def counting(v, *args):
        summed.append(v)
        return real_chunk(v, *args)

    monkeypatch.setattr(gridfn, "_node_sums_chunk", counting)
    return summed


@pytest.mark.parametrize("name", ["ex2", "u-starts-with-minus-zero"])
@pytest.mark.parametrize("case", ["delay", "advance"])
def test_chained_applies_sum_each_iterate_once_while_it_is_mapped(monkeypatch, name, case):
    """Each iterate's node sums are summed on the worker while the apply that
    returns it still maps; the next apply, handed that iterate, sums nothing
    afresh. Every array of a chain is summed once, a chunk at a time, and
    every iterate matches _where_apply bit for bit."""
    fields, window, start = _STAGED_KERNELS[name]
    sampled = SampledProblem(make_spec(**fields), window, 2e-3)
    kernel = IterationKernel(sampled, case)
    chunks = len(range(0, sampled.ts.size - 1, CHUNK))
    assert chunks == 3
    summed = _chunks_summed(monkeypatch)
    u = want = (start or (lambda sp: sp.a if case == "delay" else sp.b))(sampled)
    iterates = [u]
    for _ in range(4):
        u, want = _apply_both(kernel, sampled, case, u, want)
        iterates.append(u)
        assert kernel._look_ahead.v is u and kernel._look_ahead.queued_all()
    kernel._cancel_look_ahead()
    assert [sum(v is it for v in summed) for it in iterates[:-1]] == [chunks] * 4
    assert sum(v is u for v in summed) <= chunks
    assert len(summed) == sum(any(v is it for it in iterates) for v in summed)


def test_an_iterate_written_into_is_mapped_from_what_it_holds():
    """apply returns its iterate read-only; one made writeable, written into
    and handed back is summed afresh, as is a copy of an iterate, and each is
    mapped from the values it holds."""
    sampled = SampledProblem(make_spec(**EXAMPLES["ex2"]), (0.5, 140.0), 2e-3)
    kernel = IterationKernel(sampled, "delay")
    u = kernel.apply(sampled.a)
    with pytest.raises(ValueError, match="read-only"):
        u[0] = 1.0
    copy = u.copy()
    np.testing.assert_array_equal(_bits(kernel.apply(copy)),
                                  _bits(_where_apply(sampled, "delay", copy)))
    u = kernel.apply(sampled.a)
    u.setflags(write=True)
    u[::1000] *= 0.5  # in every chunk, after its node sums were queued
    np.testing.assert_array_equal(_bits(kernel.apply(u)),
                                  _bits(_where_apply(sampled, "delay", u.copy())))


@pytest.mark.parametrize("next_input", ["the-iterate", "another-array"])
def test_a_chunk_summed_ahead_that_fails_raises_from_the_apply_that_reads_it(monkeypatch,
                                                                            next_input):
    """The second chunk of the returned iterate's node sums fails on the
    worker. The apply handed that iterate raises its error and leaves no chunk
    queued; an apply handed another array drops it, and no thread exception
    goes unhandled (the suite's filters make one an error)."""
    sampled = SampledProblem(make_spec(**EXAMPLES["ex2"]), (0.5, 140.0), 2e-3)
    kernel = IterationKernel(sampled, "delay")
    real_chunk = gridfn._node_sums_chunk
    _drain_worker()

    def failing(v, step, lo, *args):
        if lo == CHUNK and v is not sampled.a:
            raise ArithmeticError("a chunk summed ahead fails")
        return real_chunk(v, step, lo, *args)

    monkeypatch.setattr(gridfn, "_node_sums_chunk", failing)
    u = kernel.apply(sampled.a)
    want = _bits(_where_apply(sampled, "delay", sampled.a))
    np.testing.assert_array_equal(_bits(u), want)
    if next_input == "the-iterate":
        with pytest.raises(ArithmeticError, match="a chunk summed ahead fails"):
            kernel.apply(u)
    else:
        np.testing.assert_array_equal(_bits(kernel.apply(sampled.a)), want)
    kernel._cancel_look_ahead()
    assert kernel._look_ahead is None
    assert construct._workers[os.getpid()]._work_queue.empty()
    monkeypatch.undo()
    np.testing.assert_array_equal(_bits(kernel.apply(u)),
                                  _bits(_where_apply(sampled, "delay", u)))


@pytest.mark.parametrize("end", ["converged", "max-iter", "seed-rejected"])
def test_a_construction_leaves_no_chunk_on_the_worker(monkeypatch, ex1_spec, end):
    """_iterate returns or raises with no node-sum chunk queued or running:
    the chunks of the last iterate, summed ahead for an apply that never
    comes, are skipped, so none runs into the caller's next operation."""
    made = []

    class Recorded(construct._NodeSums):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(construct, "_NodeSums", Recorded)
    window = (0.0, 70.0)
    if end == "converged":
        assert auto_construct(ex1_spec, window).converged
    elif end == "max-iter":
        seed = witness_candidate("COR_1_2", SampledProblem(ex1_spec, window, STEP))
        assert not iterate(seed, ex1_spec, window, max_iter=3).converged
    else:
        with pytest.raises(ValueError, match="not a supersolution"):
            iterate(const_candidate(0.0, window=window), ex1_spec, window)
    assert len(made) >= 2 and all(chunk.done() for sums in made for chunk in sums.chunks)
    assert all(sums._cancelled for sums in made)  # each told to sum nothing more
    assert construct._workers[os.getpid()]._work_queue.empty()


def test_cancelled_node_sums_skip_their_queued_chunks(monkeypatch):
    """cancel waits for the chunk running and skips those still queued: here
    all three wait behind a task that holds the worker, and none is summed."""
    sampled = SampledProblem(make_spec(**EXAMPLES["ex2"]), (0.5, 140.0), 2e-3)
    IterationKernel(sampled, "delay").apply(sampled.a)  # this process's worker is made
    n = sampled.ts.size
    sums = construct._NodeSums(sampled.a, sampled.step,
                               np.empty(CHUNK + 1, dtype=np.longdouble), np.empty(n))
    summed = _chunks_summed(monkeypatch)
    gate = threading.Event()
    holder = construct._workers[os.getpid()].submit(gate.wait, 60.0)
    assert sums.submit(n) and len(sums.chunks) == 3
    canceller = threading.Thread(target=sums.cancel, daemon=True)
    canceller.start()
    while not sums._cancelled:
        time.sleep(0.001)
    gate.set()
    canceller.join(timeout=60.0)
    assert not canceller.is_alive() and holder.result() is True
    assert summed == [] and [chunk.result() for chunk in sums.chunks] == [None] * 3


def test_kernels_applied_from_four_threads_at_once_share_the_helper_exactly():
    """Four callers, each with its own kernel and iterate, queue their node sums
    on the one worker thread while the interpreter switches threads as often
    as it can: each gets its own map, bit for bit."""
    sampled = SampledProblem(make_spec(**EXAMPLES["ex2"]), (0.5, 140.0), 2e-3)
    sampled.sample()
    starts = [sampled.a * (1.0 + i / 8) for i in range(4)]
    kernels = [IterationKernel(sampled, "delay") for _ in starts]
    got = [[] for _ in starts]

    def call(i):
        for _ in range(3):
            got[i].append(kernels[i].apply(starts[i]))

    callers = [threading.Thread(target=call, args=(i,), daemon=True) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    for start, maps in zip(starts, got):
        want = _bits(_where_apply(sampled, "delay", start))
        assert len(maps) == 3
        for u in maps:
            np.testing.assert_array_equal(_bits(u), want)


@pytest.mark.parametrize("refused", range(6))
def test_chunks_the_worker_refuses_are_summed_by_the_caller(monkeypatch, refused):
    """At interpreter shutdown an executor takes no new work, and its submit
    raises RuntimeError: the chunks it took finish, and apply sums every chunk
    on its own thread, to the same bits. From 3 on, the window's three chunks
    are taken and a chunk of the returned iterate, summed ahead, is refused:
    the apply handed that iterate sums it afresh."""
    sampled = SampledProblem(make_spec(**EXAMPLES["ex2"]), (0.5, 140.0), 2e-3)
    kernel = IterationKernel(sampled, "delay")
    kernel.apply(sampled.a)  # this process's worker is made
    worker, taken = construct._workers[os.getpid()], []

    def submit(*args):
        if len(taken) == refused:
            raise RuntimeError("cannot schedule new futures after interpreter shutdown")
        taken.append(worker.submit(*args))
        return taken[-1]

    monkeypatch.setitem(construct._workers, os.getpid(), SimpleNamespace(submit=submit))
    want = _where_apply(sampled, "delay", sampled.a)
    u = kernel.apply(sampled.a)
    np.testing.assert_array_equal(_bits(u), _bits(want))
    np.testing.assert_array_equal(_bits(kernel.apply(u)),
                                  _bits(_where_apply(sampled, "delay", want)))
    assert len(taken) == refused and all(chunk.done() for chunk in taken)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_sums_its_node_sums_on_a_worker_of_its_own(monkeypatch):
    """The parent's worker thread does not run in a forked child: a child
    that queued its chunks there, or waited on the chunks the parent sums
    ahead of the iterate it returned before the fork (here held on the
    worker until the child is done), would wait for ever."""
    sampled = SampledProblem(make_spec(**EXAMPLES["ex2"]), (0.5, 140.0), 2e-3)
    kernel = IterationKernel(sampled, "delay")
    kernel.apply(sampled.a)  # the parent's worker is started
    want = _where_apply(sampled, "delay", sampled.a)
    want_next = _bits(_where_apply(sampled, "delay", want))
    parent, gate = os.getpid(), threading.Event()
    real_chunk = gridfn._node_sums_chunk
    _drain_worker()

    def held(v, *args):
        if os.getpid() == parent and v is not sampled.a:
            gate.wait(60.0)
        return real_chunk(v, *args)

    monkeypatch.setattr(gridfn, "_node_sums_chunk", held)
    first = kernel.apply(sampled.a)
    pid = os.fork()
    if pid == 0:  # the child exits here, whatever happens
        code = 1
        try:
            same = (np.array_equal(_bits(kernel.apply(first)), want_next)
                    and np.array_equal(_bits(kernel.apply(sampled.a)), _bits(want)))
            code = 0 if same else 3
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60.0
    done, status = os.waitpid(pid, os.WNOHANG)
    while not done and time.monotonic() < deadline:
        time.sleep(0.01)
        done, status = os.waitpid(pid, os.WNOHANG)
    if not done:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    gate.set()
    assert done and os.waitstatus_to_exitcode(status) == 0
    np.testing.assert_array_equal(_bits(kernel.apply(first)), want_next)


def test_apply_returns_a_fresh_array_it_does_not_keep(ex1_spec):
    """`_iterate` reads its step size from the last two iterates: an iterate
    that was a buffer of the kernel would be overwritten by the next apply,
    and the step would read 0 after one step. The iterate is read-only, so
    the node sums a kernel sums ahead of it stay its own."""
    sampled = SampledProblem(ex1_spec, (0.0, 5.0), 1e-2)
    kernel = IterationKernel(sampled, "delay")
    kernel._allocate()  # the working arrays, which the first application would allocate
    buffers = [a for v in vars(kernel).values()
               for a in (v if isinstance(v, tuple) else (v,)) if isinstance(a, np.ndarray)]
    assert len(buffers) >= 6
    u0 = sampled.a.copy()
    first = kernel.apply(u0)
    kept = first.copy()
    second = kernel.apply(first)
    for result, given in ((first, u0), (second, first)):
        assert not result.flags.writeable and result.flags.owndata
        assert result.shape == u0.shape
        assert not np.shares_memory(result, given)
        assert not any(np.shares_memory(result, buf) for buf in buffers)
    np.testing.assert_array_equal(_bits(first), _bits(kept))
    assert not np.array_equal(first, second)


def test_constant_construction_matches_the_smallest_positive_characteristic_root():
    """Cross-route oracle: with constant coefficients the constructed u settles,
    past the transient at the left boundary, on the exponent of the solution
    x = e^{-/+ lambda t}, the smallest positive characteristic root."""
    rng = np.random.default_rng(2009)
    matched = 0
    for _ in range(12):
        a, b, tau, sigma = (float(v) for v in rng.uniform((0.05, 0.05, 0.0, 0.0),
                                                          (2.0, 2.0, 0.6, 0.6)))
        spec = make_spec(a=repr(a), b=repr(b), g=f"t-{tau!r}", h=f"t+{sigma!r}")
        try:
            result = auto_construct(spec, (0.0, 20.0))
        except ValueError:  # no admissible seed
            continue
        problem = charroots.CharProblem(a, b, tau, sigma, 1, -1,
                                        "minus_exponent" if a >= b else "plus_exponent")
        assert result.converged
        assert result.u_limit(10.0) == pytest.approx(charroots.positive_root_exists(problem),
                                                     abs=1e-5)
        matched += 1
    assert matched >= 5


def test_solution_that_overflows_is_flagged_non_finite():
    res = auto_construct(make_spec(a="0", b="100", h="t+0.001"), (0.0, 20.0))
    assert res.converged
    assert not np.isfinite(res.x.values[-1]) and math.isnan(res.max_eq_residual)
    assert res.caveats == ("extrapolation-flagged", "non-finite-solution")
