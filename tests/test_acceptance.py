"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite targets the default grid step 1e-3.
"""

import math

import numpy as np
import pytest

from mixedde.charroots import CharProblem, find_real_roots
from mixedde.cli import main
from mixedde.construct import (GeneratingCandidate, IterationKernel, auto_construct,
                               ineq_residual, iterate)
from mixedde.criteria import (check, check_all, check_sys30, subequation_one_over_e_note,
                              sweep_region, sys30_values)
from mixedde.gridfn import GridFunction
from mixedde.model import IVP, Bounds, ProblemSpec, SampledProblem, parse_expr
from mixedde.simulate import classify_trajectory, equation_residual, relax

from conftest import make_spec, write_spec_file

STEP = 1e-3


def _report(num: int, description: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description}")
    assert ok, f"criterion {num}: {description}"


def test_criterion_01_example1_inequality_value(ex1_spec):
    u = GeneratingCandidate.constant(1.0, "delay", (0.0, 10.0), STEP)
    value = ineq_residual(u, ex1_spec, 5.0) + 1.0
    _report(1, "inequality value 0.9267 +- 1e-3 with u = 1",
            abs(value - 0.9267) <= 1e-3)


def test_criterion_02_example1_characteristic_roots():
    problem = CharProblem(1.4, 1.3, 0.3, 0.3, 1, -1, "minus_exponent")
    rs = find_real_roots(problem)
    ok = len(rs.roots) == 3 and all(
        abs(found - expected) <= 1e-3
        for found, expected in zip(rs.roots, (-4.2282, 0.5436, 3.3541)))
    _report(2, "exactly three real roots at -4.2282, 0.5436, 3.3541 (+-1e-3)", ok)


def test_criterion_03_example1_subequation_note(ex1_spec):
    note = subequation_one_over_e_note(check_all(ex1_spec, (0.0, 100.0), STEP))
    ok = (abs(note["advance_integral_sup"] - 0.39) <= 1e-12
          and note["advance_integral_sup"] > 1.0 / math.e
          and abs(note["delay_integral_sup"] - 0.42) <= 1e-12
          and note["delay_integral_sup"] > 1.0 / math.e
          and not note["delay_certified"] and not note["advance_certified"])
    _report(3, "pure sub-equations report 0.39 and 0.42 above 1/e, uncertified", ok)


def test_criterion_04_example2_pipeline(ex2_spec, tmp_path):
    path = write_spec_file(tmp_path / "ex2.json",
                           a="1.375+0.025*sin(t)", b="1.325+0.025*cos(t)")
    exit_code = main(["check", path, "--out", str(tmp_path / "report.txt")])
    window = (0.0, 20.0)
    built = iterate(GeneratingCandidate.constant(1.0, "delay", window, STEP),
                    ex2_spec, window)
    divergence = check("COR_1_5", ex2_spec, (0.0, 100.0), step=STEP)
    i100 = dict(divergence.witness["checkpoints"])[100.0]
    ok = (exit_code == 0
          and built.converged
          and bool(np.all(built.x.values > 0))
          and bool(np.all(np.diff(built.x.values) <= 1e-12))
          and built.max_eq_residual <= 1e-4
          and divergence.holds
          and abs(i100 - 5.0) <= 0.1)
    _report(4, "check exits 0; construction monotone with residual <= 1e-4; "
               "gap integral I(100) = 5.0 +- 0.1", ok)


def test_criterion_05_example3_feasibility():
    bounds = Bounds(1.2, 1.4, 1.6, 1.8, 0.2, 0.3, (0.0, 100.0))
    cert = check_sys30(bounds)
    gv, fv = sys30_values(bounds, 2.0, 3.0)
    region = sweep_region(bounds, "x", "y", ((0.0, 6.0), (0.0, 8.0)), 0.05)
    i, j = int(round(2.0 / 0.05)), int(round(3.0 / 0.05))
    ok = (cert.holds
          and abs(gv - 1.90) <= 0.01 and gv < 2.0
          and abs(fv - 2.48) <= 0.01 and fv < 3.0
          and bool(region.feasible[i, j]))
    _report(5, "system feasible; probe (2,3) gives 1.90/2.48; sweep marks (2,3)", ok)


def test_criterion_06_example4_region_sweep():
    template = Bounds(1.0, 1.0, 1.0, 1.0, 0.2, 0.3, (0.0, 100.0))
    region = sweep_region(template, "a", "b", ((0.0, 3.0), (0.0, 3.0)), 0.05)
    rng = np.random.default_rng(606)
    agree = True
    for _ in range(100):
        i = int(rng.integers(len(region.axis1_values)))
        j = int(rng.integers(len(region.axis2_values)))
        av, bv = float(region.axis1_values[i]), float(region.axis2_values[j])
        cell = Bounds(av, av, bv, bv, 0.2, 0.3, (0.0, 100.0))
        if bool(region.feasible[i, j]) != check_sys30(cell).holds:
            agree = False
            break
    ok = (region.nonempty
          and region.reference is not None
          and bool(np.any(region.reference))
          and agree)
    _report(6, "region over (0,3]^2 nonempty with 1/e reference; 100 random "
               "cells match pointwise checks", ok)


def _random_delay_dominant(rng):
    base_a = rng.uniform(0.8, 1.4)
    amp_a = base_a * rng.uniform(0.0, 0.08)
    base_b = base_a * rng.uniform(0.6, 0.8)
    amp_b = base_b * rng.uniform(0.0, 0.08)
    tau = rng.uniform(0.05, 0.15)
    sigma = rng.uniform(0.05, 0.15)
    return make_spec(a=f"{base_a}+{amp_a}*sin(t)", b=f"{base_b}+{amp_b}*cos(t)",
                     g=f"t-{tau}", h=f"t+{sigma}")


def test_criterion_07_monotone_iteration_property():
    rng = np.random.default_rng(707)
    ok = True
    for _ in range(50):
        spec = _random_delay_dominant(rng)
        kernel = IterationKernel(SampledProblem(spec, (0.0, 6.0), STEP), "delay")
        floor = kernel.sampled.a - kernel.sampled.b
        u = kernel.sampled.a.copy()
        for _ in range(200):
            v = kernel.apply(u)
            if not (np.all(v >= 0.0) and np.all(v <= u + 1e-9)
                    and np.all(u >= floor - 1e-9)):
                ok = False
                break
            if np.max(np.abs(v - u)) <= 1e-8:
                break
            u = v
        if not ok:
            break
    _report(7, "50 random runs keep 0 <= u_{n+1} <= u_n and u_n >= a-b", ok)


def test_criterion_08_mixed_root_existence_and_substitution():
    rng = np.random.default_rng(808)
    ok = True
    for _ in range(500):
        a, b, tau, sigma = map(float, rng.uniform(0.0, 5.0, size=4))
        problem = CharProblem(a, b, tau, sigma, -1, 1, "plus_exponent")
        rs = find_real_roots(problem)
        if len(rs.roots) < 1:
            ok = False
            break
        spec = ProblemSpec(parse_expr(repr(a)), parse_expr(repr(b)),
                           parse_expr(f"t-{tau!r}"), parse_expr(f"t+{sigma!r}"),
                           -1, 1, 0.0)
        for lam in rs.roots:
            length = tau + sigma + 0.4
            cells = int(math.ceil(length / 1e-4))
            ts = 1e-4 * np.arange(cells + 1)
            peak = ts[-1] if lam > 0 else 0.0  # unit amplitude on the window
            x = GridFunction(0.0, 1e-4, np.exp(lam * (ts - peak)))
            if equation_residual(x, spec) > 1e-6:
                ok = False
                break
        if not ok:
            break
    _report(8, "500 mixed-pattern problems each have a real root whose "
               "exponential passes the residual check at 1e-6", ok)


def test_criterion_09_cross_validation(ex1_spec, ex2_spec):
    # direct integration can only reproduce the nonincreasing constructions:
    # growing (advance-dominant) solutions are selected by their future values,
    # which a forward finite-horizon scheme does not see, so for those it must
    # report non-convergence instead
    tol = 1e-6
    window = (0.0, 15.0)
    specs = [ex1_spec, ex2_spec,
             make_spec(a="1.05+0.05*sin(t)", b="0.7", g="t-0.25", h="t+0.2"),
             make_spec(a="0.8", b="0.4", g="t-0.1", h="t+0.1")]
    ok = True
    for spec in specs:
        built = auto_construct(spec, window, step=STEP, tol=tol)
        if not built.converged:
            continue
        ivp = IVP(spec, built.x, float(built.x(0.0)))
        traj = relax(ivp, 12.0, STEP, max_sweeps=400)
        ts = traj.x.times()
        keep = ts <= 9.0
        gap = float(np.max(np.abs(traj.x.values[keep] - built.x(ts[keep]))))
        if not (traj.converged and gap <= 10 * tol
                and classify_trajectory(traj, 0.0) == "nonoscillatory_positive"):
            ok = False
            break
    adv = make_spec(a="1.2", b="1.3", g="t-0.2", h="t+0.1")
    built = auto_construct(adv, window, step=STEP, tol=tol)
    traj = relax(IVP(adv, built.x, float(built.x(0.0))), 12.0, 2e-3, max_sweeps=60)
    ok = ok and built.converged and not traj.converged \
        and "amplifying-advance-feedback" in traj.caveats
    _report(9, "relaxation reproduces every nonincreasing construction within "
               "10x construction tolerance; amplifying advance feedback is "
               "reported, not mistaken for convergence", ok)


def test_criterion_10_quadrature_and_order(ex1_spec):
    rng = np.random.default_rng(1010)
    ok = True
    for _ in range(10):
        vals = rng.normal(size=80)
        f = GridFunction(0.0, 0.05, vals)
        a, b, c = np.sort(rng.uniform(0.0, f.t_end, size=3))
        whole = f.integrate(float(a), float(c))
        split = f.integrate(float(a), float(b)) + f.integrate(float(b), float(c))
        if abs(whole - split) > 1e-12 * max(1.0, abs(whole)):
            ok = False
        g = GridFunction(0.0, 0.05, rng.normal(size=80))
        al, be = rng.normal(size=2)
        combo = GridFunction(0.0, 0.05, al * vals + be * g.values)
        lhs = combo.integrate(0.3, 3.3)
        rhs = al * f.integrate(0.3, 3.3) + be * g.integrate(0.3, 3.3)
        if abs(lhs - rhs) > 1e-12 * max(1.0, abs(lhs)):
            ok = False
    lam = 0.5436172582885277
    ivp = IVP(ex1_spec, parse_expr(f"exp(-{lam!r}*t)"), 1.0)
    resids = [relax(ivp, 4.0, step).equation_residual for step in (2e-3, 1e-3)]
    order = math.log2(resids[0] / resids[1])
    ok = ok and order >= 1.9
    _report(10, f"trapezoid additivity/linearity at 1e-12; residual order "
                f"{order:.2f} >= 1.9 under halving", ok)


def test_criterion_11_comparison_property():
    rng = np.random.default_rng(1111)
    window = (0.0, 25.0)
    ok = True
    for k in range(30):
        if k < 20:
            # delay-dominant family: dominating spec has larger a, smaller b,
            # wider deviations
            base_a = rng.uniform(0.9, 1.3)
            base_b = base_a * rng.uniform(0.6, 0.8)
            tau, sigma = rng.uniform(0.1, 0.25, size=2)
            sub = make_spec(a=f"{base_a}", b=f"{base_b}",
                            g=f"t-{tau}", h=f"t+{sigma}")
            dom = make_spec(a=f"{base_a + rng.uniform(0.0, 0.1)}",
                            b=f"{base_b * rng.uniform(0.7, 1.0)}",
                            g=f"t-{tau + rng.uniform(0.0, 0.1)}",
                            h=f"t+{sigma + rng.uniform(0.0, 0.1)}")
            checks = ("COR_1_2", "COR_1_3", "COR_1_4_REMARK")
            results = [(check(cid, dom, window), check(cid, sub, window)) for cid in checks]
        else:
            # advance-dominant family: dominating spec has smaller a, larger b
            base_b = rng.uniform(0.9, 1.3)
            base_a = base_b * rng.uniform(0.6, 0.8)
            tau, sigma = rng.uniform(0.05, 0.15, size=2)
            sub = make_spec(a=f"{base_a}", b=f"{base_b}",
                            g=f"t-{tau}", h=f"t+{sigma}")
            dom = make_spec(a=f"{base_a * rng.uniform(0.7, 1.0)}",
                            b=f"{base_b + rng.uniform(0.0, 0.1)}",
                            g=f"t-{tau + rng.uniform(0.0, 0.05)}",
                            h=f"t+{sigma + rng.uniform(0.0, 0.05)}")
            results = [(check(cid, dom, window), check(cid, sub, window))
                       for cid in ("COR_2_2", "COR_2_3", "COR_2_4_REMARK")]
        for dominating, dominated in results:
            if dominating.holds and not dominated.holds:
                ok = False
        if not ok:
            break
    _report(11, "30 dominance pairs: a certificate for the harder equation "
                "never fails on the easier one", ok)
