import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from mixedde import charroots, criteria
from mixedde.construct import iterate, witness_candidate
from mixedde.criteria import (ALL_CONDITION_IDS, CAVEAT_EQUICONTINUITY,
                              CAVEAT_WINDOW_LIMITED, check, check_all, check_cor_3_1,
                              check_sys30, subequation_one_over_e_note, sweep_region,
                              sys30_values)
from mixedde.gridfn import CHUNK, CumulativeIntegral, GridFunction, GridPoints, grid_cells
from mixedde.model import Bounds, SampledProblem

from conftest import (EX2_I100, EX3_PROBE, EXAMPLES, deviated_as_first_written, make_spec,
                      peak_window_arrays)

WINDOW = (0.0, 40.0)
COR_2_X = ("COR_2_2", "COR_2_3", "COR_2_4_REMARK")
ONE_OVER_E = 1.0 / math.e


# -- COR_1_2 -------------------------------------------------------------------

def test_cor_1_2_equality_case():
    spec = make_spec(a="0.7", b="0.7", g="t", h="t+0.4")
    cert = check("COR_1_2", spec, WINDOW)
    assert cert.holds
    assert CAVEAT_WINDOW_LIMITED in cert.caveats


def test_cor_1_2_example1(ex1_spec):
    cert = check("COR_1_2", ex1_spec, WINDOW)
    assert cert.holds
    # scalar oracle: 1.4*(e^0.42 - 1)*e^0.42 - 1.3
    assert cert.witness["sup_rhs_minus_b"] == pytest.approx(
        1.1121675896274408 - 1.3, abs=1e-6)


def test_cor_1_2_pure_delay_fails():
    spec = make_spec(a="1", b="0", g="t-1", h="t+1")
    cert = check("COR_1_2", spec, WINDOW)
    assert cert.verdict == "fails_on_window"


def test_cor_1_2_wrong_pattern(ex3_spec):
    cert = check("COR_1_2", ex3_spec, WINDOW)
    assert cert.verdict == "inapplicable"
    assert "reason" in cert.witness


# -- COR_1_3 -------------------------------------------------------------------

def test_cor_1_3_example1(ex1_spec):
    cert = check("COR_1_3", ex1_spec, WINDOW)
    assert cert.holds
    assert cert.witness["lambda"] == pytest.approx(0.5436, abs=1e-3)


def test_cor_1_3_vanishing_b_fails():
    # a*tau*e > 1 and nothing left from the advance side: no positive root
    spec = make_spec(a="1.4", b="0.000000001", g="t-0.3", h="t+0.3")
    cert = check("COR_1_3", spec, WINDOW)
    assert cert.verdict == "fails_on_window"


def test_cor_1_3_equal_coefficients_has_root():
    # a = b = 1, tau = sigma = 0.3: -l + 2 sinh(0.3 l) crosses zero at l ~ 6.13
    spec = make_spec(a="1", b="1", g="t-0.3", h="t+0.3")
    cert = check("COR_1_3", spec, WINDOW)
    assert cert.holds
    assert cert.witness["lambda"] == pytest.approx(6.128642382167871, abs=1e-3)


def test_cor_1_3_inapplicable_cases(ex3_spec):
    assert check("COR_1_3", ex3_spec, WINDOW).verdict == "inapplicable"
    # a < b somewhere: envelope hypothesis fails
    spec = make_spec(a="1", b="1.2", h="t+0.1")
    assert check("COR_1_3", spec, WINDOW).verdict == "inapplicable"
    # b identically zero: no positive lower envelope
    spec = make_spec(b="0")
    assert check("COR_1_3", spec, WINDOW).verdict == "inapplicable"


# -- COR_1_4_REMARK --------------------------------------------------------------

def test_cor_1_4_example1_fails(ex1_spec):
    cert = check("COR_1_4_REMARK", ex1_spec, WINDOW)
    assert cert.verdict == "fails_on_window"
    assert cert.witness["sup_delay_integral"] == pytest.approx(0.42, abs=1e-9)


def test_cor_1_4_small_delay_holds():
    spec = make_spec(a="1", b="0.5", g="t-0.3", h="t+0.3")
    cert = check("COR_1_4_REMARK", spec, WINDOW)
    assert cert.holds
    assert cert.witness["sup_delay_integral"] == pytest.approx(0.3, abs=1e-9)


def test_cor_1_4_boundary_holds():
    spec = make_spec(a="1", b="0.5", g=f"t-{ONE_OVER_E!r}", h="t+0.1")
    cert = check("COR_1_4_REMARK", spec, WINDOW)
    assert cert.holds  # the comparison is nonstrict at 1/e


# -- COR_2_x ----------------------------------------------------------------------

def test_cor_2_x_pure_advance():
    spec = make_spec(a="0", b="1", g="t-0.1", h="t+0.3")
    c22, c23, c24 = (check(cid, spec, WINDOW) for cid in COR_2_X)
    assert c24.holds  # 0.3 <= 1/e
    assert c22.verdict == "fails_on_window"  # 0 >= (e^0.3 - 1) fails
    assert c23.verdict == "inapplicable"  # needs positive lower envelope for a


def test_cor_2_3_characteristic_root():
    spec = make_spec(a="1.2", b="1.3", g="t-0.2", h="t+0.1")
    c23 = check("COR_2_3", spec, WINDOW)
    assert c23.holds
    assert c23.witness["lambda"] == pytest.approx(0.15804760708022156, abs=1e-3)


def test_cor_2_2_equal_coefficients_reduction():
    spec = make_spec(a="0.5", b="0.5", g="t-0.2", h="t+0.2")
    c22 = check("COR_2_2", spec, WINDOW)
    # a >= a*(e^{0.1} - 1)*e^{0.1} pointwise
    assert c22.holds


def test_cor_2_x_wrong_pattern(ex3_spec):
    assert all(check(cid, ex3_spec, WINDOW).verdict == "inapplicable" for cid in COR_2_X)


# -- THM_A / THM_B ------------------------------------------------------------------

def test_thm_a_pure_delay_reduction():
    spec = make_spec(a="0.5", b="0", g="t-0.4", h="t+0.1", delta2=1)
    cert = check("THM_A_EXPLICIT", spec, WINDOW)
    assert cert.holds
    assert cert.witness["sup_nested_integral"] == pytest.approx(0.2, abs=1e-9)


def test_thm_a_nested_integral():
    spec = make_spec(a="0.5", b="0.5", g="t-0.4", h="t+0.1", delta2=1)
    cert = check("THM_A_EXPLICIT", spec, WINDOW)
    assert cert.holds
    # closed form: 0.5 * 0.4 * e^{0.5*0.4}
    assert cert.witness["sup_nested_integral"] == pytest.approx(
        0.244280551632034, abs=1e-7)
    assert CAVEAT_EQUICONTINUITY in cert.caveats


def test_thm_a_fails_past_one_over_e():
    spec = make_spec(a="1", b="0", g="t-1", h="t+1", delta2=1)
    assert check("THM_A_EXPLICIT", spec, WINDOW).verdict == "fails_on_window"


def test_thm_a_pattern_guard(ex1_spec):
    assert check("THM_A_EXPLICIT", ex1_spec, WINDOW).verdict == "inapplicable"


def test_thm_b_mirror():
    spec = make_spec(a="0.5", b="0.5", g="t-0.1", h="t+0.4", delta1=-1, delta2=-1)
    cert = check("THM_B_EXPLICIT", spec, WINDOW)
    assert cert.holds
    assert cert.witness["sup_nested_integral"] == pytest.approx(
        0.244280551632034, abs=1e-7)
    assert check("THM_B_EXPLICIT", make_spec(), WINDOW).verdict == "inapplicable"


@pytest.mark.parametrize("condition_id, overrides", [
    ("THM_A_EXPLICIT", dict(a="0.3", b="1e300", g="t-0.4", h="t+0.2", delta2=1)),
    ("THM_B_EXPLICIT", dict(a="1e300", b="0.3", g="t-0.4", h="t+0.2",
                            delta1=-1, delta2=-1)),
], ids=["thm-a-huge-b", "thm-b-huge-a"])
def test_thm_nested_integral_saturates_on_overflow(condition_id, overrides):
    # the weight's exponential overflows; the integral saturates to inf and fails
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cert = check(condition_id, make_spec(**overrides), (0.0, 20.0))
    assert cert.verdict == "fails_on_window"
    assert cert.witness["sup_nested_integral"] == math.inf
    assert cert.witness["t_at_sup"] == 0.0


# -- COR_3_1 --------------------------------------------------------------------

def test_cor_3_1_example3_fails():
    bounds = Bounds(1.2, 1.4, 1.6, 1.8, 0.2, 0.3, WINDOW)
    c1, c2 = check_cor_3_1(bounds)
    assert c1.verdict == "fails_on_window"  # needs b2 < a1
    assert c2.verdict == "fails_on_window"  # 0.6 > ln(1.6/1.4)/0.5 ~ 0.267
    assert c2.witness["log_bound"] == pytest.approx(0.26706278524904553, abs=1e-12)


def test_cor_3_1_condition1_holds():
    bounds = Bounds(2.0, 2.0, 1.0, 1.0, 0.05, 0.05, WINDOW)
    c1, c2 = check_cor_3_1(bounds)
    assert c1.holds
    assert c1.witness["log_bound"] == pytest.approx(10 * math.log(2.0), abs=1e-12)
    assert c2.verdict == "fails_on_window"


def test_cor_3_1_strict_boundary_fails():
    # b2 - a1 equals the log bound exactly: the strict inequality fails
    half_log2 = math.log(2.0) / 2.0
    bounds = Bounds(1.0, 1.0, 2.0, 2.0, half_log2, half_log2, WINDOW)
    _, c2 = check_cor_3_1(bounds)
    assert c2.verdict == "fails_on_window"


def test_cor_3_1_without_deviations_has_no_log_bound():
    # tau = sigma = 0: each sub-condition reduces to its two comparisons
    c1, c2 = check_cor_3_1(Bounds(2.0, 2.0, 1.0, 1.0, 0.0, 0.0, WINDOW))
    assert c1.holds
    assert c2.verdict == "fails_on_window"
    assert c1.witness["log_bound"] == c2.witness["log_bound"] == math.inf


def test_cor_3_1_log_bound_of_a_quotient_that_overflows():
    # b1/a2 = 1e10/1e-300 overflows to inf; the bound is the difference of the
    # logs over tau + sigma = 0.5, which the gap 1e10 exceeds (the underflowing
    # quotient is test_cli.py's test_check_survives_an_envelope_ratio_that_underflows)
    c1, c2 = check_cor_3_1(Bounds(1e-300, 1e-300, 1e10, 1e10, 0.2, 0.3, WINDOW))
    want = (math.log(1e10) - math.log(1e-300)) / 0.5  # 1427.6
    assert c1.witness["log_bound"] == pytest.approx(-want, rel=1e-15)
    assert c2.witness["log_bound"] == pytest.approx(want, rel=1e-15)
    assert c2.verdict == "fails_on_window"


def test_cor_3_1_nonpositive_inapplicable():
    bounds = Bounds(0.0, 1.0, 0.5, 1.0, 0.1, 0.1, WINDOW)
    assert all(c.verdict == "inapplicable" for c in check_cor_3_1(bounds))


# -- SYS_30 ---------------------------------------------------------------------

def test_sys30_probe_values():
    bounds = Bounds(1.2, 1.4, 1.6, 1.8, 0.2, 0.3, WINDOW)
    gv, fv = sys30_values(bounds, 2.0, 3.0)
    assert gv == pytest.approx(EX3_PROBE[0], abs=1e-12)
    assert fv == pytest.approx(EX3_PROBE[1], abs=1e-12)


def test_sys30_example3_feasible():
    bounds = Bounds(1.2, 1.4, 1.6, 1.8, 0.2, 0.3, WINDOW)
    cert = check_sys30(bounds)
    assert cert.holds
    x, y = cert.witness["x"], cert.witness["y"]
    gv, fv = sys30_values(bounds, x, y)
    assert x > 0 and y > 0
    assert gv <= x + 1e-9 and fv <= y + 1e-9


def test_sys30_degenerate_deviations():
    bounds = Bounds(1.0, 2.0, 0.5, 3.0, 0.0, 0.0, WINDOW)
    cert = check_sys30(bounds)
    assert cert.holds
    assert cert.witness["route"] == "degenerate"


def test_sys30_grid_sweep_route():
    # the slack g^{-1}(x) - f(x) is positive nowhere on the inversion grid, so
    # the witness comes from the fallback sweep
    bounds = Bounds(0.2513596460413849, 0.27675102216363634, 8.663073427091012,
                    13.739350761356066, 0.0, 4.37807035104346, WINDOW)
    cert = check_sys30(bounds)
    assert cert.holds
    assert cert.witness["route"] == "grid-sweep"
    assert (cert.witness["x"], cert.witness["y"]) == pytest.approx((0.28, 46.56), abs=1e-12)


def _nested_inverse_slack(bounds, x):
    """g^{-1}(x) - f(x), inverting g by an 80-step bisection on [0, 50]."""
    lo, hi = 0.0, 50.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        gv = bounds.a2 * math.exp(mid * bounds.tau) - bounds.b1 * math.exp(-mid * bounds.sigma)
        if gv > x:
            hi = mid
        else:
            lo = mid
    fv = bounds.b2 * math.exp(x * bounds.sigma) - bounds.a1 * math.exp(-x * bounds.tau)
    return 0.5 * (lo + hi) - fv


def _nested_inverse_boundary(bounds, x1, x2):
    """The boundary bisection as first written: one inversion of g per probe."""
    s1 = _nested_inverse_slack(bounds, x1)
    for _ in range(60):
        xm = 0.5 * (x1 + x2)
        sm = _nested_inverse_slack(bounds, xm)
        if (sm > 0) == (s1 > 0):
            x1, s1 = xm, sm
        else:
            x2 = xm
        if x2 - x1 <= 1e-10 * max(1.0, abs(xm)):
            break
    return 0.5 * (x1 + x2)


def test_sys30_boundary_matches_the_nested_inverse(monkeypatch):
    brackets = []
    bisect = criteria._bisect_slack_root

    def recording(bounds, x1, x2):
        brackets.append((bounds, x1, x2))
        return bisect(bounds, x1, x2)

    monkeypatch.setattr(criteria, "_bisect_slack_root", recording)
    rng = np.random.default_rng(30)
    boundaries = []
    for _ in range(60):
        a1, a2 = np.sort(rng.uniform(0.05, 3.0, size=2))
        b1, b2 = np.sort(rng.uniform(0.05, 3.0, size=2))
        bounds = Bounds(float(a1), float(a2), float(b1), float(b2),
                        float(rng.uniform(0.0, 0.3)), float(rng.uniform(0.0, 0.3)), WINDOW)
        cert = check_sys30(bounds)
        if cert.holds and "boundary_x" in cert.witness:
            boundaries.append(cert.witness["boundary_x"])
            assert brackets[-1][0] is bounds
    assert len(boundaries) == len(brackets) >= 20
    for x, (bounds, x1, x2) in zip(boundaries, brackets):
        assert x == pytest.approx(_nested_inverse_boundary(bounds, x1, x2), rel=1e-12, abs=0)
        dx = 1e-9 * max(1.0, x)
        assert _nested_inverse_slack(bounds, x - dx) > 0
        assert _nested_inverse_slack(bounds, x + dx) < 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bounds, boundary_x", [
    (Bounds(1.0, 1.0, 0.01, 0.01, 20.0, 0.3, WINDOW), 7.75743043085242),
    (Bounds(0.01, 0.01, 1.0, 1.0, 0.3, 20.0, WINDOW), 0.10249502102605282),
], ids=["long-delay", "long-advance"])
def test_sys30_boundary_with_overflowing_exponentials(bounds, boundary_x):
    cert = check_sys30(bounds)
    assert cert.witness["route"] == "monotone-inversion"
    assert cert.witness["boundary_x"] == pytest.approx(boundary_x, rel=1e-12, abs=0)


def test_sys30_infeasible():
    bounds = Bounds(1.0, 1.0, 10.0, 10.0, 1.0, 1.0, WINDOW)
    cert = check_sys30(bounds)
    assert cert.verdict == "fails_on_window"
    assert cert.witness["searched_x_max"] == 50.0
    assert cert.witness["resolution"] == 0.01


def _witness_draws(rng):
    """Seeded envelopes whose SYS_30 witnesses come from every route."""
    for _ in range(40):  # mostly the monotone-inversion route
        a = rng.uniform(0.2, 3.0)
        b = a * rng.uniform(1.02, 1.6)
        spread_a = rng.uniform(0.0, 0.15) * a
        spread_b = rng.uniform(0.0, 0.15) * b
        yield Bounds(a - spread_a, a + spread_a, b - spread_b, b + spread_b,
                     rng.uniform(0.01, 0.4), rng.uniform(0.01, 0.4), WINDOW)
    for _ in range(10):  # tau = sigma = 0
        a1, a2 = np.sort(rng.uniform(0.0, 5.0, size=2))
        b1, b2 = np.sort(rng.uniform(0.0, 5.0, size=2))
        yield Bounds(a1, a2, b1, b2, 0.0, 0.0, WINDOW)
    for _ in range(60):  # a short delay, a long advance: a narrow feasible x-range
        a = rng.uniform(0.2, 0.35)
        b = rng.uniform(8.0, 14.0)
        yield Bounds(a, a * rng.uniform(1.0, 1.05), b, b * rng.uniform(1.0, 1.05),
                     0.0, rng.uniform(3.5, 5.5), WINDOW)


def test_sys30_witness_validity_random():
    routes = set()
    for bounds in _witness_draws(np.random.default_rng(31)):
        cert = check_sys30(bounds)
        if cert.holds:
            routes.add(cert.witness["route"])
            x, y = cert.witness["x"], cert.witness["y"]
            gv, fv = sys30_values(bounds, x, y)
            assert x > 0 and y > 0
            assert gv - x <= criteria._WITNESS_SLACK and fv - y <= criteria._WITNESS_SLACK
    assert routes == {"degenerate", "monotone-inversion", "grid-sweep"}


@pytest.mark.parametrize("ab, tau, sigma", [(2.0, 0.2, 0.3), (1e4, 4e-5, 6e-5)],
                         ids=["a-b-2", "a-b-1e4"])
def test_sys30_takes_no_hit_from_rounding_noise(ab, tau, sigma):
    # g(f(x)) - x > 0 on (0, 50], but two exponentials near ab cancel in it:
    # on the inversion grid its float value is negative at some x
    bounds = Bounds(ab, ab, ab, ab, tau, sigma, WINDOW)
    xs = criteria._inversion_grid(1e-9)
    _, fx = sys30_values(bounds, xs, 0.0)
    gfx, _ = sys30_values(bounds, 0.0, fx)
    assert np.any((fx < 50.0) & (gfx < xs))
    assert not np.any(criteria._inversion_hits(bounds, xs))
    assert not check_sys30(bounds).holds
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(50):
        a, t, s = mp.mpf(ab), mp.mpf(tau), mp.mpf(sigma)
        for x in map(mp.mpf, np.geomspace(1e-12, 50.0, 3000)):
            f = a * mp.exp(x * s) - a * mp.exp(-x * t)
            assert a * mp.exp(f * t) - a * mp.exp(-f * s) > x


def _rounding_margin(env, fx, gfx):
    """How far below x g(f(x)) must be for the inversion route to count a hit:
    4 eps times the size of g's terms, times 1 + (tau + sigma) times f's."""
    with np.errstate(over="ignore", invalid="ignore"):
        g_terms = np.abs(gfx) + 2.0 * (np.abs(env.a2) + np.abs(env.b1))
        f_terms = np.abs(fx) + 2.0 * (np.abs(env.a1) + np.abs(env.b2))
        return 4.0 * np.finfo(float).eps * g_terms * (1.0 + (env.tau + env.sigma) * f_terms)


def _sys30_oracle(bounds):
    """check_sys30's verdict as it was decided one cell at a time: the degenerate
    witness; the argmax of the slack g^{-1}(x) - f(x), inverting g by an 80-step
    bisection on [0, 50], where some x has g(f(x)) below x by more than
    _rounding_margin; the first hit of the 0.01 grid sweep whose witness checks."""
    def ok(x, y):
        if not (x > 0.0 and y > 0.0):
            return False
        gv, fv = sys30_values(bounds, x, y)
        return gv <= x + 1e-12 and fv <= y + 1e-12

    if bounds.tau == 0.0 and bounds.sigma == 0.0:
        if ok(max(bounds.a2 - bounds.b1, 0.0) + 1.0, max(bounds.b2 - bounds.a1, 0.0) + 1.0):
            return True
    x_lo = max(bounds.a2 - bounds.b1, 0.0) + 1e-9
    if x_lo < 50.0:
        xs = np.unique(np.concatenate([np.geomspace(x_lo, 50.0, 160),
                                       np.linspace(x_lo, 50.0, 480)]))
        lo, hi = np.zeros_like(xs), np.full_like(xs, 50.0)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            too_big = sys30_values(bounds, 0.0, mid)[0] > xs
            hi, lo = np.where(too_big, mid, hi), np.where(too_big, lo, mid)
        ginv = 0.5 * (lo + hi)
        fx = sys30_values(bounds, xs, 0.0)[1]
        gfx = sys30_values(bounds, 0.0, fx)[0]
        hit = np.any((fx < 50.0) & (gfx < xs - _rounding_margin(bounds, fx, gfx)))
        k = int(np.argmax(ginv - fx))
        if hit and ginv[k] - fx[k] > 0.0 and ok(float(xs[k]),
                                                0.5 * (max(float(fx[k]), 0.0) + float(ginv[k]))):
            return True
    grid = 0.01 * (1.0 + np.arange(5000))
    gys, fxs = sys30_values(bounds, grid, grid)
    idx = np.searchsorted(grid, gys, side="left")
    cand = np.clip(idx, 0, len(grid) - 1)
    hits = np.flatnonzero((idx < len(grid)) & (fxs[cand] <= grid))
    return any(ok(float(grid[idx[j]]), float(grid[j])) for j in hits)


_INV, _SWEEP = "monotone-inversion", "grid-sweep"


@pytest.mark.parametrize("tau, sigma, ranges, res, routes", [
    (0.2, 0.3, ((0.0, 3.0), (0.0, 3.0)), 0.5, {_INV, "fails"}),            # example 4
    (0.0, 0.0, ((0.0, 3.0), (0.0, 3.0)), 1.0, {"degenerate"}),
    (16.0, 0.1, ((0.0, 0.1), (0.0, 1.0)), 0.05, {_INV, "fails"}),
    (0.0, 4.378, ((0.0, 1.0), (0.0, 15.0)), 0.25, {_INV, _SWEEP, "fails"}),  # many blocks
    (0.0, 0.01, ((48.0, 52.0), (0.0, 2.0)), 1.0, {_INV, "fails"}),  # a - b >= 50: skipped
], ids=["ex4", "degenerate", "long-delay", "narrow-x-range", "wide-gap"])
def test_sweep_ab_matches_the_per_cell_oracle(tau, sigma, ranges, res, routes):
    template = Bounds(1.0, 1.0, 1.0, 1.0, tau, sigma, WINDOW)
    region = sweep_region(template, "a", "b", ranges, res)
    seen = set()
    for i, av in enumerate(region.axis1_values):
        for j, bv in enumerate(region.axis2_values):
            cell = Bounds(float(av), float(av), float(bv), float(bv), tau, sigma, WINDOW)
            want = _sys30_oracle(cell)
            cert = check_sys30(cell)
            assert region.feasible[i, j] == want, (av, bv)
            assert cert.holds == want, (av, bv)
            seen.add(cert.witness.get("route", "fails"))
    assert seen == routes


def test_sys30_routes_on_general_bounds_match_the_per_cell_oracle():
    rng = np.random.default_rng(34)
    decided = set()
    for tau, sigma in [(0.0, 0.0), (0.0, 0.0), *rng.uniform(0.0, 1.0, size=(3, 2)),
                       *rng.uniform(0.0, 20.0, size=(3, 2)), (0.0, 15.5), (17.0, 0.0),
                       (0.0, 0.01)]:
        a = np.sort(rng.uniform(0.0, 5.0, size=(24, 2)), axis=1)
        b = np.sort(rng.uniform(0.0, 5.0, size=(24, 2)), axis=1)
        a[:4] += 55.0  # a2 - b1 >= 50
        cells = [Bounds(*a[k], *b[k], float(tau), float(sigma), WINDOW) for k in range(24)]
        routes = criteria._sys30_routes(a[:, 0], a[:, 1], b[:, 0], b[:, 1], tau, sigma)
        for cell, route in zip(cells, routes):
            want = _sys30_oracle(cell)
            assert (route != criteria._NO_ROUTE) == want, cell
            assert check_sys30(cell).holds == want, cell
            decided.add(int(route))
    assert decided == {criteria._DEGENERATE, criteria._INVERSION, criteria._NO_ROUTE}


def _dense_sys30_routes(a1, a2, b1, b2, tau, sigma):
    """criteria._sys30_routes as it was before it decided cells coarse to fine:
    each route's test at every point of every grid, for every cell. An
    inversion hit needs g(f(x)) below x by more than _rounding_margin."""
    a1, a2, b1, b2 = (np.array(v, dtype=float, ndmin=1) for v in (a1, a2, b1, b2))
    routes = np.full(a1.shape, criteria._NO_ROUTE, dtype=np.int8)

    def cells(idx):
        return criteria._Cells(a1[idx, None], a2[idx, None], b1[idx, None], b2[idx, None],
                               tau, sigma)

    if tau == 0.0 and sigma == 0.0:
        x = np.maximum(a2 - b1, 0.0) + 1.0
        y = np.maximum(b2 - a1, 0.0) + 1.0
        ok = criteria._sys30_witness_ok(criteria._Cells(a1, a2, b1, b2, tau, sigma), x, y)
        routes[ok] = criteria._DEGENERATE

    x_lo = np.maximum(a2 - b1, 0.0) + 1e-9
    todo = np.flatnonzero((routes == criteria._NO_ROUTE) & (x_lo < 50.0))
    for idx in criteria._blocks(todo, 160 + 480):
        env = cells(idx)
        xs = criteria._inversion_grid(x_lo[idx])
        _, fx = sys30_values(env, xs, 0.0)
        gfx, _ = sys30_values(env, 0.0, fx)
        hit = (fx < 50.0) & (gfx < xs - _rounding_margin(env, fx, gfx))
        routes[idx[np.any(hit, axis=1)]] = criteria._INVERSION

    ys = 0.01 * (1.0 + np.arange(5000))
    for idx in criteria._blocks(np.flatnonzero(routes == criteria._NO_ROUTE), len(ys)):
        env = cells(idx)
        gys, fxs = sys30_values(env, ys, ys)
        j = np.searchsorted(ys, gys, side="left")
        cand = np.minimum(j, len(ys) - 1)
        hit = (j < len(ys)) & (np.take_along_axis(fxs, cand, axis=-1) <= ys)
        found = np.any(hit & criteria._sys30_witness_ok(env, ys[cand], ys), axis=1)
        routes[idx[found]] = criteria._SWEEP
    return routes


@pytest.fixture
def coarse_counts(monkeypatch):
    """Counts, over every call of criteria._coarse_to_fine: the cells a block's
    first point accepts, the blocks dropped in each sorted grid, and the cells
    left with a block for the point-by-point tests."""
    counts = dict.fromkeys(["accepted", "geometric", "linear", "sweep", "refined"], 0)
    parts = {16: {"geometric": slice(0, 4), "linear": slice(4, 16)},  # _inversion_grid
             125: {"sweep": slice(None)}}
    coarse_to_fine = criteria._coarse_to_fine

    def counting(env, blocks, hits, kept):
        accepted = np.any(hits(env, blocks[..., 0]), axis=1)
        monotone = np.all([v >= 0.0 for v in (env.a1, env.a2, env.b1, env.b2)], axis=0)
        dropped = ~kept(env, blocks) & monotone & ~accepted[:, None]
        counts["accepted"] += int(accepted.sum())
        for name, part in parts[blocks.shape[1]].items():
            counts[name] += int(dropped[:, part].sum())
        counts["refined"] += int(np.sum(~accepted & ~np.all(dropped, axis=1)))
        return coarse_to_fine(env, blocks, hits, kept)

    monkeypatch.setattr(criteria, "_coarse_to_fine", counting)
    return counts


@pytest.mark.parametrize("res", [0.3, 0.05])
def test_sys30_routes_match_the_dense_oracle_on_example4(res, coarse_counts):
    template = Bounds(1.0, 1.0, 1.0, 1.0, 0.2, 0.3, WINDOW)
    region = sweep_region(template, "a", "b", ((0.0, 3.0), (0.0, 3.0)), res)
    a = np.repeat(region.axis1_values, len(region.axis2_values))
    b = np.tile(region.axis2_values, len(region.axis1_values))
    want = _dense_sys30_routes(a, a, b, b, 0.2, 0.3)
    np.testing.assert_array_equal(criteria._sys30_routes(a, a, b, b, 0.2, 0.3), want)
    np.testing.assert_array_equal(region.feasible.ravel(), want != criteria._NO_ROUTE)
    assert set(want.tolist()) == {criteria._INVERSION, criteria._NO_ROUTE}
    assert all(coarse_counts[k] > 0 for k in ("accepted", "linear", "sweep", "refined"))


_RATES = st.one_of(st.just(0.0), st.just(0.01), st.floats(0.0, 1.0), st.floats(0.0, 20.0))


@st.composite
def _envelope_batches(draw):
    """Envelopes of up to 12 cells that share tau and sigma. Scales run from
    1e-3 to 1e3. Some lower bounds are negative, and in "signed" batches most
    bounds are, so that g or f need not increase. In "overflow" batches tau is
    20 and some a2 >= 1e300, so that exponentials overflow; "narrow" batches
    are _witness_draws' narrow x-ranges, where g(f(x)) - x sits near 0."""
    n = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["general", "signed", "overflow", "narrow"]))
    if kind == "narrow":
        sigma = draw(st.floats(3.5, 5.5))
        a = [draw(st.floats(0.2, 0.35)) for _ in range(n)]
        b = [draw(st.floats(8.0, 14.0)) for _ in range(n)]
        stretch = [draw(st.floats(1.0, 1.05)) for _ in range(2 * n)]
        return (np.array(a), np.array(a) * stretch[:n], np.array(b), np.array(b) * stretch[n:],
                0.0, sigma)
    tau, sigma = (20.0 if kind == "overflow" else draw(_RATES)), draw(_RATES)
    low, high = (-3.0, 1.0) if kind == "signed" else (-0.3, 3.0)
    cells = []
    for _ in range(n):
        scale = 10.0 ** draw(st.floats(-3.0, 3.0))
        a1, a2 = sorted(scale * draw(st.floats(low, high)) for _ in range(2))
        b1, b2 = sorted(scale * draw(st.floats(low, high)) for _ in range(2))
        if kind == "overflow" and draw(st.booleans()):
            a2 = draw(st.floats(1e300, 1e306))
        cells.append((a1, a2, b1, b2))
    return (*np.array(cells).T, tau, sigma)


def _batch(cell, tau, sigma):
    return (*(np.array([v]) for v in cell), tau, sigma)


# one-cell batches, each with the _coarse_to_fine counters (see coarse_counts) and
# the check_sys30 route it reaches, checked by
# test_the_pinned_envelope_batches_reach_their_branches
_PINNED_BATCHES = {
    # example 4's a = b = 0.5: a block's first point accepts the cell
    "accepted": (_batch((0.5, 0.5, 0.5, 0.5), 0.2, 0.3), {"accepted"}, _INV),
    # infeasible: blocks dropped in both parts of the inversion grid and in the
    # sweep, and the cell refined point by point
    "dropped": (_batch((0.0, 0.1, 0.0, 10.0), 0.2, 0.3),
                {"geometric", "linear", "sweep", "refined"}, "fails"),
    # the narrow-x-range plane: only the sweep finds a witness
    "sweep": (_batch((0.5, 0.5, 5.25, 5.25), 0.0, 4.378), {"accepted"}, _SWEEP),
    "degenerate": (_batch((1.0, 1.0, 1.0, 1.0), 0.0, 0.0), set(), "degenerate"),
}


def test_the_pinned_envelope_batches_reach_their_branches(coarse_counts):
    reached = {}
    for name, (batch, counters, route) in _PINNED_BATCHES.items():
        before = dict(coarse_counts)
        criteria._sys30_routes(*batch)
        grew = {k for k, v in coarse_counts.items() if v > before[k]}
        cell = Bounds(*(float(v[0]) for v in batch[:4]), *batch[4:], WINDOW)
        reached[name] = counters <= grew and check_sys30(cell).witness.get("route", "fails") == route
    assert reached == dict.fromkeys(_PINNED_BATCHES, True)


@seed(20200)
@settings(max_examples=300, deadline=None, database=None)
@given(_envelope_batches())
@example(_PINNED_BATCHES["accepted"][0])
@example(_PINNED_BATCHES["dropped"][0])
@example(_PINNED_BATCHES["sweep"][0])
@example(_PINNED_BATCHES["degenerate"][0])
def test_sys30_routes_match_the_dense_oracle_on_general_bounds(batch):
    np.testing.assert_array_equal(criteria._sys30_routes(*batch), _dense_sys30_routes(*batch))


def test_every_sweep_hit_passes_the_witness_test():
    # the invariant on which _sweep_hits and check_sys30 take a hit of
    # _sweep_candidates as a witness without testing it again
    tested = []

    @seed(20230)
    @settings(max_examples=40, deadline=None, database=None)
    @given(_envelope_batches())
    def hits_pass(batch):
        env = criteria._Cells(*(v[:, None] for v in batch[:4]), *batch[4:])
        ys = criteria._sweep_grid()
        xs, hit = criteria._sweep_candidates(env, ys)
        rows, cols = np.nonzero(hit)
        tested.append(rows.size)
        assert np.all(criteria._sys30_witness_ok(env.at((rows, 0)), xs[rows, cols], ys[cols]))

    hits_pass()
    assert sum(tested) > 0


def _slack_root_as_first_written(bounds, x1, x2):
    """criteria._bisect_slack_root with its own test of the slack's sign."""
    def slack_positive(x):
        _, fv = sys30_values(bounds, x, 0.0)
        gv, _ = sys30_values(bounds, x, fv)
        return bool(fv < 50.0 and gv < x)

    positive_at_x1 = slack_positive(x1)
    for _ in range(60):
        xm = 0.5 * (x1 + x2)
        if slack_positive(xm) == positive_at_x1:
            x1 = xm
        else:
            x2 = xm
        if x2 - x1 <= 1e-10 * max(1.0, abs(xm)):
            break
    return 0.5 * (x1 + x2)


def _check_sys30_as_first_written(bounds):
    """check_sys30 before it took each witness from the route that found it:
    the verdict of _dense_sys30_routes, and each route's witness tested by
    _sys30_witness_ok before it is returned, every sweep hit in turn."""
    caveats = (CAVEAT_WINDOW_LIMITED, CAVEAT_EQUICONTINUITY)

    def holds(x, y, route, extra=None):
        gv, fv = sys30_values(bounds, x, y)
        witness = {"x": x, "y": y, "constraint_delay_side": float(gv),
                   "constraint_advance_side": float(fv), "route": route, **(extra or {})}
        return criteria.Certificate("SYS_30_FEASIBLE", criteria.HOLDS, bounds.window,
                                    witness, caveats)

    route = int(_dense_sys30_routes(bounds.a1, bounds.a2, bounds.b1, bounds.b2,
                                    bounds.tau, bounds.sigma)[0])
    if route == criteria._DEGENERATE:
        x = max(bounds.a2 - bounds.b1, 0.0) + 1.0
        y = max(bounds.b2 - bounds.a1, 0.0) + 1.0
        if criteria._sys30_witness_ok(bounds, x, y):
            return holds(x, y, "degenerate")
    x_lo = max(bounds.a2 - bounds.b1, 0.0) + 1e-9
    if route <= criteria._INVERSION and x_lo < 50.0:
        xs = np.unique(criteria._inversion_grid(x_lo))
        ginv = criteria._g_inverse_vec(bounds, xs)
        _, fx = sys30_values(bounds, xs, 0.0)
        slack = ginv - fx
        k = int(np.argmax(slack))
        if slack[k] > 0.0:
            x_st = float(xs[k])
            y_st = 0.5 * (max(float(fx[k]), 0.0) + float(ginv[k]))
            extra = {}
            after = np.flatnonzero(slack[k:] < 0.0)
            if after.size:
                j = k + int(after[0])
                extra["boundary_x"] = _slack_root_as_first_written(
                    bounds, float(xs[j - 1]), float(xs[j]))
            if criteria._sys30_witness_ok(bounds, x_st, y_st):
                return holds(x_st, y_st, "monotone-inversion", extra)
    if route <= criteria._SWEEP:
        ys = criteria._sweep_grid()
        xs, hit = criteria._sweep_candidates(bounds, ys)
        for j in np.flatnonzero(hit):
            if criteria._sys30_witness_ok(bounds, float(xs[j]), float(ys[j])):
                return holds(float(xs[j]), float(ys[j]), "grid-sweep")
    return criteria.Certificate(
        "SYS_30_FEASIBLE", criteria.FAILS, bounds.window,
        {"searched_x_max": 50.0, "searched_y_max": 50.0, "resolution": 0.01}, caveats)


def test_check_sys30_matches_the_witness_code_as_first_written():
    compared = []

    @seed(20231)
    @settings(max_examples=30, deadline=None, database=None)
    @given(_envelope_batches())
    @example(_PINNED_BATCHES["accepted"][0])
    @example(_PINNED_BATCHES["dropped"][0])
    @example(_PINNED_BATCHES["sweep"][0])
    @example(_PINNED_BATCHES["degenerate"][0])
    def match(batch):
        for cell in zip(*batch[:4]):
            for tau, sigma in (batch[4:], (0.0, 0.0)):  # and undeviated
                bounds = Bounds(*map(float, cell), tau, sigma, WINDOW)
                got = check_sys30(bounds)  # tier-1 turns numpy's warnings into errors
                assert repr(got) == repr(_check_sys30_as_first_written(bounds))
                compared.append(bounds)

    match()
    assert len(compared) >= 300, len(compared)


def test_cor_3_1_implies_sys30():
    rng = np.random.default_rng(32)
    checked = 0
    for _ in range(60):
        vals = np.sort(rng.uniform(0.1, 4.0, size=2))
        a1, a2 = float(vals[0]), float(vals[1])
        vals = np.sort(rng.uniform(0.1, 4.0, size=2))
        b1, b2 = float(vals[0]), float(vals[1])
        bounds = Bounds(a1, a2, b1, b2, rng.uniform(0.0, 0.5),
                        rng.uniform(0.0, 0.5), WINDOW)
        c1, c2 = check_cor_3_1(bounds)
        if c1.holds or c2.holds:
            checked += 1
            assert check_sys30(bounds).holds
    assert checked >= 3


# -- region sweeps -----------------------------------------------------------------

def test_sweep_fig1_example3():
    bounds = Bounds(1.2, 1.4, 1.6, 1.8, 0.2, 0.3, WINDOW)
    region = sweep_region(bounds, "x", "y", ((0.0, 6.0), (0.0, 8.0)), 0.05)
    assert region.nonempty
    i = int(round(2.0 / 0.05))
    j = int(round(3.0 / 0.05))
    assert region.axis1_values[i] == pytest.approx(2.0)
    assert region.axis2_values[j] == pytest.approx(3.0)
    assert region.feasible[i, j]
    assert region.reference is None


def test_sweep_fig2_matches_pointwise():
    bounds = Bounds(1.0, 1.0, 1.0, 1.0, 0.2, 0.3, WINDOW)
    region = sweep_region(bounds, "a", "b", ((0.0, 1.0), (0.0, 1.0)), 0.25)
    assert np.all(region.axis1_values > 0)
    assert region.reference is not None
    for i, av in enumerate(region.axis1_values):
        for j, bv in enumerate(region.axis2_values):
            cell = Bounds(float(av), float(av), float(bv), float(bv),
                          0.2, 0.3, WINDOW)
            assert region.feasible[i, j] == check_sys30(cell).holds
            assert region.reference[i, j] == (0.2 * av + 0.3 * bv < ONE_OVER_E)


def test_sweep_region_csv():
    bounds = Bounds(1.0, 1.0, 1.0, 1.0, 0.2, 0.3, WINDOW)
    region = sweep_region(bounds, "a", "b", ((0.0, 0.5), (0.0, 0.5)), 0.25)
    buf = io.StringIO()
    region.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "a,b,feasible,reference"
    assert len(lines) == 1 + region.feasible.size


def _region_csv_as_first_written(self, dest):
    """FeasibilityRegion.to_csv as first written, one f-string per cell."""
    header = f"{self.axis1_name},{self.axis2_name},feasible"
    flags, text = self.feasible.astype(int), ("0", "1")
    if self.reference is not None:
        header += ",reference"
        flags = 2 * flags + self.reference
        text = ("0,0", "0,1", "1,0", "1,1")
    v2 = [repr(float(v)) for v in self.axis2_values]
    lines = [header]
    for v1, row in zip(self.axis1_values, flags.tolist()):
        x = repr(float(v1))
        lines += [f"{x},{y},{text[k]}" for y, k in zip(v2, row)]
    dest.write("\n".join(lines) + "\n")


_AXIS_VALUES = st.one_of(
    # a signed zero, the least subnormal, a float past 2**53, and two whose
    # repr needs all 17 significant digits
    st.sampled_from([-0.0, 0.0, 5e-324, 1e16, 0.30000000000000004, 1.0000000000000002]),
    st.floats())


@st.composite
def _feasibility_regions(draw):
    n1, n2 = draw(st.one_of(st.just((1, 1)), st.tuples(st.just(1), st.integers(0, 9)),
                            st.tuples(st.integers(0, 9), st.just(1)),
                            st.tuples(st.integers(0, 9), st.integers(0, 9))))

    def matrix():
        cells = draw(st.lists(st.booleans(), min_size=n1 * n2, max_size=n1 * n2))
        return np.array(cells, dtype=bool).reshape(n1, n2)

    names = draw(st.sampled_from([("x", "y"), ("a", "b")]))
    vals1, vals2 = (np.array(draw(st.lists(_AXIS_VALUES, min_size=n, max_size=n)),
                             dtype=float) for n in (n1, n2))
    feasible = matrix()
    reference = matrix() if draw(st.booleans()) else None
    return criteria.FeasibilityRegion(*names, vals1, vals2, feasible, reference)


@seed(20220)
@settings(max_examples=300, deadline=None, database=None)
@given(_feasibility_regions())
def test_region_csv_matches_the_writer_as_first_written(region):
    got, want = io.StringIO(), io.StringIO()
    region.to_csv(got)
    _region_csv_as_first_written(region, want)
    assert got.getvalue() == want.getvalue()


def test_sweep_region_errors():
    bounds = Bounds(1.0, 1.0, 1.0, 1.0, 0.2, 0.3, WINDOW)
    with pytest.raises(ValueError):
        sweep_region(bounds, "x", "y", ((0.0, 1.0), (0.0, 1.0)), 0.0)
    with pytest.raises(ValueError):
        sweep_region(bounds, "x", "b", ((0.0, 1.0), (0.0, 1.0)), 0.1)
    with pytest.raises(ValueError, match="does not match the axis resolutions"):
        criteria.FeasibilityRegion("x", "y", np.zeros(2), np.zeros(3), np.zeros((3, 2), bool))


# -- divergence heuristics -----------------------------------------------------------

def test_divergence_example2(ex2_spec):
    cert = check("COR_1_5", ex2_spec, (0.0, 100.0))
    assert cert.holds
    checkpoints = dict(cert.witness["checkpoints"])
    assert checkpoints[100.0] == pytest.approx(EX2_I100, abs=1e-6)
    assert CAVEAT_WINDOW_LIMITED in cert.caveats


def test_divergence_equal_coefficients_fails():
    spec = make_spec(a="1", b="1")
    cert = check("COR_1_5", spec, (0.0, 100.0))
    assert cert.verdict == "fails_on_window"


def test_divergence_bounded_integral_fails():
    # gap integral e^{-t} accumulates less than 1: never reaches the threshold
    spec = make_spec(a="1+exp(-1*t)", b="1")
    cert = check("COR_1_5", spec, (0.0, 100.0))
    assert cert.verdict == "fails_on_window"


def test_divergence_cor_1_6_requires_delay_test(ex2_spec):
    # Example 2's delayed integral ~0.41 exceeds 1/e, so 1_6 fails while 1_5 holds
    cert = check("COR_1_6", ex2_spec, (0.0, 100.0))
    assert cert.verdict == "fails_on_window"
    spec = make_spec(a="0.6", b="0.5", g="t-0.3", h="t+0.3")
    cert = check("COR_1_6", spec, (0.0, 100.0))
    assert cert.holds  # 0.18 <= 1/e and int(a-b) = 10 > 5


def test_divergence_cor_2_5():
    spec = make_spec(a="1.325+0.025*cos(t)", b="1.375+0.025*sin(t)")
    cert = check("COR_2_5", spec, (0.0, 100.0))
    assert cert.holds
    # dominance b >= a fails for Example-2 ordering
    cert = check("COR_2_5", make_spec(a="1.375", b="1.325"), (0.0, 100.0))
    assert cert.verdict == "inapplicable"


def test_divergence_argument_guard(ex3_spec):
    assert check("COR_1_5", ex3_spec, WINDOW).verdict == "inapplicable"
    with pytest.raises(ValueError, match="unknown condition 'COR_9_9'"):
        check("COR_9_9", make_spec(), WINDOW)


# -- comparison monotonicity (dominance pairs) ----------------------------------------

def _dominating_delay_pair(rng):
    base_a = rng.uniform(0.9, 1.3)
    base_b = base_a * rng.uniform(0.6, 0.8)
    amp = rng.uniform(0.0, 0.05)
    tau = rng.uniform(0.1, 0.25)
    sigma = rng.uniform(0.1, 0.25)
    spec = make_spec(a=f"{base_a}+{amp}*sin(t)", b=f"{base_b}+{amp}*cos(t)",
                     g=f"t-{tau}", h=f"t+{sigma}")
    # dominating equation: larger a, smaller b, wider deviations
    da = rng.uniform(0.0, 0.1)
    db = rng.uniform(0.0, 0.3) * base_b
    spec_dom = make_spec(a=f"{base_a}+{da}+{amp}*sin(t)",
                         b=f"{base_b}-{db}+{amp}*cos(t)",
                         g=f"t-{tau + rng.uniform(0.0, 0.1)}",
                         h=f"t+{sigma + rng.uniform(0.0, 0.1)}")
    return spec, spec_dom


def test_comparison_monotone_delay_family():
    rng = np.random.default_rng(33)
    window = (0.0, 25.0)
    for _ in range(10):
        spec, spec_dom = _dominating_delay_pair(rng)
        pairs = [
            (check("COR_1_2", spec_dom, window), check("COR_1_2", spec, window)),
            (check("COR_1_3", spec_dom, window), check("COR_1_3", spec, window)),
            (check("COR_1_4_REMARK", spec_dom, window), check("COR_1_4_REMARK", spec, window)),
        ]
        for dominating, dominated in pairs:
            if dominating.holds:
                assert dominated.holds


def test_comparison_monotone_advance_family():
    rng = np.random.default_rng(34)
    window = (0.0, 25.0)
    for _ in range(10):
        base_b = rng.uniform(0.9, 1.3)
        base_a = base_b * rng.uniform(0.6, 0.8)
        tau = rng.uniform(0.05, 0.15)
        sigma = rng.uniform(0.05, 0.15)
        spec = make_spec(a=f"{base_a}", b=f"{base_b}", g=f"t-{tau}", h=f"t+{sigma}")
        spec_dom = make_spec(a=f"{base_a - rng.uniform(0.0, 0.3) * base_a}",
                             b=f"{base_b + rng.uniform(0.0, 0.1)}",
                             g=f"t-{tau + rng.uniform(0.0, 0.05)}",
                             h=f"t+{sigma + rng.uniform(0.0, 0.05)}")
        for dom, sub in ((check(cid, spec_dom, window), check(cid, spec, window))
                         for cid in COR_2_X):
            if dom.holds:
                assert sub.holds


# -- certificate soundness: holding conditions construct solutions ---------------------

def test_certificates_are_constructive(ex1_spec, ex2_spec):
    window = (0.0, 12.0)
    step = 2e-3
    for spec in (ex1_spec, ex2_spec):
        certs = {
            "COR_1_2": check("COR_1_2", spec, window, step),
            "COR_1_3": check("COR_1_3", spec, window, step),
            "COR_1_4_REMARK": check("COR_1_4_REMARK", spec, window, step),
        }
        for cid, cert in certs.items():
            if not cert.holds:
                continue
            lam = (cert.witness or {}).get("lambda")
            seed = witness_candidate(cid, SampledProblem(spec, window, step), lam=lam)
            result = iterate(seed, spec, window, tol=1e-8)
            assert result.converged, cid
            assert result.max_eq_residual <= 1e-3


def test_advance_certificates_are_constructive():
    spec = make_spec(a="1.2", b="1.3", g="t-0.2", h="t+0.1")
    window = (0.0, 12.0)
    step = 2e-3
    for cid in COR_2_X:
        cert = check(cid, spec, window, step)
        if not cert.holds:
            continue
        lam = (cert.witness or {}).get("lambda")
        seed = witness_candidate(cid, SampledProblem(spec, window, step), lam=lam)
        result = iterate(seed, spec, window, tol=1e-8)
        assert result.converged, cid
        assert result.max_eq_residual <= 1e-3


# -- constant coefficients: the characteristic equation decides ----------------------

@st.composite
def _constant_specs(draw):
    """Constant coefficients a, b in {0}, [5e-324, 1e-3], [1e-3, 2] or
    [2, 1e3] of the four sign patterns, with deviations tau, sigma in {0},
    [5e-324, 1e-3], [1e-3, 1] or [1, 10]. Products of a tiny coefficient and a
    deviation underflow, as in test_charroots.py's
    test_roots_survive_an_underflowing_slope, and so do ratios of envelope
    bounds, as in test_cli.py's
    test_check_survives_an_envelope_ratio_that_underflows."""
    coef = st.one_of(st.just(0.0), st.floats(5e-324, 1e-3), st.floats(1e-3, 2.0),
                     st.floats(2.0, 1e3))
    rate = st.one_of(st.just(0.0), st.floats(5e-324, 1e-3), st.floats(1e-3, 1.0),
                     st.floats(1.0, 10.0))
    pattern = draw(st.sampled_from([(1, -1), (-1, 1), (1, 1), (-1, -1)]))
    return draw(coef), draw(coef), draw(rate), draw(rate), pattern


def test_no_certificate_holds_where_every_solution_oscillates():
    """Every solution of x' + d1 a x(t - tau) + d2 b x(t + sigma) = 0 with
    constant coefficients oscillates if and only if F(l) = -l + d1 a e^{l tau}
    + d2 b e^{-l sigma} has no real root (Ladas & Stavroulakis, J. Differential
    Equations 44, 1982). A certificate that holds where _real_roots finds no
    root is an overclaim. The roots of COR_1_3 and COR_2_3 must be roots of F,
    the latter with its sign flipped (its convention is plus_exponent)."""
    table = {}  # pattern -> [specs, with a real root, certified]
    faults = []

    @seed(20232)
    @settings(max_examples=200, deadline=None, database=None)
    @given(_constant_specs())
    @example((5e-324, 1e3, 0.2, 0.3, (-1, 1)))  # a1/b2 underflows in COR_3_1's log bound
    def decide(case):
        a, b, tau, sigma, (d1, d2) = case
        spec = make_spec(a=repr(a), b=repr(b), g=f"t-{tau!r}", h=f"t+{sigma!r}",
                         delta1=d1, delta2=d2)
        roots = charroots._real_roots(charroots.CharProblem(a, b, tau, sigma, d1, d2))
        held = {c.condition_id: c for c in check_all(spec, (0.0, 10.0)) if c.holds}
        row = table.setdefault(f"({d1:+d},{d2:+d})", [0, 0, 0])
        row[0] += 1
        row[1] += bool(roots)
        row[2] += bool(held)
        if held and not roots:
            faults.append(f"overclaim by {sorted(held)}: {case}")
        for cid, sign in (("COR_1_3", 1.0), ("COR_2_3", -1.0)):
            if cid in held:
                lam = sign * held[cid].witness["lambda"]
                if not any(abs(r - lam) <= 1e-9 * max(1.0, abs(lam)) for r in roots):
                    faults.append(f"{cid}'s root {lam!r} is not among {roots}: {case}")

    decide()
    lines = ["pattern  specs  nonoscillatory  certified", *(
        f"{p:7}  {n:5}  {k:14}  {c:9}" for p, (n, k, c) in sorted(table.items()))]
    assert not faults and len(table) == 4, "\n".join(faults + lines)


# -- master runner ----------------------------------------------------------------------

# reports list certificates in this order, and their goldens with them
CATALOG_ORDER = (
    "COR_1_2", "COR_1_3", "COR_1_4_REMARK", "COR_1_5", "COR_1_6",
    "COR_2_2", "COR_2_3", "COR_2_4_REMARK", "COR_2_5",
    "THM_A_EXPLICIT", "THM_B_EXPLICIT",
    "COR_3_1_C1", "COR_3_1_C2", "SYS_30_FEASIBLE",
)


def test_catalog_order_is_fixed():
    assert ALL_CONDITION_IDS == CATALOG_ORDER


@pytest.mark.parametrize("overrides", [
    EXAMPLES["ex1"],
    EXAMPLES["ex2"],
    EXAMPLES["ex3"],
    dict(a="0.3", b="0.1", g="t-0.4", h="t+0.2", delta2=1),
    dict(a="0.3", b="0.1", g="t-0.4", h="t+0.2", delta1=-1, delta2=-1),
], ids=["ex1", "ex2", "ex3", "plus-plus", "minus-minus"])
def test_check_matches_check_all_on_every_condition(overrides):
    spec = make_spec(**overrides)
    by_id = {c.condition_id: c for c in check_all(spec, WINDOW)}
    for cid, cert in by_id.items():
        case = criteria._REFINES.get(cid)
        if case and not any(by_id[b].holds for b in criteria._FAMILIES[case]):
            continue  # check_all gates this refinement behind its failing bases
        assert check(cid, spec, WINDOW) == cert, cid


def test_check_all_order_and_routing(ex1_spec):
    certs = check_all(ex1_spec, WINDOW)
    assert tuple(c.condition_id for c in certs) == ALL_CONDITION_IDS
    by_id = {c.condition_id: c for c in certs}
    assert by_id["COR_1_2"].holds
    assert by_id["COR_1_3"].holds
    assert by_id["THM_A_EXPLICIT"].verdict == "inapplicable"
    assert by_id["SYS_30_FEASIBLE"].verdict == "inapplicable"
    assert "reason" in by_id["SYS_30_FEASIBLE"].witness


@pytest.mark.parametrize("overrides", [
    EXAMPLES["ex3"],
    dict(a="0.3", b="0.1", g="t-0.4", h="t+0.2", delta2=1),
    dict(a="0.3", b="0.1", g="t-0.4", h="t+0.2", delta1=-1),
], ids=["minus-plus", "plus-plus", "minus-minus"])
def test_check_all_order_for_the_other_sign_patterns(overrides):
    certs = check_all(make_spec(**overrides), WINDOW)
    assert tuple(c.condition_id for c in certs) == ALL_CONDITION_IDS


# (+,-) constant specs whose characteristic function has no real root: the gap
# integral diverges, but no base certificate of that case holds
_REFINEMENT_ONLY = {
    "delay": dict(a="1.8160707492126158", b="1.0896741165408745",
                  g="t-0.4014528289067837", h="t+0.039266814684880864"),
    "advance": dict(a="1.0896741165408745", b="1.8160707492126158",
                    g="t-0.039266814684880864", h="t+0.4014528289067837"),
}


@pytest.mark.parametrize("case, refinements, bases", [
    ("delay", ("COR_1_5", "COR_1_6"), "COR_1_2/COR_1_3/COR_1_4_REMARK"),
    ("advance", ("COR_2_5",), "COR_2_2/COR_2_3/COR_2_4_REMARK"),
], ids=["delay", "advance"])
def test_check_all_refinements_need_a_base_certificate(case, refinements, bases):
    spec = make_spec(**_REFINEMENT_ONLY[case])
    certs = check_all(spec, (0.0, 100.0))
    assert not any(c.holds for c in certs)
    by_id = {c.condition_id: c for c in certs}
    for cid in refinements:
        assert by_id[cid].verdict == "inapplicable"
        assert by_id[cid].witness["reason"] == f"needs one of {bases} to hold"
    # called on its own, the divergence check keeps reporting the integral
    assert check(refinements[0], spec, (0.0, 100.0)).holds


def test_check_all_keeps_refinements_behind_a_holding_base(ex2_spec):
    by_id = {c.condition_id: c for c in check_all(ex2_spec, (0.0, 100.0))}
    assert by_id["COR_1_2"].holds
    assert by_id["COR_1_5"] == check("COR_1_5", ex2_spec, (0.0, 100.0))
    assert by_id["COR_1_6"] == check("COR_1_6", ex2_spec, (0.0, 100.0))


def test_check_all_example3(ex3_spec):
    certs = check_all(ex3_spec, WINDOW)
    by_id = {c.condition_id: c for c in certs}
    assert by_id["SYS_30_FEASIBLE"].holds
    assert by_id["COR_3_1_C1"].verdict == "fails_on_window"
    assert by_id["COR_1_2"].verdict == "inapplicable"


def test_check_all_same_sign_pattern():
    spec = make_spec(a="0.3", b="0.1", g="t-0.4", h="t+0.2", delta2=1)
    by_id = {c.condition_id: c for c in check_all(spec, WINDOW)}
    assert by_id["THM_A_EXPLICIT"].holds
    assert by_id["THM_B_EXPLICIT"].verdict == "inapplicable"
    assert by_id["COR_1_2"].verdict == "inapplicable"


def test_subequation_note(ex1_spec):
    note = subequation_one_over_e_note(check_all(ex1_spec, (0.0, 100.0)))
    assert note["delay_integral_sup"] == pytest.approx(0.42, abs=1e-12)
    assert note["advance_integral_sup"] == pytest.approx(0.39, abs=1e-12)
    assert not note["delay_certified"]
    assert not note["advance_certified"]


def test_subequation_note_needs_the_two_applicable_remarks(ex3_spec):
    with pytest.raises(ValueError, match="COR_1_4_REMARK"):
        subequation_one_over_e_note(check_all(ex3_spec, (0.0, 10.0)))
    with pytest.raises(ValueError, match="COR_1_4_REMARK"):
        subequation_one_over_e_note([])


def test_check_all_samples_the_window_once(ex2_spec, monkeypatch):
    built = []

    class Counting(criteria.SampledProblem):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(criteria, "SampledProblem", Counting)
    certs = check_all(ex2_spec, (0.0, 30.0))
    assert len(built) == 1
    assert [c.condition_id for c in certs] == list(ALL_CONDITION_IDS)


# -- work counts: what one check_all builds and places -------------------------

@pytest.mark.parametrize("overrides, gap_builds", [
    (dict(a="1", b="3"), 0),  # no base holds: COR_2_5 is gated, COR_1_x fail dominance
    (EXAMPLES["ex1"], 1),     # COR_1_2 holds: COR_1_5 and COR_1_6 share one gap build
], ids=["no-base-holds", "cor-1-2-holds"])
def test_check_all_builds_and_places_only_what_it_reads(overrides, gap_builds,
                                                         monkeypatch):
    builds, placements = [], []
    build, place = CumulativeIntegral.__init__, GridPoints.__init__
    monkeypatch.setattr(CumulativeIntegral, "__init__",
                        lambda self, f: builds.append(f) or build(self, f))
    monkeypatch.setattr(GridPoints, "__init__",
                        lambda self, *args: placements.append(args) or place(self, *args))
    certs = check_all(make_spec(**overrides), WINDOW)
    sp = SampledProblem(make_spec(**overrides), WINDOW, 1e-3)
    window_grid = [f for f in builds if f.t_start == WINDOW[0]]
    # a and b on one widened grid, where every window node of ts, g and h is
    # placed once, block by block (the window is two blocks)
    assert len(builds) == 2 + gap_builds and len(window_grid) == gap_builds
    widened = {(f.t_start, f.step, len(f.values)) for f in builds[:2]}
    assert len(widened) == 1
    blocks = -(-sp.ts.size // CHUNK)
    assert blocks == 2
    assert [args[:3] for args in placements[:3 * blocks]] == list(widened) * (3 * blocks)
    for k, t in enumerate((sp.ts, sp.g, sp.h)):
        placed = np.concatenate([args[3] for args in placements[k:3 * blocks:3]])
        np.testing.assert_array_equal(placed, t)
    # the gap integral at t1 and the four checkpoints, in one placement
    assert len(placements) == 3 * blocks + gap_builds
    assert all(args[:3] == (WINDOW[0], 1e-3, sp.ts.size) and np.size(args[3]) == 5
               for args in placements[3 * blocks:])
    assert any(c.holds for c in certs) == bool(gap_builds)


def test_check_all_holds_a_bounded_working_set(ex2_spec):
    """The traced peak of check_all on ex2 over (0, 100), in window-sized float
    arrays: at the peak, the five samples, the two cumulative integrals the
    deviated sups are reduced from, and block-sized buffers (11.76; 14.45 while
    the four deviated integrals were kept as window-sized arrays, 18.06 when
    node sums and placements were full-length)."""
    check_all(ex2_spec, (0.0, 10.0))  # anything built once per process
    n = grid_cells(0.0, 100.0, 1e-3) + 1
    assert peak_window_arrays(lambda: check_all(ex2_spec, (0.0, 100.0)), n) <= 12


def test_check_all_on_one_block_holds_a_bounded_working_set(ex2_spec):
    """The same on ex2 over (0, 25), the study's size, where the window is one
    block and the block buffers are window-sized (17.56)."""
    check_all(ex2_spec, (0.0, 10.0))
    n = grid_cells(0.0, 25.0, 1e-3) + 1
    assert peak_window_arrays(lambda: check_all(ex2_spec, (0.0, 25.0)), n) <= 17.6


# -- check_all against the loop it replaced --------------------------------------

def _divergence_as_first_written(sp, condition_id):
    """criteria._divergence before the gap integrals were shared: a fresh
    cumulative integral per refinement, evaluated point by point."""
    window = sp.window
    delay_side = condition_id in ("COR_1_5", "COR_1_6")
    gap = sp.a - sp.b if delay_side else sp.b - sp.a
    if float(np.min(gap)) < -criteria._SLACK:
        need = "a(t) >= b(t)" if delay_side else "b(t) >= a(t)"
        return criteria._inapplicable(condition_id, window,
                                      f"dominance hypothesis {need} fails on the window")
    t1, T = window
    cum = CumulativeIntegral(GridFunction(t1, sp.step, gap))
    checkpoints = tuple(t1 + k * (T - t1) / 4.0 for k in (1, 2, 3, 4))
    integrals = tuple(float(cum(c) - cum(t1)) for c in checkpoints)
    increasing = all(b > a for a, b in zip(integrals, integrals[1:]))
    ok = increasing and integrals[-1] > criteria._DIVERGENCE_THRESHOLD
    witness = {"checkpoints": tuple(zip(checkpoints, integrals)),
               "threshold": criteria._DIVERGENCE_THRESHOLD}
    if condition_id == "COR_1_6":
        sup, t_at = criteria._sup_witness(sp.ts, deviated_as_first_written(sp)[0])
        witness["sup_delay_integral"] = sup
        ok = ok and sup <= criteria.ONE_OVER_E + criteria._SLACK
    return criteria.Certificate(condition_id, criteria.HOLDS if ok else criteria.FAILS,
                                window, witness, (CAVEAT_WINDOW_LIMITED,))


def _check_all_as_first_written(spec, window, step=1e-3):
    """check_all before gated refinements were skipped: every row runs, and a
    refinement without a holding base is replaced afterwards."""
    sp = SampledProblem(spec, window, step)
    out = {}
    for cid in criteria._CHECKS:
        if cid in criteria._REFINES and spec.sign_pattern == (1, -1):
            cert = _divergence_as_first_written(sp, cid)
        else:
            cert = criteria._run(cid, sp)
        case = criteria._REFINES.get(cid)
        bases = criteria._FAMILIES[case] if case else ()
        if bases and cert.verdict != criteria.INAPPLICABLE and not any(
                out[b].holds for b in bases):
            cert = criteria._inapplicable(cid, sp.window,
                                          f"needs one of {'/'.join(bases)} to hold")
        out[cid] = cert
    return list(out.values())


@st.composite
def _dominance_specs(draw):
    """Seeded (+,-) specs, constant or periodic, with a >= b or b >= a."""
    big, small = draw(st.floats(0.2, 2.0)), draw(st.floats(0.0, 1.0))
    small = max(min(small, big - draw(st.floats(0.0, 0.3))), 0.0)
    amp = draw(st.sampled_from([0.0, 0.0, 0.02, 0.1]))
    # periodic parts that keep the dominant coefficient on top
    dom, sub = (f"{big!r}+{amp!r}*sin(t)", f"{max(small - amp, 0.0)!r}+{amp!r}*cos(t)")
    a, b = (dom, sub) if draw(st.booleans()) else (sub, dom)
    tau, sigma = draw(st.floats(0.0, 0.6)), draw(st.floats(0.0, 0.6))
    wiggle = draw(st.sampled_from([0.0, 0.05]))
    g = f"t-{tau + wiggle!r}-{wiggle!r}*cos(t)"
    h = f"t+{sigma + wiggle!r}+{wiggle!r}*sin(t)"
    return make_spec(a=a, b=b, g=g, h=h), (0.0, draw(st.sampled_from([6.0, 25.0, 60.0])))


@seed(20141)
@settings(max_examples=60, deadline=None, database=None)
@given(_dominance_specs())
def test_check_all_matches_the_loop_that_ran_every_refinement(case):
    spec, window = case
    got, want = check_all(spec, window), _check_all_as_first_written(spec, window)
    assert len(got) == len(want)
    for new, old in zip(got, want):
        for field in ("condition_id", "verdict", "window", "witness", "caveats"):
            assert repr(getattr(new, field)) == repr(getattr(old, field)), (
                new.condition_id, field)
