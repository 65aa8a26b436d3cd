import io
import math

import numpy as np
import pytest

from mixedde import criteria
from mixedde.construct import iterate, witness_candidate
from mixedde.criteria import (ALL_CONDITION_IDS, CAVEAT_EQUICONTINUITY,
                              CAVEAT_WINDOW_LIMITED, check_all, check_cor_1_2,
                              check_cor_1_3, check_cor_1_4_remark, check_cor_2_x,
                              check_cor_3_1, check_divergence, check_sys30,
                              check_thm_A_explicit, check_thm_B_explicit,
                              subequation_one_over_e_note, sweep_region,
                              sys30_values)
from mixedde.model import Bounds

from conftest import EX2_I100, EX3_PROBE, EXAMPLES, make_spec

WINDOW = (0.0, 40.0)
ONE_OVER_E = 1.0 / math.e


# -- COR_1_2 -------------------------------------------------------------------

def test_cor_1_2_equality_case():
    spec = make_spec(a="0.7", b="0.7", g="t", h="t+0.4")
    cert = check_cor_1_2(spec, WINDOW)
    assert cert.holds
    assert CAVEAT_WINDOW_LIMITED in cert.caveats


def test_cor_1_2_example1(ex1_spec):
    cert = check_cor_1_2(ex1_spec, WINDOW)
    assert cert.holds
    # scalar oracle: 1.4*(e^0.42 - 1)*e^0.42 - 1.3
    assert cert.witness["sup_rhs_minus_b"] == pytest.approx(
        1.1121675896274408 - 1.3, abs=1e-6)


def test_cor_1_2_pure_delay_fails():
    spec = make_spec(a="1", b="0", g="t-1", h="t+1")
    cert = check_cor_1_2(spec, WINDOW)
    assert cert.verdict == "fails_on_window"


def test_cor_1_2_wrong_pattern(ex3_spec):
    cert = check_cor_1_2(ex3_spec, WINDOW)
    assert cert.verdict == "inapplicable"
    assert "reason" in cert.witness


# -- COR_1_3 -------------------------------------------------------------------

def test_cor_1_3_example1(ex1_spec):
    cert = check_cor_1_3(ex1_spec, WINDOW)
    assert cert.holds
    assert cert.witness["lambda"] == pytest.approx(0.5436, abs=1e-3)


def test_cor_1_3_vanishing_b_fails():
    # a*tau*e > 1 and nothing left from the advance side: no positive root
    spec = make_spec(a="1.4", b="0.000000001", g="t-0.3", h="t+0.3")
    cert = check_cor_1_3(spec, WINDOW)
    assert cert.verdict == "fails_on_window"


def test_cor_1_3_equal_coefficients_has_root():
    # a = b = 1, tau = sigma = 0.3: -l + 2 sinh(0.3 l) crosses zero at l ~ 6.13
    spec = make_spec(a="1", b="1", g="t-0.3", h="t+0.3")
    cert = check_cor_1_3(spec, WINDOW)
    assert cert.holds
    assert cert.witness["lambda"] == pytest.approx(6.128642382167871, abs=1e-3)


def test_cor_1_3_inapplicable_cases(ex3_spec):
    assert check_cor_1_3(ex3_spec, WINDOW).verdict == "inapplicable"
    # a < b somewhere: envelope hypothesis fails
    spec = make_spec(a="1", b="1.2", h="t+0.1")
    assert check_cor_1_3(spec, WINDOW).verdict == "inapplicable"
    # b identically zero: no positive lower envelope
    spec = make_spec(b="0")
    assert check_cor_1_3(spec, WINDOW).verdict == "inapplicable"


# -- COR_1_4_REMARK --------------------------------------------------------------

def test_cor_1_4_example1_fails(ex1_spec):
    cert = check_cor_1_4_remark(ex1_spec, WINDOW)
    assert cert.verdict == "fails_on_window"
    assert cert.witness["sup_delay_integral"] == pytest.approx(0.42, abs=1e-9)


def test_cor_1_4_small_delay_holds():
    spec = make_spec(a="1", b="0.5", g="t-0.3", h="t+0.3")
    cert = check_cor_1_4_remark(spec, WINDOW)
    assert cert.holds
    assert cert.witness["sup_delay_integral"] == pytest.approx(0.3, abs=1e-9)


def test_cor_1_4_boundary_holds():
    spec = make_spec(a="1", b="0.5", g=f"t-{ONE_OVER_E!r}", h="t+0.1")
    cert = check_cor_1_4_remark(spec, WINDOW)
    assert cert.holds  # the comparison is nonstrict at 1/e


# -- COR_2_x ----------------------------------------------------------------------

def test_cor_2_x_pure_advance():
    spec = make_spec(a="0", b="1", g="t-0.1", h="t+0.3")
    c22, c23, c24 = check_cor_2_x(spec, WINDOW)
    assert c24.holds  # 0.3 <= 1/e
    assert c22.verdict == "fails_on_window"  # 0 >= (e^0.3 - 1) fails
    assert c23.verdict == "inapplicable"  # needs positive lower envelope for a


def test_cor_2_3_characteristic_root():
    spec = make_spec(a="1.2", b="1.3", g="t-0.2", h="t+0.1")
    c22, c23, c24 = check_cor_2_x(spec, WINDOW)
    assert c23.holds
    assert c23.witness["lambda"] == pytest.approx(0.15804760708022156, abs=1e-3)


def test_cor_2_2_equal_coefficients_reduction():
    spec = make_spec(a="0.5", b="0.5", g="t-0.2", h="t+0.2")
    c22, _, _ = check_cor_2_x(spec, WINDOW)
    # a >= a*(e^{0.1} - 1)*e^{0.1} pointwise
    assert c22.holds


def test_cor_2_x_wrong_pattern(ex3_spec):
    assert all(c.verdict == "inapplicable" for c in check_cor_2_x(ex3_spec, WINDOW))


# -- THM_A / THM_B ------------------------------------------------------------------

def test_thm_a_pure_delay_reduction():
    spec = make_spec(a="0.5", b="0", g="t-0.4", h="t+0.1", delta2=1)
    cert = check_thm_A_explicit(spec, WINDOW)
    assert cert.holds
    assert cert.witness["sup_nested_integral"] == pytest.approx(0.2, abs=1e-9)


def test_thm_a_nested_integral():
    spec = make_spec(a="0.5", b="0.5", g="t-0.4", h="t+0.1", delta2=1)
    cert = check_thm_A_explicit(spec, WINDOW)
    assert cert.holds
    # closed form: 0.5 * 0.4 * e^{0.5*0.4}
    assert cert.witness["sup_nested_integral"] == pytest.approx(
        0.244280551632034, abs=1e-7)
    assert CAVEAT_EQUICONTINUITY in cert.caveats


def test_thm_a_fails_past_one_over_e():
    spec = make_spec(a="1", b="0", g="t-1", h="t+1", delta2=1)
    assert check_thm_A_explicit(spec, WINDOW).verdict == "fails_on_window"


def test_thm_a_pattern_guard(ex1_spec):
    assert check_thm_A_explicit(ex1_spec, WINDOW).verdict == "inapplicable"


def test_thm_b_mirror():
    spec = make_spec(a="0.5", b="0.5", g="t-0.1", h="t+0.4", delta1=-1, delta2=-1)
    cert = check_thm_B_explicit(spec, WINDOW)
    assert cert.holds
    assert cert.witness["sup_nested_integral"] == pytest.approx(
        0.244280551632034, abs=1e-7)
    assert check_thm_B_explicit(make_spec(), WINDOW).verdict == "inapplicable"


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


def test_sys30_witness_validity_random():
    rng = np.random.default_rng(31)
    found = 0
    for _ in range(40):
        a = rng.uniform(0.2, 3.0)
        b = a * rng.uniform(1.02, 1.6)
        spread_a = rng.uniform(0.0, 0.15) * a
        spread_b = rng.uniform(0.0, 0.15) * b
        bounds = Bounds(a - spread_a, a + spread_a, b - spread_b, b + spread_b,
                        rng.uniform(0.01, 0.4), rng.uniform(0.01, 0.4), WINDOW)
        cert = check_sys30(bounds)
        if cert.holds:
            found += 1
            x, y = cert.witness["x"], cert.witness["y"]
            gv, fv = sys30_values(bounds, x, y)
            assert gv - x <= 1e-9 and fv - y <= 1e-9
    assert found > 0


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


def test_sweep_region_errors():
    bounds = Bounds(1.0, 1.0, 1.0, 1.0, 0.2, 0.3, WINDOW)
    with pytest.raises(ValueError):
        sweep_region(bounds, "x", "y", ((0.0, 1.0), (0.0, 1.0)), 0.0)
    with pytest.raises(ValueError):
        sweep_region(bounds, "x", "b", ((0.0, 1.0), (0.0, 1.0)), 0.1)


# -- divergence heuristics -----------------------------------------------------------

def test_divergence_example2(ex2_spec):
    cert = check_divergence(ex2_spec, (0.0, 100.0), "COR_1_5")
    assert cert.holds
    checkpoints = dict(cert.witness["checkpoints"])
    assert checkpoints[100.0] == pytest.approx(EX2_I100, abs=1e-6)
    assert CAVEAT_WINDOW_LIMITED in cert.caveats


def test_divergence_equal_coefficients_fails():
    spec = make_spec(a="1", b="1")
    cert = check_divergence(spec, (0.0, 100.0), "COR_1_5")
    assert cert.verdict == "fails_on_window"


def test_divergence_bounded_integral_fails():
    # gap integral e^{-t} accumulates less than 1: never reaches the threshold
    spec = make_spec(a="1+exp(-1*t)", b="1")
    cert = check_divergence(spec, (0.0, 100.0), "COR_1_5")
    assert cert.verdict == "fails_on_window"


def test_divergence_cor_1_6_requires_delay_test(ex2_spec):
    # Example 2's delayed integral ~0.41 exceeds 1/e, so 1_6 fails while 1_5 holds
    cert = check_divergence(ex2_spec, (0.0, 100.0), "COR_1_6")
    assert cert.verdict == "fails_on_window"
    spec = make_spec(a="0.6", b="0.5", g="t-0.3", h="t+0.3")
    cert = check_divergence(spec, (0.0, 100.0), "COR_1_6")
    assert cert.holds  # 0.18 <= 1/e and int(a-b) = 10 > 5


def test_divergence_cor_2_5():
    spec = make_spec(a="1.325+0.025*cos(t)", b="1.375+0.025*sin(t)")
    cert = check_divergence(spec, (0.0, 100.0), "COR_2_5")
    assert cert.holds
    # dominance b >= a fails for Example-2 ordering
    cert = check_divergence(make_spec(a="1.375", b="1.325"), (0.0, 100.0), "COR_2_5")
    assert cert.verdict == "inapplicable"


def test_divergence_argument_guard(ex3_spec):
    assert check_divergence(ex3_spec, WINDOW, "COR_1_5").verdict == "inapplicable"
    with pytest.raises(ValueError):
        check_divergence(make_spec(), WINDOW, "COR_9_9")


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
            (check_cor_1_2(spec_dom, window), check_cor_1_2(spec, window)),
            (check_cor_1_3(spec_dom, window), check_cor_1_3(spec, window)),
            (check_cor_1_4_remark(spec_dom, window), check_cor_1_4_remark(spec, window)),
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
        for dom, sub in zip(check_cor_2_x(spec_dom, window),
                            check_cor_2_x(spec, window)):
            if dom.holds:
                assert sub.holds


# -- certificate soundness: holding conditions construct solutions ---------------------

def test_certificates_are_constructive(ex1_spec, ex2_spec):
    window = (0.0, 12.0)
    step = 2e-3
    for spec in (ex1_spec, ex2_spec):
        certs = {
            "COR_1_2": check_cor_1_2(spec, window, step),
            "COR_1_3": check_cor_1_3(spec, window, step),
            "COR_1_4_REMARK": check_cor_1_4_remark(spec, window, step),
        }
        for cid, cert in certs.items():
            if not cert.holds:
                continue
            lam = (cert.witness or {}).get("lambda")
            seed = witness_candidate(cid, spec, window, step, lam=lam)
            result = iterate(seed, spec, window, tol=1e-8)
            assert result.converged, cid
            assert result.max_eq_residual <= 1e-3


def test_advance_certificates_are_constructive():
    spec = make_spec(a="1.2", b="1.3", g="t-0.2", h="t+0.1")
    window = (0.0, 12.0)
    step = 2e-3
    c22, c23, c24 = check_cor_2_x(spec, window, step)
    for cid, cert in (("COR_2_2", c22), ("COR_2_3", c23), ("COR_2_4_REMARK", c24)):
        if not cert.holds:
            continue
        lam = (cert.witness or {}).get("lambda")
        seed = witness_candidate(cid, spec, window, step, lam=lam)
        result = iterate(seed, spec, window, tol=1e-8)
        assert result.converged, cid
        assert result.max_eq_residual <= 1e-3


# -- master runner ----------------------------------------------------------------------

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
