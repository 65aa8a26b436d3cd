import io
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, seed, settings
from hypothesis import strategies as st

from mixedde import charroots
from mixedde.charroots import (CharProblem, CharRootSet, find_real_roots,
                               positive_root_exists, write_roots_csv)
from mixedde.gridfn import check_grid_size

from conftest import EX1_ROOTS


def ex1_problem() -> CharProblem:
    return CharProblem(1.4, 1.3, 0.3, 0.3, 1, -1, "minus_exponent")


def test_example1_three_roots():
    rs = find_real_roots(ex1_problem())
    assert len(rs.roots) == 3
    for found, expected in zip(rs.roots, EX1_ROOTS):
        assert found == pytest.approx(expected, abs=1e-3)
    assert all(r <= 1e-10 for r in rs.residuals)
    assert rs.classifications == ("growing", "decaying", "decaying")
    assert not rs.truncated


def test_zero_coefficients_single_root():
    for convention in ("minus_exponent", "plus_exponent"):
        rs = find_real_roots(CharProblem(0.0, 0.0, 0.5, 0.5, 1, -1, convention))
        assert rs.roots == (0.0,)
        assert rs.classifications == ("constant",)


def test_a_walk_that_lands_on_a_root_returns_it_from_either_end():
    # F(l) = 1 - l and -1 - l: the walk from 0 along G(x) = F(-x) steps onto
    # its zero, which is then the first or the second end of the bracket
    for p, root in ((CharProblem(1.0, 0.0, 0.0, 0.0, 1, -1, "minus_exponent"), 1.0),
                    (CharProblem(0.0, 1.0, 0.0, 0.0, 1, -1, "minus_exponent"), -1.0)):
        rs = find_real_roots(p)
        assert rs.roots == (root,) and rs.residuals == (0.0,)


def test_mixed_pattern_has_root():
    # delta1=-1, delta2=+1: the function is strictly increasing from -inf to +inf
    p = CharProblem(2.0, 1.0, 0.5, 0.5, -1, 1, "plus_exponent")
    rs = find_real_roots(p)
    assert len(rs.roots) == 1
    assert rs.roots[0] == pytest.approx(0.4066110115124433, abs=1e-6)
    assert rs.classifications == ("growing",)  # b < a grows


def test_mixed_pattern_decaying_when_b_dominates():
    p = CharProblem(1.0, 2.0, 0.5, 0.5, -1, 1, "plus_exponent")
    rs = find_real_roots(p)
    assert "decaying" in rs.classifications
    assert rs.roots[0] == pytest.approx(-0.4066110115124433, abs=1e-6)


def test_positive_root_cases():
    assert positive_root_exists(ex1_problem()) == pytest.approx(EX1_ROOTS[1], abs=1e-3)
    # pure delay past the 1/e boundary: a*tau*e = 1.4*0.3*e > 1, no positive root
    none = positive_root_exists(CharProblem(1.4, 0.0, 0.3, 0.0, 1, -1, "minus_exponent"))
    assert none is None
    # pure advance within the boundary: b*sigma*e <= 1
    lam = positive_root_exists(CharProblem(0.0, 1.0, 0.0, 0.3, 1, -1, "plus_exponent"))
    assert lam == pytest.approx(1.6313407572673833, abs=1e-6)


def test_convention_duality():
    rng = np.random.default_rng(11)
    for _ in range(25):
        a, b, tau, sigma = rng.uniform(0.05, 4.0, size=4)
        d1, d2 = rng.choice([-1, 1]), rng.choice([-1, 1])
        plus = find_real_roots(CharProblem(a, b, tau, sigma, d1, d2, "plus_exponent"))
        minus = find_real_roots(CharProblem(a, b, tau, sigma, d1, d2, "minus_exponent"))
        assert len(plus.roots) == len(minus.roots)
        for rp, rm in zip(plus.roots, reversed(minus.roots)):
            assert abs(rp + rm) <= 1e-10 * max(1.0, abs(rp))


def test_root_residuals_random():
    rng = np.random.default_rng(12)
    for _ in range(40):
        a, b, tau, sigma = rng.uniform(0.0, 5.0, size=4)
        p = CharProblem(a, b, tau, sigma, -1, 1, "plus_exponent")
        rs = find_real_roots(p)
        assert len(rs.roots) >= 1
        assert all(res <= 1e-10 for res in rs.residuals)


def test_classify_root_zero_constant():
    p = CharProblem(1.0, 1.0, 0.2, 0.2, -1, 1, "plus_exponent")
    rs = find_real_roots(p)
    assert 0.0 in rs.roots  # a = b makes lambda = 0 a root
    assert rs.classifications[rs.roots.index(0.0)] == "constant"


def test_guarded_exponentials_no_overflow():
    p = CharProblem(5.0, 5.0, 5.0, 5.0, 1, -1, "minus_exponent")
    for lam in np.linspace(-60.0, 60.0, 1001).tolist():
        assert math.isfinite(p.value(lam))


def test_value_is_a_python_float_and_keeps_its_edge_cases():
    p = ex1_problem()
    for lam in (1, 1.0, np.float64(1.0)):
        got = p.value(lam)
        assert type(got) is float and got == p.value(1.0)
    # l - b*e^{l*sigma} at l = inf is inf - inf
    assert math.isnan(CharProblem(1.0, 1.0, 1.0, 1.0, 1, -1, "plus_exponent").value(math.inf))
    # b = 0 adds 0 where e^{-l*sigma} = e^{800} overflows, not 0*inf = nan
    assert CharProblem(1.0, 0.0, 0.0, 2.0, -1, 1, "minus_exponent").value(-400.0) == 399.0


def test_roots_csv():
    rs = find_real_roots(ex1_problem())
    buf = io.StringIO()
    write_roots_csv(rs, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "root,residual,class"
    assert len(lines) == 4
    assert lines[1].endswith("growing")


# -- the roots against the scan they replaced -------------------------------------

def _char_value(p: CharProblem, lam) -> np.ndarray:
    """F on an array, written out apart from CharProblem.value. A zero
    coefficient adds 0, also where its exponential is inf."""
    lam = np.asarray(lam, dtype=float)
    s = 1.0 if p.convention == "plus_exponent" else -1.0
    out = s * lam
    with np.errstate(over="ignore", invalid="ignore"):
        if p.a:
            out = out + p.delta1 * p.a * np.exp(-s * lam * p.tau)
        if p.b:
            out = out + p.delta2 * p.b * np.exp(s * lam * p.sigma)
    return out


_SCAN_STEP = 1e-3
_DEDUPE = 1e-9


def _scan_grid(scan) -> np.ndarray:
    lo, hi = scan
    spans = (hi - lo) / _SCAN_STEP
    check_grid_size(spans, f"a scan over [{lo:g}, {hi:g}] at step {_SCAN_STEP:g}")
    return np.linspace(lo, hi, int(math.ceil(spans)) + 1)


def _fancy_index_scan(p: CharProblem, scan=charroots.DEFAULT_SCAN) -> CharRootSet:
    """The sign-change scan as first written (sign products, an index array,
    bisection of each bracket and a 1e-9 dedupe), kept as the oracle that the
    roots inside its window must match."""
    lo, hi = scan
    grid = _scan_grid(scan)
    vals = _char_value(p, grid)

    roots: list[float] = []
    exact = np.flatnonzero(vals == 0.0)
    roots.extend(float(grid[i]) for i in exact)
    change = np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0.0)
    for i in change:
        roots.append(charroots._bisect(p.value, float(grid[i]), float(grid[i + 1])))
    roots.sort()

    deduped: list[float] = []
    for r in roots:
        if not deduped or r - deduped[-1] > _DEDUPE:
            deduped.append(r)

    residuals = tuple(abs(p.value(r)) for r in deduped)
    tags = tuple(charroots._classify_exponent(p.solution_exponent(r)) for r in deduped)
    return CharRootSet(tuple(deduped), residuals, tags, (lo, hi))


_COEFFICIENTS = st.one_of(st.just(0.0), st.floats(0.0, 5.0),
                          st.sampled_from([1e10, 1e100, 1e300]), st.floats(0.0, 1e300))
_SHIFTS = st.one_of(st.just(0.0), st.floats(0.0, 3.0))


@st.composite
def _scan_cases(draw):
    p = CharProblem(draw(_COEFFICIENTS), draw(_COEFFICIENTS), draw(_SHIFTS), draw(_SHIFTS),
                    draw(st.sampled_from([-1, 1])), draw(st.sampled_from([-1, 1])),
                    draw(st.sampled_from(["plus_exponent", "minus_exponent"])))
    scan = charroots.DEFAULT_SCAN
    if draw(st.booleans()):
        lo = draw(st.floats(-80.0, 70.0))
        scan = (lo, lo + draw(st.floats(0.01, 40.0)))
    return p, scan


# a*tau = 1/e: the pure-delay double root l = 1/tau
_DOUBLE = CharProblem(1.0 / (math.e * 0.3), 0.0, 0.3, 0.0, 1, -1, "minus_exponent")
# a near-tangency: F dips to ~1e-7 above zero at l = 1.833 (it touches zero at
# a = 1.4904737285986343 for tau = sigma = 0.3, b = 1.3)
_NEAR = CharProblem(1.4904737285986343 + 1e-7 * math.exp(-0.3 * 1.8332069502372645),
                    1.3, 0.3, 0.3, 1, -1, "minus_exponent")
# a double root at l = 2^20, where rounding leaves F exactly 0 or tied between nodes
_FLAT = CharProblem(2.0**20 / math.e, 0.0, 2.0**-20, 0.0, 1, -1, "minus_exponent")
# ex1 retuned to cross 1e-7 past or before the node l = 3
_NODE = [CharProblem(a, 1.3, 0.3, 0.3, 1, -1, "minus_exponent")
         for a in (1.4345975250822427, 1.4345975427374764)]


@seed(20091)
@settings(max_examples=80, deadline=None, database=None)
@given(_scan_cases())
@example((ex1_problem(), charroots.DEFAULT_SCAN))
@example((CharProblem(1e300, 1e300, 1.0, 1.0, 1, -1, "minus_exponent"), charroots.DEFAULT_SCAN))
@example((_NODE[0], charroots.DEFAULT_SCAN))
@example((_NODE[1], charroots.DEFAULT_SCAN))
# roots on the window's edge and within rounding of a node, where F reads exactly 0
# or changes sign in the neighbouring cell
@example((CharProblem(0.0, 0.12805124506308443, 0.0, 0.0, -1, -1, "plus_exponent"),
          (0.12805124506308443, 1.1280512450630844)))
@example((CharProblem(1.0, 1.0, 0.0, 0.0, -1, 1, "plus_exponent"), (1.28e-90, 1.0)))
@example((CharProblem(0.0, 2.2250738585e-313, 0.0, 0.0, -1, -1, "minus_exponent"),
          charroots.DEFAULT_SCAN))
def test_roots_match_the_fancy_indexed_scan_within_its_dedupe_width(case):
    p, scan = case
    lo, hi = scan
    # the scan takes a node where F rounds to 0 for a root: on a flat stretch it
    # takes each (test_cancellation_to_zero_gives_the_root_of_the_exact_function),
    # and at an edge it may take a root that lies just outside the window
    vals = _char_value(p, _scan_grid(scan))
    assume(not np.any((vals[:-1] == 0.0) & (vals[1:] == 0.0)))
    got, want = find_real_roots(p, scan), _fancy_index_scan(p, scan)
    near = find_real_roots(p, (lo - _DEDUPE, hi + _DEDUPE))
    assert got.roots == tuple(r for r in near.roots if lo <= r <= hi)
    assert got.brackets_scanned == want.brackets_scanned
    assert len(near.roots) == len(want.roots), (near.roots, want.roots)
    assert near.classifications == want.classifications
    for r, w in zip(near.roots, want.roots):
        assert abs(r - w) <= _DEDUPE, (r, w)


def _term_sizes(p: CharProblem, lam):
    """|l| + a*e^{..} + b*e^{..}: the size of the terms that cancel at a root of F."""
    s = 1.0 if p.convention == "plus_exponent" else -1.0
    size = np.abs(lam)
    with np.errstate(over="ignore"):
        for c, exponent in ((p.a, -s * lam * p.tau), (p.b, s * lam * p.sigma)):
            if c:  # a zero coefficient adds nothing, also where its exponential is inf
                size = size + c * np.exp(exponent)
    return size


@seed(20092)
@settings(max_examples=80, deadline=None, database=None)
@given(_scan_cases())
@example((_DOUBLE, charroots.DEFAULT_SCAN))
@example((_NEAR, charroots.DEFAULT_SCAN))
@example((CharProblem(0.1, 0.412, 0.00643, 0.00962, 1, -1, "plus_exponent"), (-60.0, 1e300)))
def test_roots_are_at_most_three_and_split_the_window_into_constant_sign(case):
    p, scan = case
    assert len(charroots._real_roots(p)) <= 3
    rs = find_real_roots(p, scan)
    for r, res in zip(rs.roots, rs.residuals):
        # relative to the terms that cancel: 1e300 terms leave no absolute 1e-12
        assert res <= charroots._ROOT_RESIDUAL_TARGET * max(1.0, _term_sizes(p, r))
    lo, hi = scan
    grid = np.linspace(lo, min(hi, lo + 200.0), 20001)
    vals = _char_value(p, grid)
    for left, right in zip((-math.inf, *rs.roots), (*rs.roots, math.inf)):
        between = vals[(grid > left) & (grid < right)]
        assert not (np.any(between > 0.0) and np.any(between < 0.0)), (left, right)


def test_double_near_and_flat_cases():
    # where the scan bisected no sign change it reported no root: a double root
    # now is one, and the near-tangency stays none
    rs = find_real_roots(_DOUBLE)
    assert rs.roots == pytest.approx((1 / 0.3,), abs=1e-13)
    assert rs.residuals[0] <= charroots._ROOT_RESIDUAL_TARGET
    assert all(abs(r - 1.8332069502372645) > 0.5 for r in find_real_roots(_NEAR).roots)
    # rounding leaves F flat at 2^20: one root, not each node where F reads 0
    flat = find_real_roots(_FLAT, (2.0**20 - 0.05, 2.0**20 + 0.05))
    assert len(flat.roots) == 1 and flat.residuals[0] <= 1e-9  # 1e-9: about 4 ulp of F
    assert flat.roots[0] == pytest.approx(2.0**20, abs=1e-3)


def test_cancellation_to_zero_gives_the_root_of_the_exact_function():
    # F(l) = l - 1e100 + 1e100 rounds to 0 on the whole window; the scan
    # reported its first 32 nodes, the exact F has its one root at 0
    rs = find_real_roots(CharProblem(1e100, 1e100, 0.0, 0.0, -1, 1, "plus_exponent"))
    assert rs.roots == (0.0,) and rs.residuals == (0.0,)
    # F(l) = (l - a) + b with a - b = -59 and ulp(a) = 2^-8: F reads 0 at the nodes
    # -59.001 and -59, which the scan both reported
    rs = find_real_roots(CharProblem(17592186044357.0, 17592186044416.0, 0.0, 0.0, -1, 1,
                                     "plus_exponent"))
    assert rs.roots == (-59.0,)


def test_roots_outside_the_default_window():
    # the only roots of this (+,-) problem besides 0.3134 lie at -1494.9 and 785.1
    p = CharProblem(0.1, 0.412, 0.00643, 0.00962, 1, -1, "plus_exponent")
    assert find_real_roots(p).roots == (pytest.approx(0.3134455400072051, abs=1e-12),)
    wide = find_real_roots(p, (-1e300, 1e300)).roots
    assert wide == pytest.approx((-1494.9334464302, 0.3134455400072, 785.0858434617), rel=1e-12)
    # the window only filters, so a root has the same bits in every window
    assert find_real_roots(p, (0.5, 1e300)).roots == (wide[2],)
    assert positive_root_exists(CharProblem(0.1, 0.412, 0.00643, 0.00962, 1, -1,
                                            "minus_exponent")) == -wide[0]


def test_roots_survive_an_underflowing_slope():
    # F(l) = -l - a e^{l tau} - b e^{-l sigma} is -a - b < 0 at 0 and > 0 at -0.17,
    # and falls to -inf again as l -> -inf, since b > 0: two real roots
    p = CharProblem(0.17681665460700915, 5e-324, 0.5092633485117991, 0.17681665460700915,
                    -1, -1, "minus_exponent")
    assert p.value(0.0) < 0.0 < p.value(-0.17)
    assert find_real_roots(p).roots == (pytest.approx(-0.16275232279486682, rel=1e-12),)


@pytest.mark.parametrize("args, message", [
    ((-1.0, 1.0, 0.3, 0.3, 1, -1), "coefficients a, b must be nonnegative"),
    ((1.0, -1.0, 0.3, 0.3, 1, -1), "coefficients a, b must be nonnegative"),
    ((1.0, 1.0, -0.3, 0.3, 1, -1), "tau and sigma must be nonnegative"),
    ((1.0, 1.0, 0.3, -0.3, 1, -1), "tau and sigma must be nonnegative"),
    ((1.0, 1.0, 0.3, 0.3, 0, -1), r"delta1 and delta2 must be \+1 or -1"),
    ((1.0, 1.0, 0.3, 0.3, 1, 2), r"delta1 and delta2 must be \+1 or -1"),
], ids=["a-negative", "b-negative", "tau-negative", "sigma-negative", "delta1-zero",
        "delta2-two"])
def test_char_problem_rejects_out_of_range_parameters(args, message):
    with pytest.raises(ValueError, match=message):
        CharProblem(*args, "minus_exponent")
    with pytest.raises(ValueError, match="convention must be one of"):
        CharProblem(1.0, 1.0, 0.3, 0.3, 1, -1, "no_exponent")


def test_window_whose_width_overflows_is_rejected():
    # any finite window whose width is finite is accepted, however wide
    assert find_real_roots(ex1_problem(), (0.0, 1e308)).roots == \
        find_real_roots(ex1_problem()).roots[1:]
    for scan in ((-1e308, 1e308), (0.0, math.inf), (1.0, 1.0), (math.nan, 1.0)):
        with pytest.raises(ValueError, match="scan interval"):
            find_real_roots(ex1_problem(), scan)


# -- the roots against 50-digit roots ----------------------------------------------

def _exact_root(p: CharProblem, r: float):
    """The root of F that Newton's method reaches from r, to 50 digits, and
    |F'| there."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        s = 1 if p.convention == "plus_exponent" else -1
        c1, c2 = p.delta1 * mpmath.mpf(p.a), p.delta2 * mpmath.mpf(p.b)
        tau, sigma = mpmath.mpf(p.tau), mpmath.mpf(p.sigma)
        f = lambda l: s * l + c1 * mpmath.exp(-s * l * tau) + c2 * mpmath.exp(s * l * sigma)
        df = lambda l: s * (1 - tau * c1 * mpmath.exp(-s * l * tau)
                            + sigma * c2 * mpmath.exp(s * l * sigma))
        root = mpmath.findroot(f, mpmath.mpf(r), solver="newton", df=df, verify=False)
        return root, abs(df(root))


@st.composite
def _constant_problems(draw):
    """Constant specs of the four sign patterns in both conventions, with
    coefficients of 0, in [1e-3, 5], or tiny: there |F| at the knot 0 is
    within the residual target 1e-12, and the root beside it is bisected."""
    coef = st.one_of(st.just(0.0), st.floats(1e-3, 5.0), st.floats(1e-80, 1e-10))
    return CharProblem(draw(coef), draw(coef), draw(_SHIFTS), draw(_SHIFTS),
                       draw(st.sampled_from([-1, 1])), draw(st.sampled_from([-1, 1])),
                       draw(st.sampled_from(["plus_exponent", "minus_exponent"])))


@seed(20270)
@settings(max_examples=300, deadline=None, database=None)
@given(_constant_problems())
# F = lambda - b, whose |F(0)| is within the residual target: the root b is bisected
@example(CharProblem(0.0, 1e-12, 0.0, 0.0, -1, -1, "plus_exponent"))
@example(CharProblem(0.0, 3.7856322383829267e-75, 0.0, 0.0, -1, -1, "plus_exponent"))
def test_roots_are_within_their_forward_error_bound_of_the_exact_root(p):
    # |r - r*| <= 4 eps S(r*)/|F'(r*)| + ulp(r*): F is worked out to a few
    # rounding errors of the terms that cancel, S, and bisection runs to the last bit
    for r in find_real_roots(p).roots:
        exact, slope = _exact_root(p, r)
        size = float(_term_sizes(p, float(exact)))
        if slope < 1e-6 * size:
            continue  # a near-double root: _DOUBLE pins that case
        bound = 4.0 * np.finfo(float).eps * size / float(slope) + math.ulp(float(exact))
        assert abs(float(exact - r)) <= bound, (r, exact, bound)


def test_ex1_prints_each_root_correctly_rounded():
    mpmath = pytest.importorskip("mpmath")
    p = ex1_problem()
    for r in find_real_roots(p).roots:
        assert f"{r:.12g}" == mpmath.nstr(_exact_root(p, r)[0], 12)
