import io
import math

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
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


def test_truncation_flag():
    rs = find_real_roots(ex1_problem(), max_roots=2)
    assert rs.truncated
    assert len(rs.roots) == 2


def test_tangency_suspected_flag():
    # coefficient tuned so the curve dips to ~1e-7 above zero near l = 1.833
    # (tangency at a = 1.4904737285986343 for tau = sigma = 0.3, b = 1.3)
    lam_t = 1.8332069502372645
    a = 1.4904737285986343 + 1e-7 * math.exp(-0.3 * lam_t)
    p = CharProblem(a, 1.3, 0.3, 0.3, 1, -1, "minus_exponent")
    rs = find_real_roots(p)
    assert all(abs(r - lam_t) > 0.5 for r in rs.roots)  # no sign change there
    assert any(abs(s - lam_t) < 0.01 for s in rs.tangency_suspected)


def test_guarded_exponentials_no_overflow():
    p = CharProblem(5.0, 5.0, 5.0, 5.0, 1, -1, "minus_exponent")
    vals = p.value(np.linspace(-60.0, 60.0, 1001))
    assert np.all(np.isfinite(vals))


def test_roots_csv():
    rs = find_real_roots(ex1_problem())
    buf = io.StringIO()
    write_roots_csv(rs, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "root,residual,class"
    assert len(lines) == 4
    assert lines[1].endswith("growing")


# -- the scan against its fancy-indexed predecessor ------------------------------

def _fancy_index_scan(p: CharProblem, scan=charroots.DEFAULT_SCAN,
                      max_roots: int = 32) -> CharRootSet:
    """The scan as first written (sign products, an index array and fancy-indexed
    neighbours), kept as the oracle the sliced scan must reproduce exactly."""
    lo, hi = scan
    if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
        raise ValueError("scan interval must be finite and nonempty")
    spans = (hi - lo) / charroots._SCAN_STEP
    check_grid_size(spans, f"a scan over [{lo:g}, {hi:g}] at step {charroots._SCAN_STEP:g}")
    n = int(math.ceil(spans)) + 1
    grid = np.linspace(lo, hi, n)
    vals = p.value(grid)

    roots: list[float] = []
    exact = np.flatnonzero(vals == 0.0)
    roots.extend(float(grid[i]) for i in exact)
    change = np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0.0)
    for i in change:
        roots.append(charroots._bisect(p, float(grid[i]), float(grid[i + 1])))
    roots.sort()

    deduped: list[float] = []
    for r in roots:
        if not deduped or r - deduped[-1] > 1e-9:
            deduped.append(r)

    truncated = len(deduped) > max_roots
    deduped = deduped[:max_roots]

    absv = np.abs(vals)
    interior = np.arange(1, n - 1)
    local_min = (absv[interior] <= absv[interior - 1]) & (absv[interior] <= absv[interior + 1])
    small = absv[interior] < charroots._TANGENCY_DIP
    same_sign = ((vals[interior - 1] > 0) == (vals[interior] > 0)) & \
                ((vals[interior + 1] > 0) == (vals[interior] > 0)) & (vals[interior] != 0.0)
    sus = grid[interior[local_min & small & same_sign]]
    sus = tuple(float(s) for s in sus
                if all(abs(s - r) > 10 * charroots._SCAN_STEP for r in deduped))

    residuals = tuple(abs(p.value(r)) for r in deduped)
    tags = tuple(charroots._classify_exponent(p.solution_exponent(r)) for r in deduped)
    return CharRootSet(tuple(deduped), residuals, tags, (lo, hi), truncated, sus)


_COEFFICIENTS = st.one_of(st.just(0.0), st.floats(0.0, 5.0),
                          st.sampled_from([1e10, 1e100, 1e300]), st.floats(0.0, 1e300))
_SHIFTS = st.one_of(st.just(0.0), st.floats(0.0, 3.0))


@st.composite
def _scan_cases(draw):
    p = CharProblem(draw(_COEFFICIENTS), draw(_COEFFICIENTS), draw(_SHIFTS), draw(_SHIFTS),
                    draw(st.sampled_from([-1, 1])), draw(st.sampled_from([-1, 1])),
                    draw(st.sampled_from(["plus_exponent", "minus_exponent"])))
    kw = {}
    if draw(st.booleans()):
        lo = draw(st.floats(-80.0, 70.0))
        kw["scan"] = (lo, lo + draw(st.floats(0.01, 40.0)))
    if draw(st.booleans()):
        kw["max_roots"] = draw(st.integers(1, 3))
    return p, kw


# a*tau = 1/e: the pure-delay double root l = 1/tau
_DOUBLE = CharProblem(1.0 / (math.e * 0.3), 0.0, 0.3, 0.0, 1, -1, "minus_exponent")
# the near-tangency of test_tangency_suspected_flag
_NEAR = CharProblem(1.4904737285986343 + 1e-7 * math.exp(-0.3 * 1.8332069502372645),
                    1.3, 0.3, 0.3, 1, -1, "minus_exponent")
# a double root at l = 2^20, where rounding leaves F exactly 0 or tied between nodes
_FLAT = CharProblem(2.0**20 / math.e, 0.0, 2.0**-20, 0.0, 1, -1, "minus_exponent")
# ex1 retuned to cross 1e-7 past or before the node l = 3: the root max_roots=2 drops
_NODE = [CharProblem(a, 1.3, 0.3, 0.3, 1, -1, "minus_exponent")
         for a in (1.4345975250822427, 1.4345975427374764)]


@seed(20091)
@settings(max_examples=80, deadline=None, database=None)
@given(_scan_cases())
@example((_DOUBLE, {}))
@example((_NEAR, {}))
@example((ex1_problem(), {"max_roots": 2}))
@example((CharProblem(1e300, 1e300, 1.0, 1.0, 1, -1, "minus_exponent"), {}))
@example((_FLAT, {"scan": (2.0**20 - 0.05, 2.0**20 + 0.05), "max_roots": 3}))
@example((_NODE[0], {"max_roots": 2}))
@example((_NODE[1], {"max_roots": 2}))
def test_scan_matches_the_fancy_indexed_scan_exactly(case):
    p, kw = case
    # repr round-trips every non-nan float64, so equal reprs mean equal bit patterns
    assert repr(find_real_roots(p, **kw)) == repr(_fancy_index_scan(p, **kw))
