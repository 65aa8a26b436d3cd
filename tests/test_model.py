import json
import math

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from mixedde import criteria, model
from mixedde.gridfn import (CHUNK, MAX_GRID_POINTS, CumulativeIntegral, GridFunction,
                            GridPoints, grid_cells)
from mixedde.model import (_ENVELOPE_SAMPLES, _MAX_DEPTH, Bounds, CoefficientExpr,
                           ExprSyntaxError, ProblemSpec, SampledProblem, extract_bounds,
                           parse_expr, read_ivp, read_spec, validate_spec)

from conftest import (_bits, _chain_affine_parts, _chain_constant_value, _chain_eval,
                      _chain_str, deviated_as_first_written, make_spec,
                      rhs_as_first_written, spec_fields)


def test_parse_sinusoid_coefficient():
    e = parse_expr("1.375+0.025*sin(t)")
    assert e(math.pi / 2) == pytest.approx(1.4, abs=1e-15)


def test_parse_identity():
    e = parse_expr("t")
    assert e(7.25) == 7.25


def test_parse_delay_argument():
    e = parse_expr("t-0.1-0.1*cos(t)")
    assert e(0.0) == pytest.approx(-0.2, abs=1e-15)


def test_parse_precedence_and_negation():
    assert parse_expr("2+3*4")(0.0) == 14.0
    assert parse_expr("-(2+3)*4")(0.0) == -20.0
    assert parse_expr("exp(0)")(123.0) == 1.0
    assert parse_expr("1e-3*t")(2.0) == pytest.approx(2e-3)


def test_syntax_error_position():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("1+*2")
    assert err.value.position == 2
    with pytest.raises(ExprSyntaxError):
        parse_expr("sin(t")
    with pytest.raises(ExprSyntaxError):
        parse_expr("1+2)")


def test_unknown_function():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("tan(t)")
    assert "tan" in str(err.value)


def _random_expr(rng, depth=0) -> CoefficientExpr:
    t = CoefficientExpr.var_t()
    if depth >= 3 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return CoefficientExpr.const(round(rng.uniform(-5, 5), 4))
        return t
    kind = rng.choice(["add", "sub", "mul", "neg", "sin", "cos", "exp"])
    if kind in ("add", "sub", "mul"):
        return CoefficientExpr(kind, args=(_random_expr(rng, depth + 1),
                                           _random_expr(rng, depth + 1)))
    return CoefficientExpr(kind, args=(_random_expr(rng, depth + 1),))


def test_print_parse_roundtrip_evaluation():
    rng = np.random.default_rng(7)
    pts = rng.uniform(-20, 20, size=1000)
    for _ in range(40):
        e = _random_expr(rng)
        back = parse_expr(str(e))
        v1 = e(pts)
        v2 = back(pts)
        ok = np.isfinite(v1)
        assert np.all(np.abs(v1[ok] - v2[ok]) <= 1e-12 * np.maximum(1.0, np.abs(v1[ok])))


_T = CoefficientExpr.var_t()
_LEAVES = st.one_of(st.just(_T), st.floats(allow_nan=False, allow_infinity=False)
                    .map(CoefficientExpr.const))
_UNARY = ("neg", "sin", "cos", "exp")
_BINARY = ("add", "sub", "mul")


def _depth(e: CoefficientExpr) -> int:
    return 1 + max((_depth(a) for a in e.args), default=0)


@st.composite
def _chains(draw, depth: int, leaves=_LEAVES) -> CoefficientExpr:
    """A tree exactly depth levels deep: nodes stacked on a leaf, the other
    operand of each binary node a leaf."""
    node = draw(leaves)
    for _ in range(depth - 1):
        kind = draw(st.sampled_from(_UNARY + _BINARY))
        if kind in _UNARY:
            node = CoefficientExpr(kind, args=(node,))
        else:
            other = draw(_LEAVES)
            node = CoefficientExpr(kind, args=(node, other) if draw(st.booleans())
                                   else (other, node))
    return node


def _unary(kind: str, arg: CoefficientExpr) -> CoefficientExpr:
    return CoefficientExpr(kind, args=(arg,))


def _binary(kind: str, left: CoefficientExpr, right: CoefficientExpr) -> CoefficientExpr:
    return CoefficientExpr(kind, args=(left, right))


def extend(kids):
    """One more level of a random tree over the subtrees kids."""
    return st.one_of(st.builds(_unary, st.sampled_from(_UNARY), kids),
                     st.builds(_binary, st.sampled_from(_BINARY), kids, kids))


_BUSHY = st.recursive(_LEAVES, extend, max_leaves=24)


def _stack(kind: str, leaf: CoefficientExpr, depth: int) -> CoefficientExpr:
    for _ in range(depth - 1):
        leaf = CoefficientExpr(kind, args=(leaf,))
    return leaf


@settings(deadline=None, database=None)
@given(st.one_of(_BUSHY, st.integers(1, _MAX_DEPTH).flatmap(_chains)))
@example(_stack("sin", CoefficientExpr.const(-5.0), _MAX_DEPTH))  # sin(...(-5.0)...)
@example(_stack("neg", _T, _MAX_DEPTH))  # (-(-...t)), the costliest to parse back
def test_roundtrip_property_within_depth_limit(e):
    assert _depth(e) <= _MAX_DEPTH
    pts = np.linspace(-20.0, 20.0, 41)
    np.testing.assert_array_equal(parse_expr(str(e))(pts), e(pts))


# t-free subtrees, whose constants fold, and affine-plus-sinusoid trees built
# from them, which _affine_parts decomposes
_SMALL = st.floats(-50.0, 50.0).map(CoefficientExpr.const)
_T_FREE = st.recursive(_SMALL, extend, max_leaves=6)
_FOLDED = st.builds(_unary, st.sampled_from(("sin", "cos", "exp")), _T_FREE)
_SINUSOIDS = st.sampled_from((_T, _unary("sin", _T), _unary("cos", _T)))


def _scaled(factor: CoefficientExpr, term: CoefficientExpr, left: bool) -> CoefficientExpr:
    return _binary("mul", factor, term) if left else _binary("mul", term, factor)


def _linear(kids):
    return st.one_of(st.builds(_unary, st.just("neg"), kids),
                     st.builds(_binary, st.sampled_from(("add", "sub")), kids, kids))


_AFFINE = st.recursive(
    st.one_of(_FOLDED, _SINUSOIDS,
              st.builds(_scaled, st.one_of(_FOLDED, _T_FREE),
                        st.one_of(_SINUSOIDS, _BUSHY), st.booleans())),
    _linear, max_leaves=8)


def _outcome(fn, e):
    """fn(e) as bit patterns, None, or the type of the error it raised."""
    try:
        out = fn(e)
    except (ArithmeticError, ValueError) as exc:  # math.exp(1000), math.sin(inf)
        return type(exc)
    return None if out is None else _bits(out).tolist()


@seed(20091)
@settings(deadline=None, database=None, max_examples=300)
@given(st.one_of(_BUSHY, st.integers(1, _MAX_DEPTH).flatmap(_chains), _AFFINE))
@example(_unary("exp", CoefficientExpr.const(10.66)))  # np.exp and math.exp differ on some CPUs
@example(_unary("exp", CoefficientExpr.const(1000.0)))  # math.exp raises, np.exp gives inf
@example(_binary("mul", _unary("exp", CoefficientExpr.const(1000.0)), CoefficientExpr.const(0.0)))
@example(_binary("sub", _unary("neg", CoefficientExpr.const(0.0)), CoefficientExpr.const(0.0)))
def test_operator_table_matches_the_if_chains(e):
    assert str(e) == _chain_str(e)
    pts = np.linspace(-20.0, 20.0, 41)
    with np.errstate(over="ignore", invalid="ignore"):
        want, want_0d = _chain_eval(e, pts), _chain_eval(e, np.asarray(0.7))
    np.testing.assert_array_equal(_bits(e(pts)), _bits(want))
    assert _bits(e(0.7)) == _bits(float(want_0d))
    assert _outcome(model._constant_value, e) == _outcome(_chain_constant_value, e)
    assert _outcome(model._affine_parts, e) == _outcome(_chain_affine_parts, e)


def _has_t(e: CoefficientExpr) -> bool:
    return e.kind == "t" or any(_has_t(a) for a in e.args)


# t at signed zeros, past the float range and at nan, besides a plain grid
_POINTS = np.concatenate((np.linspace(-20.0, 20.0, 41),
                          (-0.0, 1e-300, 1e300, -1.7e308, math.inf, -math.inf, math.nan)))


@seed(20192)
@settings(deadline=None, database=None, max_examples=300)
@given(st.one_of(_BUSHY, st.integers(1, _MAX_DEPTH).flatmap(_chains), _AFFINE, _T_FREE))
@example(CoefficientExpr.const(2.5))
@example(_binary("mul", _unary("exp", CoefficientExpr.const(1000.0)), CoefficientExpr.const(0.0)))
@example(_binary("sub", _unary("sin", _T), _binary("mul", _T, _unary("cos", _T))))
def test_evaluation_is_the_full_leaf_evaluation_bit_for_bit(e):
    """Constant leaves evaluate as floats and each operator writes into a
    temporary of its own: the nan positions, and the bits of every other value,
    are those of the evaluator that expanded every constant leaf with np.full,
    on arrays and on 0-d input; t itself is never written (it is read-only
    here). Of two nan operands the hardware keeps one, and which one depends
    on the numpy loop, so a nan's sign and payload are not compared."""

    def assert_same(got, want):
        nan = np.isnan(want)
        np.testing.assert_array_equal(np.isnan(got), nan)
        np.testing.assert_array_equal(_bits(got[~nan]), _bits(want[~nan]))

    pts = _POINTS.copy()
    pts.setflags(write=False)
    zero_d = (0.7, -0.0, math.nan)
    with np.errstate(over="ignore", invalid="ignore"):
        want = _chain_eval(e, pts)
        want_0d = np.array([_chain_eval(e, np.asarray(x)) for x in zero_d], dtype=float)
    got = e(pts)
    assert_same(got, want)
    got_0d = [e(x) for x in zero_d]
    assert all(type(v) is float for v in got_0d)
    assert_same(np.array(got_0d), want_0d)
    if not _has_t(e):  # a fresh array of t's shape, also for a t of two axes
        grid = pts.reshape(2, -1)
        first, second = e(grid), e(grid)
        assert first.shape == grid.shape and first.flags.writeable
        assert not np.shares_memory(first, second) and not np.shares_memory(first, grid)
        assert_same(first.ravel(), want)


# over t, printing keeps every level; a negated constant at the bottom would
# parse back as one constant, a level shallower
@settings(deadline=None, database=None, max_examples=30)
@given(_chains(_MAX_DEPTH + 1, leaves=st.just(_T)))
def test_tree_past_depth_limit_rejected(e):
    with pytest.raises(ExprSyntaxError, match="deeper than"):
        parse_expr(str(e))


@pytest.mark.parametrize("terms", [101, _MAX_DEPTH])
def test_flat_sums_and_products_up_to_the_depth_limit_parse(terms):
    # a flat chain of n terms is a left-deep tree n levels deep
    assert parse_expr("+".join(["1"] * terms))(0.0) == terms
    assert parse_expr("*".join(["t"] * terms))(1.0) == 1.0
    with pytest.raises(ExprSyntaxError, match="deeper than"):
        parse_expr("+".join(["1"] * (_MAX_DEPTH + 1)))


@pytest.mark.parametrize("text, position", [
    ("(" * 400 + "1" + ")" * 400, _MAX_DEPTH),
    ("-" * 3000 + "1", 0),
    ("1.4" + "+0" * 3000, 3 + 2 * (_MAX_DEPTH - 1)),  # the '+' making it too deep
], ids=["brackets", "signs", "sum"])
def test_deep_expressions_rejected_with_position(text, position):
    with pytest.raises(ExprSyntaxError, match="deeper than") as err:
        parse_expr(text)
    assert err.value.position == position


def test_vectorized_evaluation_matches_scalar():
    e = parse_expr("exp(0.1*t)-t*cos(t)")
    ts = np.linspace(-3, 3, 11)
    vec = e(ts)
    for t, v in zip(ts, vec):
        assert e(float(t)) == pytest.approx(v, abs=1e-15)


def test_spec_sign_validation():
    t = CoefficientExpr.var_t()
    one = CoefficientExpr.const(1.0)
    with pytest.raises(ValueError):
        ProblemSpec(one, one, t, t, 2, -1, 0.0)


def test_validate_example_passes(ex1_spec):
    report = validate_spec(ex1_spec, (0.0, 100.0), 10001)
    assert report.passed
    assert len(report.checks) == 4


def test_validate_negative_coefficient():
    spec = make_spec(b="-1")
    report = validate_spec(spec, (0.0, 10.0), 101)
    bad = {c.hypothesis for c in report.failures()}
    assert bad == {"b_nonnegative"}
    fail = report.failures()[0]
    assert fail.t_violation == 0.0 and fail.value == -1.0


def test_validate_bad_delay():
    spec = make_spec(g="t+1")
    report = validate_spec(spec, (0.0, 10.0), 101)
    assert {c.hypothesis for c in report.failures()} == {"g_is_delay"}


def test_validation_monotone_in_window():
    # a violation on a wide region stays detected when the window grows
    spec = make_spec(b="sin(t)")  # negative on half of each period
    small = validate_spec(spec, (0.0, 10.0), 400)
    assert not small.passed
    for hi in (20.0, 40.0, 80.0):
        bigger = validate_spec(spec, (0.0, hi), 400)
        failed = {c.hypothesis for c in bigger.failures()}
        assert {c.hypothesis for c in small.failures()} <= failed


def test_extract_bounds_example3(ex3_spec):
    b = extract_bounds(ex3_spec, (0.0, 100.0))
    assert b.a1 == pytest.approx(1.2, abs=1e-6)
    assert b.a2 == pytest.approx(1.4, abs=1e-6)
    assert b.b1 == pytest.approx(1.6, abs=1e-6)
    assert b.b2 == pytest.approx(1.8, abs=1e-6)
    assert b.tau == pytest.approx(0.2, abs=1e-6)
    assert b.sigma == pytest.approx(0.3, abs=1e-6)
    assert b.exact


def test_extract_bounds_constant_spec():
    spec = make_spec(a="1", b="1", g="t", h="t")
    b = extract_bounds(spec, (0.0, 10.0))
    assert (b.a1, b.a2, b.b1, b.b2) == (1.0, 1.0, 1.0, 1.0)
    assert b.tau == 0.0 and b.sigma == 0.0


def test_extract_bounds_example2_short_window(ex2_spec):
    b = extract_bounds(ex2_spec, (0.0, 4 * math.pi))
    assert b.a1 == pytest.approx(1.35, abs=1e-4)
    assert b.a2 == pytest.approx(1.4, abs=1e-4)
    assert b.b1 == pytest.approx(1.3, abs=1e-4)
    assert b.b2 == pytest.approx(1.35, abs=1e-4)


def test_extract_bounds_envelope_contains_samples():
    # expression outside the closed-form family: sampled bounds plus inflation
    spec = make_spec(a="1+0.3*sin(0.7*t)*cos(t)", b="0.5",
                     g="t-0.2-0.1*sin(3*t)", h="t+0.1")
    window = (0.0, 30.0)
    b = extract_bounds(spec, window)
    assert not b.exact
    ts = np.linspace(*window, _ENVELOPE_SAMPLES)
    eps = 1e-9
    assert np.all(spec.a(ts) >= b.a1 - eps) and np.all(spec.a(ts) <= b.a2 + eps)
    assert np.all(ts - spec.g(ts) <= b.tau + eps)
    assert np.all(spec.h(ts) - ts <= b.sigma + eps)


def test_envelope_scan_over_too_many_periods_is_rejected():
    # sin and cos terms have critical points in every period of the window
    spec = make_spec(a="1.3+0.1*sin(t)", b="1.7+0.1*cos(t)", g="t-0.2", h="t+0.3",
                     delta1=-1, delta2=1)
    with pytest.raises(ValueError, match="the limit of"):
        extract_bounds(spec, (0.0, 1e12))
    # closed forms without critical points need no scan, however long the window
    spec = make_spec(a="1", b="2*t+sin(t)", g="t-0.2", h="t+0.3")
    b = extract_bounds(spec, (0.0, 1e12))
    assert (b.a1, b.a2, b.b1, b.b2) == (1.0, 1.0, 0.0, 2e12 + math.sin(1e12))
    assert b.exact


def test_bounds_invariants():
    with pytest.raises(ValueError):
        Bounds(2.0, 1.0, 0.0, 1.0, 0.1, 0.1, (0.0, 1.0))
    with pytest.raises(ValueError):
        Bounds(1.0, 2.0, 0.5, 1.0, -0.1, 0.1, (0.0, 1.0))


def test_read_spec_file(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(spec_fields(phi="exp(-t)", x0=2.0)))
    spec = read_spec(str(path))
    assert spec.sign_pattern == (1, -1)
    assert spec.a(0.0) == 1.4
    ivp = read_ivp(str(path))
    assert ivp.x0 == 2.0
    assert ivp.phi(1.0) == pytest.approx(math.exp(-1.0))


def test_read_ivp_defaults(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(spec_fields()))
    ivp = read_ivp(str(path))
    assert ivp.x0 == 1.0
    assert ivp.phi(-5.0) == 1.0


def test_read_spec_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValueError):
        read_spec(str(bad))
    missing = tmp_path / "missing.json"
    doc = spec_fields()
    del doc["h"]
    missing.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        read_spec(str(missing))
    badexpr = tmp_path / "badexpr.json"
    badexpr.write_text(json.dumps(spec_fields(a="log(t)")))
    with pytest.raises(ValueError):
        read_spec(str(badexpr))


def test_grid_sizes_and_steps_are_checked_before_allocating(ex1_spec):
    assert grid_cells(0.0, MAX_GRID_POINTS - 1.0, 1.0) == MAX_GRID_POINTS - 1
    for t_end in (MAX_GRID_POINTS, math.inf):
        with pytest.raises(ValueError, match="the limit of"):
            grid_cells(0.0, t_end, 1.0)
    with pytest.raises(ValueError, match="the limit of"):
        SampledProblem(ex1_spec, (0.0, 1e300), 1.0)
    with pytest.raises(ValueError, match="the limit of"):
        GridFunction.constant(0.0, 0.0, 1e10, 1.0)
    for step in (0.0, math.nan):
        with pytest.raises(ValueError, match="step must be positive and finite"):
            GridFunction.constant(0.0, 0.0, 1.0, step)
    with pytest.raises(ValueError, match="the limit of"):
        validate_spec(ex1_spec, (0.0, 1.0), MAX_GRID_POINTS + 1)


def test_sampled_problem_rejects_bad_steps_and_non_finite_samples(ex1_spec):
    for step in (0.0, -1e-3, math.nan, math.inf):
        with pytest.raises(ValueError, match="step must be positive and finite"):
            SampledProblem(ex1_spec, (0.0, 1.0), step)
    with pytest.raises(ValueError, match=r"a\(t\) is not finite at t=0\b"):
        SampledProblem(make_spec(a="1e400"), (0.0, 1.0), 1e-3)
    # exp(exp(t)) overflows past t = log(log(max float)) = 6.5654, which only
    # the extended grid behind the cumulative integral of a reaches
    sp = SampledProblem(make_spec(a="exp(exp(t))"), (0.0, 6.5), 1e-3)
    with pytest.raises(ValueError, match=r"a\(t\) is not finite at t=6.56"):
        sp.widened_cumulative("a")


def _sups(sp):
    """SampledProblem's four sups, in the order of _sups_of_arrays."""
    return [sp.deviated_sup("delay"), sp.deviated_sup("advance"),
            sp.rhs_sup("delay"), sp.rhs_sup("advance")]


def _sups_of_arrays(sp, deviated):
    """criteria._sup_witness over the full arrays, as (value, node)."""
    a_g, _, _, b_h = deviated
    full = (a_g, b_h, rhs_as_first_written(sp, "delay", deviated),
            rhs_as_first_written(sp, "advance", deviated))
    out = []
    for values in full:
        value, t_at = criteria._sup_witness(sp.ts, values)
        node = int(np.argmax(values))
        assert t_at == sp.ts[node]
        out.append((value, node))
    return out


def _assert_same_sups(got, want):
    for (value, node), (want_value, want_node) in zip(got, want, strict=True):
        assert _bits(value) == _bits(want_value) and node == want_node


def test_deviated_integrals_are_computed_once_per_sampled_problem(monkeypatch):
    """Block by block, every window node of ts, g and h is placed once, in order,
    on the one widened grid, for all four sups; the cumulative integrals built
    for it are not kept."""
    spec = make_spec(a="1.4+0.2*sin(t)", b="1.3+0.1*cos(t)", g="t-0.3-0.1*cos(t)",
                     h="t+0.2+0.1*sin(t)")
    step = 2.0 ** -10
    place = GridPoints.__init__
    # one block, and two full blocks and 3 nodes
    for cells in (5000, 2 * CHUNK + 2):
        sp = SampledProblem(spec, (0.0, cells * step), step)
        assert sp.ts.size == cells + 1
        placed = []
        monkeypatch.setattr(GridPoints, "__init__",
                            lambda self, *args: placed.append(args) or place(self, *args))
        got = _sups(sp)
        assert _sups(sp) == got  # cached
        monkeypatch.undo()
        assert not any(isinstance(v, CumulativeIntegral) for v in vars(sp).values())
        cum_a, cum_b = sp.widened_cumulative("a"), sp.widened_cumulative("b")
        grid = (cum_a.f.t_start, cum_a.f.step, len(cum_a.f.values))
        assert grid == (cum_b.f.t_start, cum_b.f.step, len(cum_b.f.values))
        assert [args[:3] for args in placed] == [grid] * len(placed)
        blocks = -(-sp.ts.size // CHUNK)
        assert len(placed) == 3 * blocks
        for k, t in enumerate((sp.ts, sp.g, sp.h)):
            parts = [args[3] for args in placed[k::3]]
            assert all(np.shares_memory(part, t) for part in parts)  # views, not copies
            np.testing.assert_array_equal(_bits(np.concatenate(parts)), _bits(t))
        want = (cum_a(sp.ts) - cum_a(sp.g), cum_a(sp.h) - cum_a(sp.ts),
                cum_b(sp.ts) - cum_b(sp.g), cum_b(sp.h) - cum_b(sp.ts))
        _assert_same_sups(got, _sups_of_arrays(sp, want))
    assert "_deviated_sups" not in vars(SampledProblem(spec, (0.0, 5.0), 1e-3))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_deviated_integrals_saturate_only_a_difference_of_two_positive_infs():
    # the node sums of 1e308 reach +inf and those of -1e308 reach -inf about
    # 1800 nodes in; +inf - +inf saturates to +inf, -inf - -inf stays nan
    spec = make_spec(a="-1e308", b="1e308", g="t-0.3", h="t+0.3")
    sp = SampledProblem(spec, (0.0, 5.0), 1e-3)
    assert sp.widened_cumulative("b").total == math.inf
    assert sp.widened_cumulative("a").total == -math.inf
    assert sp.deviated_sup("advance")[0] == math.inf  # of int_t^h b
    assert sp.rhs_sup("advance")[0] == math.inf
    # int_g^t a holds nan, and so does the delay test's right-hand side; each is
    # the sup at its first nan node, as np.argmax reads it
    deviated = deviated_as_first_written(sp)
    for sup, full in ((sp.deviated_sup("delay"), deviated[0]),
                      (sp.rhs_sup("delay"), rhs_as_first_written(sp, "delay", deviated))):
        assert math.isnan(sup[0]) and sup[1] == np.flatnonzero(np.isnan(full))[0] > 0


# a coefficient that is 0 up to about `onset` and 1.7e308 past it: its node
# sums leave the float range there, in any block of the window
def _late_overflow(sign: str, onset: float) -> str:
    return f"{sign}1.7e308*exp(-exp({onset!r}-t))"


@st.composite
def _deviated_cases(draw):
    """(spec fields, T): periodic, constant (the deviated integrals tie on most
    nodes), overflowing to +inf (saturated) or to -inf (nan) at some onset."""
    kind = draw(st.sampled_from(["periodic", "constant", "overflow"]))
    if kind == "periodic":
        fields = dict(a=f"{draw(st.floats(0.0, 2.0))!r}+{draw(st.floats(0.0, 0.5))!r}*sin(t)",
                      b=f"{draw(st.floats(0.0, 2.0))!r}+{draw(st.floats(0.0, 0.5))!r}*cos(t)",
                      g=f"t-{draw(st.floats(0.0, 0.6))!r}-0.05*cos(t)",
                      h=f"t+{draw(st.floats(0.0, 0.6))!r}+0.05*sin(t)")
    elif kind == "constant":
        a, b = (draw(st.sampled_from(["0", "1", "1.4", "0.5"])) for _ in "ab")
        fields = dict(a=a, b=b, g=f"t-{draw(st.sampled_from([0.0, 0.25, 0.3]))!r}",
                      h=f"t+{draw(st.sampled_from([0.0, 0.25, 0.3]))!r}")
    else:
        onset = draw(st.floats(-5.0, 65.0))
        fields = dict(a=_late_overflow(draw(st.sampled_from(["", "-"])), onset),
                      b=draw(st.sampled_from(["1e308", "1", _late_overflow("", onset)])))
    return fields, draw(st.sampled_from([20.0, 40.0, 70.0]))  # 1, 2 and 3 blocks


@seed(20190)
@settings(deadline=None, database=None, max_examples=40)
@given(_deviated_cases())
@example((dict(a="0", b="0"), 70.0))  # every node ties, in all three blocks
@example((dict(a="1e308", b="1e308"), 40.0))  # +inf - +inf saturates to +inf
@example((dict(a=_late_overflow("-", 50.0)), 70.0))  # nan first in the second block
def test_deviated_sups_are_the_sups_of_the_full_arrays(case):
    fields, T = case
    sp = SampledProblem(make_spec(**fields), (0.0, T), 1e-3)
    assert -(-sp.ts.size // CHUNK) == {20.0: 1, 40.0: 2, 70.0: 3}[T]
    _assert_same_sups(_sups(sp), _sups_of_arrays(sp, deviated_as_first_written(sp)))


_SAMPLE = st.one_of(st.sampled_from((0.0, -0.0, 1.3, 1.4)), st.floats(-1e3, 1e3))


@settings(deadline=None, database=None, max_examples=300)
@given(st.lists(st.tuples(_SAMPLE, _SAMPLE), min_size=2, max_size=40), st.booleans())
def test_margin_is_the_least_explicit_difference_at_its_first_node(pairs, equal):
    a, b = (np.array(column) for column in zip(*pairs))
    if equal:
        b = a.copy()
    sp = SampledProblem(make_spec(), (0.0, a.size - 1.0), 1.0)
    assert sp.ts.size == a.size
    sp.a, sp.b = a, b  # before the margin's first use, which reads them
    for case, gap in (("delay", a - b), ("advance", b - a)):
        value, node = sp.margin(case)
        assert value == np.min(gap) and node == np.argmin(gap)
