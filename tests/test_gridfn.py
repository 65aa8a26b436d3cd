import math

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from mixedde.gridfn import (CHUNK, CumulativeIntegral, GridFunction, GridPoints, _node_sums,
                            grid_cells, node_times)
from mixedde.model import SampledProblem

from conftest import _bits, _where_eval, _where_nodes


def test_constant_integrand():
    f = GridFunction.constant(1.0, 0.0, 10.0, 0.01)
    assert f.integrate(2.5, 3.5) == pytest.approx(1.0, abs=1e-12)


def test_affine_exact():
    f = GridFunction.from_callable(lambda t: t, 0.0, 2.0, 0.01)
    assert f.integrate(0.0, 2.0) == pytest.approx(2.0, abs=1e-12)


def test_from_callable_evaluates_once_on_the_grid_array():
    calls = []

    def fn(t):
        calls.append(np.shape(t))
        return np.cos(t)

    f = GridFunction.from_callable(fn, 0.0, 1.0, 0.25)
    assert calls == [(5,)]
    assert np.array_equal(f.values, np.cos(0.25 * np.arange(5)))
    with pytest.raises(ValueError, match="shape"):
        GridFunction.from_callable(lambda t: 1.0, 0.0, 1.0, 0.25)
    for t_end in (0.0, -1.0):
        with pytest.raises(ValueError, match="t_end must exceed t_start"):
            GridFunction.from_callable(fn, 0.0, t_end, 0.25)

    def failing(t):
        calls.append(np.shape(t))
        raise ValueError("fn's own error")

    calls.clear()
    with pytest.raises(ValueError, match="own error"):
        GridFunction.from_callable(failing, 0.0, 1.0, 0.25)
    assert calls == [(5,)]  # not retried point by point


@settings(deadline=None, database=None, max_examples=50)
@given(st.floats(-1e6, -1e-6), st.floats(1e-6, 10.0), st.integers(2, 3 * CHUNK))
@example(-3.7, 1e-3, 2 * CHUNK + 3)
def test_node_times_are_the_bits_of_the_expression_they_replace(t_start, step, n):
    want = t_start + step * np.arange(n)
    np.testing.assert_array_equal(_bits(node_times(t_start, step, n)), _bits(want))
    lo = n // 3  # a stretch of the grid, as a block of a long window builds it
    np.testing.assert_array_equal(_bits(node_times(t_start, step, n, lo)), _bits(want[lo:]))


def test_a_step_below_the_float_spacing_of_its_times_is_rejected(ex1_spec):
    # floats near 2**43 are 2**-9 apart: t1 + k * 2**-10 would give 4097 node
    # times of which 2049 are distinct
    with pytest.raises(ValueError, match="grid nodes would repeat"):
        SampledProblem(ex1_spec, (2.0**43, 2.0**43 + 4), 2.0**-10)
    with pytest.raises(ValueError, match="grid nodes would repeat"):
        GridFunction.constant(1.0, 2.0**43, 2.0**43 + 4, 2.0**-10)
    ts = node_times(2.0**43, 2.0**-8, grid_cells(2.0**43, 2.0**43 + 4, 2.0**-8) + 1)
    assert len(ts) == 1025 and np.all(np.diff(ts) > 0)


def test_sine_quadrature():
    f = GridFunction.from_callable(np.sin, 0.0, math.pi, 1e-3)
    assert f.integrate(0.0, math.pi) == pytest.approx(2.0, abs=1e-5)


def test_bounds_out_of_order():
    f = GridFunction.constant(1.0, 0.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        f.integrate(0.7, 0.3)


def test_integral_off_the_grid_uses_clamped_values():
    f = GridFunction.constant(2.0, 0.0, 1.0, 0.1)
    assert f.integrate(-1.0, 2.0) == pytest.approx(6.0, abs=1e-12)  # clamped constant
    # each end clamps to its own endpoint value; the grid part is 0.5 + 1.0
    f = GridFunction(0.0, 0.5, np.array([2.0, 0.0, 4.0]))
    assert f.integrate(-1.0, 3.0) == 1.0 * 2.0 + 1.5 + 2.0 * 4.0
    assert f.integrate(-2.0, -1.0) == 2.0
    assert f.integrate(2.0, 3.0) == 4.0


def test_integral_of_values_near_the_float_range_does_not_overflow():
    """Each value is halved before a pair is added: 1e308 + 1e308 overflows
    (a RuntimeWarning, an error under the suite's filters), where the integral,
    0.3 * 1e308, is a float."""
    f = GridFunction.constant(1e308, 0.0, 10.0, 1e-3)
    assert f.integrate(4.7, 5.0) == pytest.approx(3e307, rel=1e-12)
    assert f.integrate(-1.0, 0.5) == pytest.approx(1.5e308, rel=1e-12)


def test_interpolation_and_clamping():
    f = GridFunction(0.0, 0.5, np.array([0.0, 1.0, 0.0]))
    assert f(0.25) == pytest.approx(0.5)
    assert f(-3.0) == 0.0
    assert f(99.0) == 0.0


def test_additivity_property():
    rng = np.random.default_rng(2)
    for _ in range(20):
        vals = rng.normal(size=64)
        f = GridFunction(0.0, 0.05, vals)
        pts = np.sort(rng.uniform(0.0, f.t_end, size=3))
        a, b, c = map(float, pts)
        whole = f.integrate(a, c)
        split = f.integrate(a, b) + f.integrate(b, c)
        assert abs(whole - split) <= 1e-12 * max(1.0, abs(whole))


def test_linearity_property():
    rng = np.random.default_rng(3)
    for _ in range(20):
        v1 = rng.normal(size=50)
        v2 = rng.normal(size=50)
        alpha, beta = rng.normal(size=2)
        f = GridFunction(0.0, 0.1, v1)
        g = GridFunction(0.0, 0.1, v2)
        combo = GridFunction(0.0, 0.1, alpha * v1 + beta * v2)
        lo, hi = 0.31, 4.77
        lhs = combo.integrate(lo, hi)
        rhs = alpha * f.integrate(lo, hi) + beta * g.integrate(lo, hi)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_monotonicity_property():
    rng = np.random.default_rng(4)
    for _ in range(20):
        v1 = rng.uniform(0.0, 1.0, size=40)
        v2 = v1 + rng.uniform(0.0, 1.0, size=40)
        f = GridFunction(0.0, 0.1, v1)
        g = GridFunction(0.0, 0.1, v2)
        lo, hi = sorted(rng.uniform(0.0, f.t_end, size=2))
        assert f.integrate(lo, hi) <= g.integrate(lo, hi) + 1e-12


def test_refinement_convergence():
    errors = []
    for step in (4e-3, 2e-3, 1e-3):
        f = GridFunction.from_callable(np.sin, 0.0, math.pi, step)
        errors.append(abs(f.integrate(0.0, math.pi) - 2.0))
    # halving the step divides the error by about four
    assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.2)
    assert errors[1] / errors[2] == pytest.approx(4.0, rel=0.2)


def test_cumulative_matches_integrate():
    rng = np.random.default_rng(5)
    vals = rng.normal(size=100)
    f = GridFunction(1.0, 0.01, vals)
    cum = CumulativeIntegral(f)
    for q in rng.uniform(1.0, f.t_end, size=25):
        direct = f.integrate(1.0, float(q))
        assert abs(cum(float(q)) - direct) <= 1e-12 * max(1.0, abs(direct))
    # linear continuation outside the grid matches clamped integration
    assert cum(f.t_end + 0.5) == pytest.approx(
        f.integrate(1.0, f.t_end) + 0.5 * vals[-1])


def test_too_few_values():
    with pytest.raises(ValueError):
        GridFunction(0.0, 0.1, np.array([1.0]))
    with pytest.raises(ValueError):
        GridFunction(0.0, -0.1, np.array([1.0, 2.0]))


# -- placed evaluation against the np.where evaluation it replaced -------------

@st.composite
def _grids_and_points(draw):
    size = draw(st.integers(2, 60))
    t_start = draw(st.one_of(st.just(0.0), st.floats(-50.0, 50.0)))
    step = draw(st.one_of(st.sampled_from([2.0 ** -7, 1e-3, 0.01, 0.3]),
                          st.floats(1e-4, 5.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    f = GridFunction(t_start, step, rng.normal(scale=10.0, size=size))
    span = f.t_end - t_start
    pts = np.concatenate([
        t_start - span * rng.uniform(0.0, 2.0, size=5),        # below
        rng.uniform(t_start, f.t_end, size=20),                # inside
        f.t_end + span * rng.uniform(0.0, 2.0, size=5),        # above
        t_start + step * rng.integers(0, size, size=8),        # exact nodes
        [t_start, f.t_end, np.nextafter(t_start, -np.inf), np.nextafter(f.t_end, np.inf)],
    ])
    return f, rng.permutation(pts)


@seed(20099)
@settings(max_examples=150, deadline=None, database=None)
@given(_grids_and_points())
def test_placed_evaluation_is_bit_identical_to_where_evaluation(case):
    f, pts = case
    cum = CumulativeIntegral(f)
    np.testing.assert_array_equal(_bits(cum.nodes), _bits(_where_nodes(f)))
    want = _where_eval(cum, pts)
    placed = GridPoints(f.t_start, f.step, len(f.values), pts)
    np.testing.assert_array_equal(_bits(cum.at(placed)), _bits(want))
    np.testing.assert_array_equal(_bits(cum(pts)), _bits(want))
    grid = pts[:36].reshape(6, 6)
    np.testing.assert_array_equal(_bits(cum(grid)), _bits(_where_eval(cum, grid)))
    for x in pts[::4]:
        for arg in (float(x), np.float64(x), np.array(x)):
            got = cum(arg)
            assert type(got) is float
            assert _bits(got) == _bits(_where_eval(cum, arg))


def test_points_placed_on_another_grid_are_rejected():
    cum = CumulativeIntegral(GridFunction(0.0, 0.1, np.ones(5)))
    with pytest.raises(ValueError, match="another grid"):
        cum.at(GridPoints(0.0, 0.1, 6, [0.2]))


# positions past 2**63, and past the float range at small steps
_FAR_POINTS = [1e19, -1e19, 2.0 ** 63, 1e300, -1e300, 1.7e308, -1.7e308]


@seed(20161)
@settings(max_examples=150, deadline=None, database=None)
@given(_grids_and_points(), st.lists(st.sampled_from(_FAR_POINTS), min_size=1, max_size=4))
def test_far_points_are_placed_without_a_warning(case, far):
    """Positions are clipped to the grid's cells before the int cast, which
    warned "invalid value encountered in cast" past 2**63 (an error in
    tier-1); points in int range keep the placement of the unclipped cast."""
    f, pts = case
    size = len(f.values)
    p = GridPoints(f.t_start, f.step, size, np.concatenate([pts, far]))
    near = slice(0, pts.size)
    pos = (pts - f.t_start) / f.step
    idx = np.clip(np.floor(pos).astype(int), 0, size - 2)
    np.testing.assert_array_equal(p.idx[near], idx)
    np.testing.assert_array_equal(_bits(p.frac[near]), _bits(pos - idx))
    far_below = [t < f.t_start for t in far]
    assert p.below.tolist() == (np.flatnonzero(pos < 0.0).tolist()
                                + [pts.size + i for i, b in enumerate(far_below) if b])
    assert p.above.tolist() == (np.flatnonzero(pos > size - 1.0).tolist()
                                + [pts.size + i for i, b in enumerate(far_below) if not b])
    assert np.all(p.idx[pts.size:] == np.where(far_below, 0, size - 2))


# -- node sums cast in place against the np.add build they replaced -------------

def _np_add_nodes(f):
    """CumulativeIntegral's node sums before the in-place cast: np.add into
    longdouble, then 0.5 and the step applied one after the other."""
    v = f.values
    nodes = np.zeros(len(v), dtype=np.longdouble)
    cells = nodes[1:]
    np.add(v[:-1], v[1:], out=cells, dtype=np.longdouble)
    cells *= 0.5
    cells *= np.longdouble(f.step)
    np.cumsum(cells, out=cells)
    return nodes.astype(float)


_EDGE_VALUES = [0.0, -0.0, math.inf, -math.inf, 1e300, -1e300, 5e-324, -5e-324,
                2.2250738585072014e-308, 1e-310, 1.0, -3.5]


@st.composite
def _grids_with_edge_values(draw):
    size = draw(st.integers(2, 40))
    values = draw(st.lists(st.one_of(st.sampled_from(_EDGE_VALUES),
                                     st.floats(allow_nan=False, allow_infinity=True)),
                           min_size=size, max_size=size))
    step = draw(st.one_of(st.sampled_from([2.0 ** -7, 1e-3, 0.01, 0.3, 5e-324, 1e300]),
                          st.floats(1e-300, 1e300)))
    return GridFunction(draw(st.floats(-50.0, 50.0)), step, np.array(values))


@seed(20142)
@settings(max_examples=300, deadline=None, database=None)
@given(_grids_with_edge_values(), st.data())
def test_node_sums_are_bit_identical_to_the_np_add_build(f, data):
    with np.errstate(all="ignore"):  # inf - inf and sums past the float range
        want = _np_add_nodes(f)
        got = CumulativeIntegral(f).nodes
    np.testing.assert_array_equal(_bits(got), _bits(want))
    # the kernel's path: _node_sums into buffers it reuses, here NaN-filled and
    # loaded with two vectors in turn, in one chunk (as the kernel does) or a
    # few cells at a time
    n = len(f.values)
    other = GridFunction(f.t_start, f.step, np.array(data.draw(st.lists(
        st.one_of(st.sampled_from(_EDGE_VALUES), st.floats(allow_nan=False)),
        min_size=n, max_size=n))))
    for width in (n - 1, 1, 2, 3):
        buf = np.full(width + 1, np.nan, np.longdouble)
        out = np.full(n, np.nan)
        for g in (f, other):
            with np.errstate(all="ignore"):
                want = _np_add_nodes(g)
                _node_sums(g.values, g.step, buf, out)
            np.testing.assert_array_equal(_bits(out), _bits(want))


def _chunk_edge_values(cells, boundary):
    """cells + 1 values: the first cell is -0.0, and the running sum turns inf at
    node `boundary` and NaN two nodes later."""
    values = np.random.default_rng(cells).standard_normal(cells + 1)
    values[:2] = -0.0
    values[boundary] = math.inf
    values[boundary + 2] = -math.inf
    return values


@pytest.mark.parametrize("width", [1, 2, 3, 7])
def test_chunked_node_sums_keep_a_negative_zero_and_carry_inf_and_nan(width):
    # inf at the last node of chunk 2, carried into chunk 3, NaN from there on
    f = GridFunction(0.5, 0.25, _chunk_edge_values(4 * width + 3, 2 * width))
    with np.errstate(all="ignore"):
        want = _np_add_nodes(f)
        out = np.full(f.values.size, np.nan)
        _node_sums(f.values, f.step, np.full(width + 1, np.nan, np.longdouble), out)
    assert _bits(want[1]) == _bits(-0.0)
    assert want[2 * width] == math.inf and np.isnan(want[2 * width + 2])
    np.testing.assert_array_equal(_bits(out), _bits(want))


@pytest.mark.parametrize("cells", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3])
def test_one_off_node_sums_cast_in_chunks_with_the_same_bits(cells):
    values = np.random.default_rng(cells).standard_normal(cells + 1)
    f = GridFunction(-1.0, 1e-3, values)
    np.testing.assert_array_equal(_bits(CumulativeIntegral(f).nodes), _bits(_np_add_nodes(f)))
    # a -0.0 first cell, and inf and NaN carried across the first chunk
    # boundary, where there is one
    edge = GridFunction(-1.0, 1e-3, _chunk_edge_values(cells, min(CHUNK, cells - 2)))
    with np.errstate(all="ignore"):
        want, got = _np_add_nodes(edge), CumulativeIntegral(edge).nodes
    np.testing.assert_array_equal(_bits(got), _bits(want))



# (end, first) of each extension; the last reaches the grid's last node
@pytest.mark.parametrize("cells, pieces", [
    (30, ((7, 0), (12, 5), (13, 12), (13, 13), (30, 11), (31, 40))),
    (30, ((31, 0),)),
    (2 * CHUNK + 3, ((CHUNK // 2, 0), (CHUNK + 100, CHUNK // 3), (2 * CHUNK + 4, CHUNK + 50))),
], ids=["short-pieces", "one-piece", "over-chunks"])
def test_a_grid_walked_a_stretch_at_a_time_has_the_bits_of_the_whole_grid(cells, pieces):
    # a -0.0 first cell, and inf and then NaN in the running sum
    values = _chunk_edge_values(cells, cells // 2)
    with np.errstate(all="ignore"):
        whole = CumulativeIntegral(GridFunction(0.5, 0.25, values))
        stretch = None
        for end, first in pieces:
            buf = np.full(min(cells, CHUNK) + 1, np.nan, np.longdouble)
            if stretch is None:  # the first piece starts the grid
                stretch = CumulativeIntegral(GridFunction(0.5, 0.25, values[:end]), cells + 1, buf)
                kept_from = 0
            else:
                kept_from = max(stretch.first, min(first, stretch.end - 1))
                stretch.extend(values[stretch.end:end], first, buf)
            lo = stretch.first
            assert (lo, stretch.end) == (kept_from, end)
            np.testing.assert_array_equal(_bits(stretch.values), _bits(values[lo:end]))
            np.testing.assert_array_equal(_bits(stretch.nodes), _bits(whole.nodes[lo:end]))
            if end - lo < 2:
                continue  # a stretch of one node holds no cell
            # points in every cell held, and before or past the grid where it is held
            t = 0.5 + 0.25 * np.linspace(lo - (lo == 0), end - 1 + (end > cells), 97)
            got = stretch.at(stretch.place(t))
            want = whole.at(GridPoints(0.5, 0.25, cells + 1, t))
            np.testing.assert_array_equal(_bits(got), _bits(want))
