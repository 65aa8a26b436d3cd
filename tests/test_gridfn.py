import math

import numpy as np
import pytest

from mixedde.gridfn import GridFunction


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

    def failing(t):
        calls.append(np.shape(t))
        raise ValueError("fn's own error")

    calls.clear()
    with pytest.raises(ValueError, match="own error"):
        GridFunction.from_callable(failing, 0.0, 1.0, 0.25)
    assert calls == [(5,)]  # not retried point by point


def test_sine_quadrature():
    f = GridFunction.from_callable(np.sin, 0.0, math.pi, 1e-3)
    assert f.integrate(0.0, math.pi) == pytest.approx(2.0, abs=1e-5)


def test_bounds_out_of_order():
    f = GridFunction.constant(1.0, 0.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        f.integrate(0.7, 0.3)


def test_extrapolation_flag():
    f = GridFunction.constant(2.0, 0.0, 1.0, 0.1)
    value, flagged = f.integrate_flagged(-1.0, 2.0)
    assert flagged
    assert value == pytest.approx(6.0, abs=1e-12)  # clamped constant
    _, flagged = f.integrate_flagged(0.2, 0.8)
    assert not flagged


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
    cum = f.cumulative()
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
