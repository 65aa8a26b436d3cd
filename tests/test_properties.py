"""Property-based tests: exit codes under fuzzed spec documents, quadrature
additivity, the monotone-iteration invariants behind the construction, and
agreement between the certificates and the characteristic roots."""

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, seed, settings
from hypothesis import strategies as st

from mixedde.charroots import CharProblem, find_real_roots
from mixedde.cli import main
from mixedde.construct import IterationKernel
from mixedde.criteria import check, check_all
from mixedde.gridfn import CumulativeIntegral, GridFunction
from mixedde.model import SampledProblem

from conftest import make_spec, spec_fields

# -- exit codes under fuzzed spec documents ------------------------------------

_FIELDS = ("a", "b", "g", "h", "delta1", "delta2", "t0")
_MISSING = object()
_VALUES = st.one_of(
    st.just(_MISSING), st.none(), st.booleans(),
    st.lists(st.integers(-2, 2), max_size=2), st.dictionaries(st.just("x"), st.integers()),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e300, -1e300, 10**400, -10**400]),
    st.floats(-10.0, 10.0), st.integers(-3, 3),
    st.sampled_from(["", "t+", "sin", "sin t", "(1", "1)", "x", "2**t", "exp(", "t..1",
                     "1e400", "1e400-1e400", "exp(exp(t))", "t-1e300", "t+1", "-1",
                     "nan", "None", "0.5", "t-0.2"]),
    # digits 0 and 1 only: no drawn delay or advance widens a grid past a few
    # million nodes, so every example stays small
    st.text(alphabet="t()+-*.01e sincoxp", max_size=10),
)


@st.composite
def _spec_documents(draw):
    doc = spec_fields()
    for field, value in draw(st.dictionaries(st.sampled_from(_FIELDS), _VALUES,
                                             max_size=3)).items():
        if value is _MISSING:
            del doc[field]
        else:
            doc[field] = value
    return doc


@settings(deadline=None, database=None, max_examples=60,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(_spec_documents(), st.sampled_from([None, [], 1, "x"])))
@example({**spec_fields(), "t0": None})
def test_fuzzed_spec_documents_exit_with_0_1_or_2(tmp_path, doc):
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path), "--T", "2"]) in (0, 1, 2)
    assert main(["check", str(path), "--T", "2", "--step", "0.01"]) in (0, 1, 2)


# -- quadrature ------------------------------------------------------------------

@settings(deadline=None, database=None)
@given(values=st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=60),
       t_start=st.floats(-10.0, 10.0), step=st.floats(1e-3, 1.0),
       fractions=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3))
def test_quadrature_is_additive_and_both_paths_agree(values, t_start, step, fractions):
    f = GridFunction(t_start, step, np.array(values))
    lo, mid, hi = sorted(min(t_start + q * (f.t_end - t_start), f.t_end) for q in fractions)
    cum = CumulativeIntegral(f)

    def c(x, y):
        return cum(y) - cum(x)

    tol = 1e-11 * max(1.0, max(map(abs, values))) * (f.t_end - t_start)
    assert c(lo, mid) + c(mid, hi) == pytest.approx(c(lo, hi), abs=tol)
    assert c(lo, hi) == pytest.approx(f.integrate(lo, hi), abs=tol)
    assert f.integrate(lo, mid) + f.integrate(mid, hi) == \
        pytest.approx(f.integrate(lo, hi), abs=tol)


# -- monotone iteration ----------------------------------------------------------

@st.composite
def _cor_1_2_constant_specs(draw):
    """Constant a >= b with b >= a (e^{a tau} - 1) e^{a sigma}: COR_1_2 holds."""
    a = draw(st.floats(0.2, 2.0))
    tau, sigma = draw(st.floats(0.0, 0.5)), draw(st.floats(0.0, 0.5))
    need = a * math.expm1(a * tau) * math.exp(a * sigma)
    assume(need < a)
    b = need + draw(st.floats(0.0, 1.0)) * (a - need)
    return make_spec(a=repr(a), b=repr(b), g=f"t-{tau!r}", h=f"t+{sigma!r}"), a - b


@settings(deadline=None, database=None, max_examples=50)
@given(_cor_1_2_constant_specs())
def test_monotone_iteration_invariants(spec_and_gap):
    spec, gap = spec_and_gap
    window, step = (0.0, 3.0), 0.01
    assume(check("COR_1_2", spec, window, step).holds)
    kernel = IterationKernel(SampledProblem(spec, window, step), "delay")
    u = kernel.sampled.a.copy()  # the COR_1_2 witness u_0 = a
    for _ in range(100):
        v = kernel.apply(u)
        assert np.all(v >= -1e-12)
        assert np.all(v <= u + 1e-12)
        assert np.all(v >= gap - 1e-12)
        if np.max(np.abs(v - u)) <= 1e-12:
            break
        u = v


# -- certificates against characteristic roots -------------------------------------

@st.composite
def _constant_specs(draw):
    a, b = draw(st.floats(0.05, 2.0)), draw(st.floats(0.05, 2.0))
    tau, sigma = draw(st.floats(0.0, 0.6)), draw(st.floats(0.0, 0.6))
    d1, d2 = draw(st.sampled_from([-1, 1])), draw(st.sampled_from([-1, 1]))
    spec = make_spec(a=repr(a), b=repr(b), g=f"t-{tau!r}", h=f"t+{sigma!r}",
                     delta1=d1, delta2=d2)
    return spec, CharProblem(a, b, tau, sigma, d1, d2)


@seed(1982)
@settings(deadline=None, database=None, max_examples=200)
@given(_constant_specs())
def test_a_holding_certificate_implies_a_real_characteristic_root(spec_and_problem):
    """With constant coefficients a nonoscillatory solution exists exactly when
    the characteristic function has a real root (Ladas & Stavroulakis 1982), so
    no sufficient condition may hold on a spec whose scan finds none."""
    spec, problem = spec_and_problem
    held = [c.condition_id for c in check_all(spec, (0.0, 10.0)) if c.holds]
    if held:
        assert find_real_roots(problem).roots, f"{held} hold but no real root exists"
