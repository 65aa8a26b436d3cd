import json

import numpy as np
import pytest

from mixedde import ProblemSpec, construct, criteria, model, parse_expr, simulate

# frozen oracle values (independent computation: closed forms and bracketed
# bisection at 1e-14, see individual tests for the defining equations)
LAM2 = 0.5436172582885277          # positive root of -l + 1.4 e^{0.3l} - 1.3 e^{-0.3l}
EX1_ROOTS = (-4.2281707151223165, 0.5436172582885253, 3.3540851027634084)
EX1_INEQ_VALUE = 0.926738643720171            # 1.4 e^{0.3} - 1.3 e^{-0.3}
EX2_RESIDUAL_T0 = -0.14404873750331482        # 1.375 e^{0.3} - 1.35 e^{-0.3} - 1
EX3_PROBE = (1.9004548649617536, 2.475429785460149)
EX2_I100 = 5.016101169220552                  # int_0^100 (a - b)


# the paper's example problems, as overrides of the spec_fields defaults
EXAMPLES = {
    "ex1": {},
    "ex2": dict(a="1.375+0.025*sin(t)", b="1.325+0.025*cos(t)"),
    "ex3": dict(a="1.3+0.1*sin(t)", b="1.7+0.1*cos(t)",
                g="t-0.1-0.1*cos(t)", h="t+0.2+0.1*sin(t)", delta1=-1, delta2=1),
    "ex4": dict(a="1", b="1", g="t-0.2", h="t+0.3", delta1=-1, delta2=1),
}


def spec_fields(**kw) -> dict:
    doc = {"a": "1.4", "b": "1.3", "g": "t-0.3", "h": "t+0.3",
           "delta1": 1, "delta2": -1, "t0": 0.0}
    doc.update(kw)
    return doc


def make_spec(**kw) -> ProblemSpec:
    doc = spec_fields(**kw)
    return ProblemSpec(parse_expr(doc["a"]), parse_expr(doc["b"]),
                       parse_expr(doc["g"]), parse_expr(doc["h"]),
                       doc["delta1"], doc["delta2"], doc["t0"])


@pytest.fixture
def ex1_spec() -> ProblemSpec:
    return make_spec()


@pytest.fixture
def ex2_spec() -> ProblemSpec:
    return make_spec(**EXAMPLES["ex2"])


@pytest.fixture
def ex3_spec() -> ProblemSpec:
    return make_spec(**EXAMPLES["ex3"])


def write_spec_file(path, **kw) -> str:
    path.write_text(json.dumps(spec_fields(**kw)))
    return str(path)


@pytest.fixture
def sampled_builds(monkeypatch) -> list:
    """Arguments of every SampledProblem built while the test runs."""
    built = []

    class Counting(model.SampledProblem):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    for module in (model, criteria, construct, simulate):
        monkeypatch.setattr(module, "SampledProblem", Counting)
    return built


# -- CumulativeIntegral as first written, the oracle of its placed evaluation ----

def _where_nodes(f):
    """Node sums of CumulativeIntegral.__init__ as first written (temporaries)."""
    v = f.values
    cells = 0.5 * (v[:-1].astype(np.longdouble) + v[1:]) * np.longdouble(f.step)
    nodes = np.concatenate(([np.longdouble(0.0)], np.cumsum(cells)))
    return nodes.astype(float)


def _where_eval(self, t):
    """CumulativeIntegral.__call__ as first written (two full-array np.where
    passes, positions recomputed per call), kept as the oracle of `at`."""
    f = self.f
    tt = np.asarray(t, dtype=float)
    v = f.values
    pos = (tt - f.t_start) / f.step
    idx = np.clip(np.floor(pos).astype(int), 0, len(v) - 2)
    frac = pos - idx
    inside = self._nodes[idx] + f.step * (
        v[idx] * frac + 0.5 * (v[idx + 1] - v[idx]) * frac * frac
    )
    below = v[0] * (tt - f.t_start)
    above = self._nodes[-1] + v[-1] * (tt - f.t_end)
    out = np.where(pos < 0.0, below, np.where(pos > len(v) - 1.0, above, inside))
    if tt.ndim == 0:
        return float(out)
    return out


def _bits(x):
    """Bit patterns, so that signed zeros and NaN payloads count too."""
    return np.asarray(x, dtype=float).view(np.int64)
