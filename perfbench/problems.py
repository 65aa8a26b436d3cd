"""Workload inputs: the paper's example problems and the seeded study set.

The examples are the ones frozen in the project's acceptance tests. The
study set is drawn from the benchmark seed with `random.Random`, whose
`uniform` stream is stable across Python versions, so one seed always gives
the same problem files.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

_BASE = {"a": "1.4", "b": "1.3", "g": "t-0.3", "h": "t+0.3",
         "delta1": 1, "delta2": -1, "t0": 0.0}

EXAMPLES = {
    # ex1: constant coefficients, delay-dominant, pattern (+,-)
    "ex1": dict(_BASE),
    # ex2: ex1 with small periodic perturbations
    "ex2": dict(_BASE, a="1.375+0.025*sin(t)", b="1.325+0.025*cos(t)"),
    # ex3: variable coefficients and arguments, pattern (-,+)
    "ex3": dict(_BASE, a="1.3+0.1*sin(t)", b="1.7+0.1*cos(t)",
                g="t-0.1-0.1*cos(t)", h="t+0.2+0.1*sin(t)", delta1=-1, delta2=1),
    # ex4: the (a, b)-plane template, tau=0.2 and sigma=0.3, pattern (-,+)
    "ex4": dict(_BASE, a="1", b="1", g="t-0.2", h="t+0.3", delta1=-1, delta2=1),
}

# Per-pass size of the study workload: dominance pairs (two check_all calls
# each), constructions, and characteristic problems (a multiple of the 8
# sign-pattern x convention combinations).
STUDY_PAIRS = 16
STUDY_CONSTRUCTIONS = 16
STUDY_CHAR_PROBLEMS = 48

SIGN_PATTERNS = ((1, 1), (1, -1), (-1, 1), (-1, -1))
CONVENTIONS = ("plus_exponent", "minus_exponent")


def _num(x: float) -> str:
    # fixed-point text: the expression grammar has no sign on numbers
    return f"{x:.6f}"


def _const_spec(a: float, b: float, tau: float, sigma: float) -> dict:
    return dict(_BASE, a=_num(a), b=_num(b), g=f"t-{_num(tau)}", h=f"t+{_num(sigma)}")


def _dominance_pair(rng: random.Random, family: str) -> dict:
    """A dominating ("harder") and a dominated ("easier") constant-coefficient
    problem of one dominance family, as in acceptance criterion 11."""
    if family == "delay":
        base_a = rng.uniform(0.9, 1.3)
        base_b = base_a * rng.uniform(0.6, 0.8)
        tau, sigma = rng.uniform(0.1, 0.25), rng.uniform(0.1, 0.25)
        sub = _const_spec(base_a, base_b, tau, sigma)
        dom = _const_spec(base_a + rng.uniform(0.0, 0.1),
                          base_b * rng.uniform(0.7, 1.0),
                          tau + rng.uniform(0.0, 0.1), sigma + rng.uniform(0.0, 0.1))
    else:
        base_b = rng.uniform(0.9, 1.3)
        base_a = base_b * rng.uniform(0.6, 0.8)
        tau, sigma = rng.uniform(0.05, 0.15), rng.uniform(0.05, 0.15)
        sub = _const_spec(base_a, base_b, tau, sigma)
        dom = _const_spec(base_a * rng.uniform(0.7, 1.0),
                          base_b + rng.uniform(0.0, 0.1),
                          tau + rng.uniform(0.0, 0.05), sigma + rng.uniform(0.0, 0.05))
    return {"family": family, "dom": dom, "sub": sub}


def _dominant_spec(rng: random.Random, family: str) -> dict:
    """A periodic-coefficient problem satisfying one dominance hypothesis, as
    in acceptance criterion 7 (mirrored for the advance family)."""
    big = rng.uniform(0.8, 1.4)
    small = big * rng.uniform(0.6, 0.8)
    amp_big = big * rng.uniform(0.0, 0.08)
    amp_small = small * rng.uniform(0.0, 0.08)
    tau, sigma = rng.uniform(0.05, 0.15), rng.uniform(0.05, 0.15)
    hi = f"{_num(big)}+{_num(amp_big)}*sin(t)"
    lo = f"{_num(small)}+{_num(amp_small)}*cos(t)"
    a, b = (hi, lo) if family == "delay" else (lo, hi)
    return dict(_BASE, a=a, b=b, g=f"t-{_num(tau)}", h=f"t+{_num(sigma)}")


def _char_problem(rng: random.Random, k: int) -> dict:
    d1, d2 = SIGN_PATTERNS[k % 4]
    return {"a": round(rng.uniform(0.0, 3.0), 6), "b": round(rng.uniform(0.0, 3.0), 6),
            "tau": round(rng.uniform(0.0, 1.0), 6), "sigma": round(rng.uniform(0.0, 1.0), 6),
            "delta1": d1, "delta2": d2, "convention": CONVENTIONS[(k // 4) % 2]}


def study_problems(seed: int) -> dict:
    """The study workload's problems for one seed, alternating families."""
    rng = random.Random(seed)
    families = ("delay", "advance")
    return {
        "pairs": [_dominance_pair(rng, families[k % 2]) for k in range(STUDY_PAIRS)],
        "construct": [{"family": families[k % 2],
                       "spec": _dominant_spec(rng, families[k % 2])}
                      for k in range(STUDY_CONSTRUCTIONS)],
        "char": [_char_problem(rng, k) for k in range(STUDY_CHAR_PROBLEMS)],
    }


def write_inputs(dest: Path, seed: int) -> None:
    """Write ex1..ex4 as problem files and the study set as study.json."""
    dest.mkdir(parents=True, exist_ok=True)
    for name, doc in EXAMPLES.items():
        (dest / f"{name}.json").write_text(json.dumps(doc, sort_keys=True) + "\n")
    (dest / "study.json").write_text(
        json.dumps(study_problems(seed), sort_keys=True, indent=1) + "\n")
