"""The four workloads as lists of operations on generated inputs.

Each workload is dominated by different layers (see README.md):

- certify: `check` and `construct` on the examples; sampled-problem work
  that scales with the window length T.
- plane: `region` sweeps and `roots`; one `check_sys30` per (a, b) cell,
  nothing sampled on a t-grid.
- ivp: `simulate`; the pure-Python Heun sweeps of `relax`.
- study: seeded short-window problems through the package API, where
  per-call set-up dominates instead of array length.

An operation is one closed-loop call: the next one starts only after it
returns. CLI operations run `mixedde.cli.main` in-process on the problem
files; their names key the frozen reference outputs in reference.json.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

WORKLOADS = ("certify", "plane", "ivp", "study")

# (operation name, argv with {exN} standing for the problem file path)
CLI_OPS = {
    "certify": (
        ("check-ex1", ("check", "{ex1}")),
        ("check-ex2", ("check", "{ex2}", "--T", "300")),
        ("check-ex3", ("check", "{ex3}")),
        ("construct-ex1", ("construct", "{ex1}", "--T", "100")),
        ("construct-ex2", ("construct", "{ex2}", "--T", "20")),
    ),
    "plane": (
        ("region-ab-ex4", ("region", "{ex4}", "--axes", "a,b", "--res", "0.3",
                           "--format", "csv")),
        ("region-xy-ex3", ("region", "{ex3}", "--axes", "x,y", "--format", "csv")),
        ("roots-ex1", ("roots", "{ex1}")),
        ("roots-ex4", ("roots", "{ex4}")),
    ),
    "ivp": tuple(
        (f"simulate-{ex}", ("simulate", "{" + ex + "}", "--T", "10", "--step", "0.004"))
        for ex in ("ex1", "ex2", "ex3")
    ),
}

# At the seed simulate-ex2 stops at the 200-sweep cap (exit 1, converged: no).
# That outcome counts in fail_ratio; a later fix that lets it converge must
# not be reported as a reference mismatch.
MAY_CONVERGE = frozenset({"simulate-ex2"})

STUDY_CHECK_WINDOW = (0.0, 25.0)
STUDY_CONSTRUCT_WINDOW = (0.0, 6.0)


@dataclass
class Outcome:
    """What one operation returned: exit code and report text for the CLI,
    the returned object for the package API."""

    rc: int
    text: str = ""
    value: Any = None


@dataclass
class Op:
    name: str
    subcommand: str          # check | construct | region | roots | simulate | check_all | ...
    call: Callable[[], Outcome]
    payload: Any = None      # what the checker needs besides the outcome


def _cli_call(argv: list[str]) -> Callable[[], Outcome]:
    def call() -> Outcome:
        from mixedde import cli
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        return Outcome(rc, out.getvalue() + err.getvalue())
    return call


def _spec(doc: dict):
    import mixedde as m
    return m.ProblemSpec(m.parse_expr(doc["a"]), m.parse_expr(doc["b"]),
                         m.parse_expr(doc["g"]), m.parse_expr(doc["h"]),
                         int(doc["delta1"]), int(doc["delta2"]), float(doc["t0"]))


def _api_call(name: str, *args) -> Callable[[], Outcome]:
    def call() -> Outcome:
        import mixedde  # looked up per call, so a tracer's patches take effect
        return Outcome(0, value=getattr(mixedde, name)(*args))
    return call


def _study_ops(inputs: Path) -> list[Op]:
    import mixedde as m
    study = json.loads((inputs / "study.json").read_text())
    ops: list[Op] = []
    for k, pair in enumerate(study["pairs"]):
        specs = {role: _spec(pair[role]) for role in ("dom", "sub")}
        for role, spec in specs.items():
            ops.append(Op(f"check_all-{k}-{role}", "check_all",
                          _api_call("check_all", spec, STUDY_CHECK_WINDOW),
                          {"family": pair["family"], "doc": pair[role],
                           "pair": k, "role": role}))
    for k, item in enumerate(study["construct"]):
        ops.append(Op(f"auto_construct-{k}", "auto_construct",
                      _api_call("auto_construct", _spec(item["spec"]),
                                STUDY_CONSTRUCT_WINDOW),
                      {"family": item["family"]}))
    for k, doc in enumerate(study["char"]):
        problem = m.CharProblem(doc["a"], doc["b"], doc["tau"], doc["sigma"],
                                doc["delta1"], doc["delta2"], doc["convention"])
        ops.append(Op(f"find_real_roots-{k}", "find_real_roots",
                      _api_call("find_real_roots", problem), doc))
    return ops


def build_ops(workload: str, inputs: Path) -> list[Op]:
    """Parse the workload's inputs into its operations (the set-up step)."""
    if workload == "study":
        return _study_ops(inputs)
    import mixedde as m
    paths = {f"ex{i}": str(inputs / f"ex{i}.json") for i in range(1, 5)}
    for path in paths.values():
        m.read_spec(path)  # parse every problem file once, so bad inputs fail in set-up
    ops = []
    for name, template in CLI_OPS[workload]:
        argv = [arg.format(**paths) for arg in template]
        ops.append(Op(name, argv[0], _cli_call(argv)))
    return ops
