"""Tests of the benchmark itself: input generator, output checker, tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import copy
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checker  # noqa: E402
import problems  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

import mixedde as m  # noqa: E402
from mixedde import cli  # noqa: E402

REFERENCE = json.loads((HERE / "reference.json").read_text())


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    dest = tmp_path_factory.mktemp("inputs")
    problems.write_inputs(dest, seed=3)
    return dest


def _run_cli(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


# -- generator ----------------------------------------------------------------

def test_generator_is_deterministic_per_seed(tmp_path):
    assert problems.study_problems(7) == problems.study_problems(7)
    assert problems.study_problems(7) != problems.study_problems(8)
    problems.write_inputs(tmp_path / "a", 7)
    problems.write_inputs(tmp_path / "b", 7)
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == ["ex1.json", "ex2.json", "ex3.json", "ex4.json", "study.json"]
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_generated_problems_parse_and_meet_their_family(inputs):
    for name in ("ex1", "ex2", "ex3", "ex4"):
        m.read_spec(str(inputs / f"{name}.json"))
    study = json.loads((inputs / "study.json").read_text())
    assert len(study["pairs"]) == problems.STUDY_PAIRS
    combos = {(c["delta1"], c["delta2"], c["convention"]) for c in study["char"]}
    assert len(combos) == 8
    for pair in study["pairs"]:
        for role in ("dom", "sub"):
            a, b = float(pair[role]["a"]), float(pair[role]["b"])
            assert (a > b) == (pair["family"] == "delay")


# -- checker ------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_checker_accepts_the_reference_itself(name):
    ref = REFERENCE[name]
    sub = name.split("-")[0]
    text = ref["text"] if "text" in ref else _region_csv(ref)
    assert checker.check_cli(sub, ref["rc"], text, ref, name in workloads.MAY_CONVERGE) == []


def _region_csv(ref) -> str:
    lines = [",".join(ref["header"])]
    for i, v1 in enumerate(ref["axis1"]):
        for j, v2 in enumerate(ref["axis2"]):
            cols = [ref["rows"][h][i][j] for h in ref["header"][2:]]
            lines.append(",".join([repr(v1), repr(v2), *cols]))
    return "\n".join(lines) + "\n"


PERTURBATIONS = [
    ("check-ex1", "verdict: holds_on_window", "verdict: fails_on_window"),
    ("check-ex1", "lambda=0.543617258288", "lambda=0.543617268288"),
    ("check-ex3", "route=monotone-inversion", "route=grid-sweep"),
    ("construct-ex1", "converged: yes", "converged: no"),
    ("construct-ex2", "x_end: 0.00517926804738", "x_end: 0.00518926804738"),
    ("simulate-ex1", "classification: nonoscillatory_positive", "classification: oscillatory"),
    ("simulate-ex3", "x_end: 0.0770279231254", "x_end: 0.0770479231254"),
    ("simulate-ex2", "x_end: 0.0530729378292", "x_end: 0.0531729378292"),
    ("roots-ex1", "root: 0.543617258288", "root: 0.543617268288"),
    ("roots-ex4", "class=constant", "class=growing"),
]


@pytest.mark.parametrize("name,old,new", PERTURBATIONS)
def test_checker_rejects_a_perturbed_report(name, old, new):
    ref = REFERENCE[name]
    assert old in ref["text"]
    bad = checker.check_cli(name.split("-")[0], ref["rc"], ref["text"].replace(old, new, 1),
                            ref, name in workloads.MAY_CONVERGE)
    assert bad


def test_checker_rejects_a_wrong_exit_code_and_a_flipped_region_cell():
    ref = REFERENCE["check-ex2"]
    assert checker.check_cli("check", 1, ref["text"], ref)
    region = REFERENCE["region-ab-ex4"]
    flipped = copy.deepcopy(region)
    row = flipped["rows"]["feasible"][4]
    flipped["rows"]["feasible"][4] = row[:3] + ("0" if row[3] == "1" else "1") + row[4:]
    assert checker.check_cli("region", 0, _region_csv(flipped), region)


def test_checker_lets_the_capped_simulation_converge():
    ref = REFERENCE["simulate-ex2"]
    fixed = ref["text"].replace("converged: no", "converged: yes").replace(
        "relaxation_residual: 9.03445651623e-10", "relaxation_residual: 9e-11")
    assert checker.check_cli("simulate", 0, fixed, ref, may_converge=True) == []
    assert checker.check_cli("simulate", 0, fixed, ref, may_converge=False)


def test_study_checks_accept_real_results_and_reject_perturbed_ones():
    pair = problems.study_problems(5)["pairs"][0]
    specs = {r: workloads._spec(pair[r]) for r in ("dom", "sub")}
    certs = {r: m.check_all(s, workloads.STUDY_CHECK_WINDOW) for r, s in specs.items()}
    for role in ("dom", "sub"):
        assert checker.check_certificates(certs[role], pair[role], pair["family"]) == []
    assert checker.check_comparison(certs["dom"], certs["sub"], pair["family"]) == []

    bent = [copy.copy(c) for c in certs["sub"]]
    k = checker.CONDITION_IDS.index("COR_1_4_REMARK")
    w = dict(bent[k].witness)
    w["sup_delay_integral"] *= 1 + 1e-6
    object.__setattr__(bent[k], "witness", w)
    assert checker.check_certificates(bent, pair["sub"], pair["family"])

    doc = problems.study_problems(5)["char"][1]
    p = m.CharProblem(doc["a"], doc["b"], doc["tau"], doc["sigma"],
                      doc["delta1"], doc["delta2"], doc["convention"])
    rs = m.find_real_roots(p)
    assert rs.roots and checker.check_roots_result(rs, doc) == []
    moved = type(rs)(tuple(r + 1e-6 for r in rs.roots), rs.residuals, rs.classifications,
                     rs.brackets_scanned, rs.truncated, rs.tangency_suspected)
    assert checker.check_roots_result(moved, doc)


# -- tracer -------------------------------------------------------------------

def _bindings():
    """Identity of every name bound in mixedde's modules and classes."""
    snap = {}
    for name, mod in list(sys.modules.items()):
        if name == "mixedde" or name.startswith("mixedde."):
            for attr, val in vars(mod).items():
                snap[(name, attr)] = id(val)
                if isinstance(val, type) and val.__module__ == name:
                    for cattr, cval in vars(val).items():
                        snap[(name, attr, cattr)] = id(cval)
    return snap


def _exercise(inputs):
    spec = m.read_spec(str(inputs / "ex1.json"))
    ex4 = m.extract_bounds(m.read_spec(str(inputs / "ex4.json")), (0.0, 100.0))
    return {
        "check": _run_cli(["check", str(inputs / "ex3.json")]),
        "construct": _run_cli(["construct", str(inputs / "ex2.json"), "--T", "5"]),
        "simulate": _run_cli(["simulate", str(inputs / "ex1.json"), "--T", "1",
                              "--step", "0.01"]),
        "check_all": checker.fingerprint(m.check_all(spec, (0.0, 5.0))),
        "region": m.sweep_region(ex4, "a", "b", ((0.0, 3.0), (0.0, 3.0)), 1.0).feasible.tolist(),
        "roots": checker.fingerprint(m.find_real_roots(m.CharProblem(1.4, 1.3, 0.3, 0.3, 1, -1))),
    }


def test_tracer_leaves_results_unchanged_and_unpatches_cleanly(inputs):
    before = _bindings()
    plain = _exercise(inputs)
    t = tracer.Tracer()
    with t:
        assert _bindings() != before
        traced = _exercise(inputs)
    assert _bindings() == before
    assert traced == plain
    assert t.absent == []
    layer = t.metrics()
    assert layer["criteria.check_all.calls"] == 2     # cli check + direct call
    assert layer["criteria.context_build.calls"] > 0
    assert layer["criteria.check_sys30.calls"] == 1 + 9
    assert layer["simulate.relax.calls"] == 1
    assert layer["cli.check.self_s"] > 0


def test_trace_counts_cross_check(inputs):
    t = tracer.Tracer()
    with t:
        rc, text = _run_cli(["construct", str(inputs / "ex2.json"), "--T", "5"])
        bounds = m.extract_bounds(m.read_spec(str(inputs / "ex4.json")), (0.0, 100.0))
        region = m.sweep_region(bounds, "a", "b", ((0.0, 3.0), (0.0, 3.0)), 0.5)
    layer = t.metrics()
    iterations = int(checker.report_fields(text)["iterations"])
    assert rc == 0
    assert layer["construct.kernel_apply.calls"] == iterations + 1
    assert layer["construct.iterations"] == iterations
    assert layer["criteria.check_sys30.calls"] == region.feasible.size
    assert layer["criteria.sweep_region.cells"] == region.feasible.size


def test_benchmark_json_lists_exactly_the_metrics_produced():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import run
    produced = ([n for n, _ in tracer.LAYER_METRICS] + list(run.E2E_EXTRA)
                + ["proc.cpu_s", "proc.cpu_util", "trace.overhead_ratio",
                   "trace.crosscheck_failures", "trace.absent_targets"])
    assert sorted(x["name"] for x in spec["per_layer"]) == sorted(produced)
    assert {x["name"] for x in spec["end_to_end"]} == {"setup_s", "pass_ref_s", "peak_rss_mb"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


# -- reference clock ----------------------------------------------------------

def test_refclock_times_calls_and_restores_the_alarm_handler():
    import signal

    import refclock
    before = signal.getsignal(signal.SIGALRM)
    with refclock.RefClock() as clock:
        value, wall, ref, cpu = clock.measure(lambda: sum(i * i for i in range(300_000)))
        samples = len(clock.marks)
        _, short_wall, short_ref, _ = clock.measure(lambda: None)
    assert value == sum(i * i for i in range(300_000))
    assert samples >= 2                       # the clock sampled during the call
    assert 0 < wall and 0 < ref and 0 < cpu <= wall * 1.5
    # reference time is wall time rescaled by a CPU speed within a plausible range
    assert 0.1 < ref / wall < 10
    assert 0 <= short_wall < 0.01 and 0 <= short_ref < 0.1
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_refclock_scales_wall_time_by_the_sampled_loop_time(monkeypatch):
    import time

    import refclock

    def loop_at_half_speed():                 # every sample reads 2 x REF_LOOP_S
        end = time.perf_counter() + 2 * refclock.REF_LOOP_S
        while time.perf_counter() < end:
            pass
    monkeypatch.setattr(refclock, "REF_LOOP_S", 2.5e-4)
    monkeypatch.setattr(refclock, "_loop", loop_at_half_speed)
    with refclock.RefClock() as clock:
        _, wall, ref, _ = clock.measure(lambda: sum(i * i for i in range(300_000)))
    assert 0.4 < ref / wall <= 0.5
