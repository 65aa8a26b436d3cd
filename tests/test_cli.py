import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mixedde
from mixedde import simulate
from mixedde.cli import _build_parser, main

from conftest import EXAMPLES, write_spec_file


@pytest.fixture
def ex1_file(tmp_path):
    return write_spec_file(tmp_path / "ex1.json", phi="exp(-0.5436*t)", x0=1.0)


@pytest.fixture
def ex2_file(tmp_path):
    return write_spec_file(tmp_path / "ex2.json",
                           a="1.375+0.025*sin(t)", b="1.325+0.025*cos(t)")


@pytest.fixture
def ex3_file(tmp_path):
    return write_spec_file(tmp_path / "ex3.json",
                           a="1.3+0.1*sin(t)", b="1.7+0.1*cos(t)",
                           g="t-0.1-0.1*cos(t)", h="t+0.2+0.1*sin(t)",
                           delta1=-1, delta2=1)


def test_validate_pass_and_fail(tmp_path, ex1_file, capsys):
    assert main(["validate", ex1_file, "--T", "50"]) == 0
    out = capsys.readouterr().out
    assert out.count("pass") == 4
    bad = write_spec_file(tmp_path / "bad.json", b="-1")
    assert main(["validate", bad, "--T", "50"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_check_example2_exit_zero(ex2_file, capsys):
    assert main(["check", ex2_file]) == 0
    out = capsys.readouterr().out
    assert "condition: COR_1_3" in out
    assert "holds_on_window" in out
    assert "note: pure sub-equation" in out


def test_check_example3_exit_zero(ex3_file, capsys):
    assert main(["check", ex3_file, "--T", "40"]) == 0
    out = capsys.readouterr().out
    assert "condition: SYS_30_FEASIBLE\nverdict: holds_on_window" in out


def test_check_divergence_alone_certifies_nothing(tmp_path, capsys):
    # the gap integral diverges, yet no real characteristic root exists
    fields = dict(a="1.8160707492126158", b="1.0896741165408745",
                  g="t-0.4014528289067837", h="t+0.039266814684880864")
    path = write_spec_file(tmp_path / "refinement.json", **fields)
    assert main(["check", path, "--T", "100"]) == 1
    out = capsys.readouterr().out
    assert ("condition: COR_1_5\nverdict: inapplicable\nwindow: 0 .. 100\n"
            "witness: reason=needs one of COR_1_2/COR_1_3/COR_1_4_REMARK to hold") in out
    assert "holds_on_window" not in out
    assert main(["roots", path]) == 1
    assert "no real roots found" in capsys.readouterr().out


def test_check_trivial_zero_equation(tmp_path, capsys):
    path = write_spec_file(tmp_path / "zero.json", a="0", b="0", g="t", h="t")
    assert main(["check", path, "--T", "20"]) == 0


def test_check_no_certificate(tmp_path, capsys):
    # advance side too heavy for every sufficient condition
    path = write_spec_file(tmp_path / "none.json", a="1.999", b="2",
                           g="t-1", h="t+1")
    assert main(["check", path, "--T", "40"]) == 1
    out = capsys.readouterr().out
    assert "holds_on_window" not in out


def test_check_rejects_bad_input(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["check", str(missing)]) == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{")
    assert main(["check", str(broken)]) == 2
    invalid = write_spec_file(tmp_path / "invalid.json", b="-1")
    assert main(["check", invalid]) == 2
    assert "error:" in capsys.readouterr().err


def test_check_csv_format(ex2_file, capsys):
    assert main(["check", ex2_file, "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "condition,verdict,t1,T,witness,caveats"
    assert len(lines) == 15


def test_check_deterministic_output(ex2_file, capsys):
    main(["check", ex2_file])
    first = capsys.readouterr().out
    main(["check", ex2_file])
    assert capsys.readouterr().out == first


def test_construct_report_and_csv(ex1_file, tmp_path, capsys):
    assert main(["construct", ex1_file, "--T", "8"]) == 0
    out = capsys.readouterr().out
    assert "converged: yes" in out
    dest = tmp_path / "traj.csv"
    assert main(["construct", ex1_file, "--T", "8", "--format", "csv",
                 "--out", str(dest)]) == 0
    lines = dest.read_text().splitlines()
    assert lines[0] == "t,u,x"
    assert len(lines) == 8001 + 1


def test_roots_from_flags(capsys):
    code = main(["roots", "--a", "1.4", "--b", "1.3", "--tau", "0.3",
                 "--sigma", "0.3", "--delta1", "1", "--delta2", "-1"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("root:") == 3
    assert "class=growing" in out and "class=decaying" in out


def test_roots_from_spec_file(ex1_file, capsys):
    assert main(["roots", ex1_file, "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "root,residual,class"
    assert len(lines) == 4


def test_roots_requires_constants(ex2_file, capsys):
    assert main(["roots", ex2_file]) == 2
    assert "constant" in capsys.readouterr().err


def test_roots_no_roots_exit_one(capsys):
    code = main(["roots", "--a", "1.4", "--b", "0", "--tau", "0.3",
                 "--sigma", "0", "--scan-lo", "0.001"])
    assert code == 1


@pytest.mark.parametrize("argv, roots", [
    # a*tau = 1/e: a double root, where F changes no sign
    (["--a", "1.2262648039048079", "--b", "0", "--tau", "0.3", "--sigma", "0"],
     [("3.33333333333", "decaying")]),
    # a window reaching 1e300 samples nothing
    (["--a", "0.1", "--b", "0.412", "--tau", "0.00643", "--sigma", "0.00962",
      "--convention", "plus_exponent", "--scan-hi", "1e300"],
     [("0.313445540007", "growing"), ("785.085843462", "growing")]),
], ids=["double-root", "window-to-1e300"])
def test_roots_without_a_scan_grid(argv, roots, capsys):
    assert main(["roots", *argv]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert [(root, tag) for _, root, _, tag in lines] == [(r, f"class={c}") for r, c in roots]


def test_roots_residual_where_an_exponent_passes_700(capsys):
    # the root near 35.29 has e^{l*tau} = e^706: the residual is that of F itself
    assert main(["roots", "--a", "1e-305", "--b", "0", "--tau", "20", "--sigma", "0"]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert [root for _, root, *_ in lines][1:] == ["35.2926063427"]
    for _, _, residual, _ in lines:
        assert float(residual.removeprefix("residual=")) <= 1e-9


def test_region_fig1(ex3_file, tmp_path):
    dest = tmp_path / "region.csv"
    code = main(["region", ex3_file, "--T", "40", "--axes", "x,y",
                 "--res", "0.5", "--format", "csv", "--out", str(dest)])
    assert code == 0
    lines = dest.read_text().splitlines()
    assert lines[0] == "x,y,feasible"
    cells = {tuple(line.split(",")[:2]): line.split(",")[2] for line in lines[1:]}
    assert cells[("2.0", "3.0")] == "1"


def test_region_fig2_report(ex3_file, capsys):
    code = main(["region", ex3_file, "--T", "40", "--axes", "a,b",
                 "--res", "0.5", "--hi1", "2", "--hi2", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "nonempty: yes" in out


def test_simulate_report_and_csv(ex1_file, tmp_path, capsys):
    assert main(["simulate", ex1_file, "--T", "6", "--step", "0.002"]) == 0
    out = capsys.readouterr().out
    assert "classification: nonoscillatory_positive" in out
    dest = tmp_path / "x.csv"
    assert main(["simulate", ex1_file, "--T", "6", "--step", "0.002",
                 "--format", "csv", "--out", str(dest)]) == 0
    assert dest.read_text().splitlines()[0] == "t,x"


def test_exit_codes_are_contained(tmp_path, ex1_file):
    # every command returns only 0, 1 or 2
    bad = str(tmp_path / "missing.json")
    for argv in (["validate", bad], ["check", bad], ["construct", bad],
                 ["roots", bad], ["region", bad], ["simulate", bad],
                 ["check", ex1_file, "--T", "20"]):
        assert main(argv) in (0, 1, 2)


@pytest.mark.parametrize("command", ["check", "construct"])
@pytest.mark.parametrize("step", ["0", "-0.001", "nan", "inf"])
def test_bad_step_exits_two(ex1_file, command, step, capsys):
    assert main([command, ex1_file, "--step", step]) == 2
    assert "step must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["check", "{ex1}", "--t1", "8796093022208", "--T", "8796093022212"],
    ["construct", "{ex1}", "--t1", "8796093022208", "--T", "8796093022212"],
    ["simulate", "{far}", "--T", "8796093022212"],
], ids=["check", "construct", "simulate"])
def test_a_step_below_the_float_spacing_of_the_window_exits_two(tmp_path, ex1_file, argv,
                                                                capsys):
    # floats near 2**43 are 2**-9 apart, so t1 + k * 2**-10 would repeat nodes
    files = {"ex1": ex1_file,
             "far": write_spec_file(tmp_path / "far.json", t0=8796093022208.0)}
    argv = [arg.format(**files) for arg in argv]
    assert main([*argv, "--step", "0.0009765625"]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: step 0.000976562 is too fine for times near "
                              "8.79609e+12: grid nodes would repeat\n")


def _step_option(command):
    return [] if command == "validate" else ["--step", "0.004"]


@pytest.mark.parametrize("command", ["check", "construct", "simulate", "validate"])
@pytest.mark.parametrize("a", ["1e400", "exp(exp(t))"])
def test_non_finite_coefficient_exits_two(tmp_path, command, a, capsys):
    path = write_spec_file(tmp_path / "huge.json", a=a)
    assert main([command, path, *_step_option(command)]) == 2
    assert "a(t) is not finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "construct", "simulate", "validate"])
def test_non_finite_deviation_exits_two(tmp_path, command, capsys):
    path = write_spec_file(tmp_path / "far.json", g="t-1e400")
    assert main([command, path, *_step_option(command)]) == 2
    assert "g(t) is not finite" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv, code, line", [
    # exit 1: only COR_1_5 held here, and it needs a holding base certificate
    (["check", "{huge_a}"], 1, "witness: sup_rhs_minus_b=inf t_at_sup=0 min_a_minus_b=1e+300"),
    (["check", "{long_advance}"], 1,
     "witness: searched_x_max=50 searched_y_max=50 resolution=0.01"),
    (["roots", "--a", "1e300", "--b", "1", "--tau", "0.3", "--sigma", "0.3"], 1,
     "no real roots found"),
    (["roots", "--a", "1", "--b", "1e300", "--tau", "0.3", "--sigma", "20"], 0,
     "root: 34.0284129456 residual=3.45607986674e-10 class=decaying"),
    (["check", "{huge_b_plus_plus}", "--T", "20"], 1,
     "witness: sup_nested_integral=inf t_at_sup=0 one_over_e=0.367879441171"),
    (["check", "{huge_a_minus_minus}", "--T", "20"], 1,
     "witness: sup_nested_integral=inf t_at_sup=0 one_over_e=0.367879441171"),
    # x = exp(-int u) overflows, and the equation residual reads inf - inf
    (["construct", "{x_overflows}", "--T", "20"], 1, "x_end: inf"),
    (["construct", "{kernel_overflows}", "--T", "2"], 2,
     "error: no admissible starter candidate found: u0 is not a supersolution: "
     "inequality residual inf > 1.0e-08 at t=0.001"),
    # u = a overflows every integral, and CumulativeIntegral.at reads inf - inf
    (["construct", "{huge_a_and_b}", "--T", "5"], 1,
     "caveats: extrapolation-flagged non-finite-solution"),
], ids=["check-huge-a", "check-long-advance", "roots-huge-a", "roots-huge-b",
        "check-thm-a-huge-b", "check-thm-b-huge-a", "construct-x-overflows",
        "construct-kernel-overflows", "construct-huge-a-and-b"])
def test_overflowing_exponentials_saturate_without_warnings(tmp_path, argv, code, line,
                                                             capsys):
    same_sign = dict(g="t-0.4", h="t+0.2")
    files = {"huge_a": write_spec_file(tmp_path / "huge.json", a="1e300"),
             "long_advance": write_spec_file(tmp_path / "ex4.json",
                                             **{**EXAMPLES["ex4"], "h": "t+20"}),
             "huge_b_plus_plus": write_spec_file(tmp_path / "pp.json", a="0.3", b="1e300",
                                                 delta2=1, **same_sign),
             "huge_a_minus_minus": write_spec_file(tmp_path / "mm.json", a="1e300", b="0.3",
                                                   delta1=-1, delta2=-1, **same_sign),
             "x_overflows": write_spec_file(tmp_path / "x.json", a="0", b="100",
                                            h="t+0.001"),
             "kernel_overflows": write_spec_file(tmp_path / "k.json", a="1e200", b="0.5",
                                                 h="t+0.001"),
             "huge_a_and_b": write_spec_file(tmp_path / "ab.json", a="1e308", b="1e308")}
    assert main([arg.format(**files) for arg in argv]) == code
    out, err = capsys.readouterr()
    assert line in (err if code == 2 else out).splitlines()
    assert err == (line + "\n" if code == 2 else "")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("ranges, code, report", [
    (["--lo1", "1e300", "--hi1", "1.00000001e300", "--lo2", "1e300", "--hi2",
      "1.00000001e300", "--res", "1e292"], 1, "cells: 4\nfeasible_cells: 0\nnonempty: no\n"),
    (["--lo1", "0", "--hi1", "1e-300", "--lo2", "0", "--hi2", "1e-300", "--res", "1e-301"],
     0, "cells: 100\nfeasible_cells: 100\nnonempty: yes\n"),
], ids=["huge", "tiny"])
def test_region_ab_at_extreme_coefficients_without_warnings(tmp_path, ranges, code, report,
                                                            capsys):
    # the block bounds of the SYS_30 routes overflow, and underflow to subnormals
    path = write_spec_file(tmp_path / "ex4.json", **EXAMPLES["ex4"])
    assert main(["region", path, "--axes", "a,b", *ranges]) == code
    assert capsys.readouterr().out == "axes: a b\n" + report


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("h", ["t+1e300", "1e300+t", "t+1e19", "1.7e308+t"])
def test_construct_places_far_advances_without_warnings(tmp_path, h, capsys):
    # h(t) lies past 2**63 grid steps, and for 1.7e308 past the float range
    path = write_spec_file(tmp_path / "far.json", h=h)
    assert main(["construct", path, "--T", "5"]) == 2
    out, err = capsys.readouterr()
    assert err == ("error: no admissible starter candidate found: u0 is not a "
                   "supersolution: inequality residual 5.792e-01 > 1.0e-08 at t=4.1\n")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_construct_rejects_a_seed_that_overflows_like_any_other(tmp_path, capsys):
    # the last seed, e*a, overflows: it is rejected, and no seed is left
    path = write_spec_file(tmp_path / "huge.json", a="7e307", b="0")
    assert main(["construct", path, "--T", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == ("error: no admissible starter candidate found: "
                                 "generating candidate must be finite\n")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("window", [["--T", "5"], []], ids=["T5", "default-T"])
def test_check_saturates_overflowing_deviated_integrals(tmp_path, window, capsys):
    # the node sums of a = b = 1e308 leave the float range, so the deviated
    # integrals read inf - inf; they saturate to inf, as the sups they feed do
    path = write_spec_file(tmp_path / "ab.json", a="1e308", b="1e308")
    assert main(["check", path, *window]) == 1
    out, err = capsys.readouterr()
    assert err == "" and "nan" not in out and "holds_on_window" not in out
    sups = [field for line in out.splitlines() if line.startswith("witness: sup_")
            for field in line.split()[1:2]]
    assert sups == ["sup_rhs_minus_b=inf", "sup_delay_integral=inf", "sup_rhs_minus_a=inf",
                    "sup_advance_integral=inf"]
    for case in ("delay", "advance"):
        assert (f"  {case}: sup integral inf vs 1/e 0.367879441171 certified=no"
                in out.splitlines())


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_simulate_places_a_far_delay_without_warnings(tmp_path, capsys):
    # (g - t0) / step passes the float range
    path = write_spec_file(tmp_path / "far.json", g="t-1.7e308")
    assert main(["simulate", path, "--T", "2"]) == 2
    out, err = capsys.readouterr()
    assert err == "error: window too short: no interior nodes outside the margins\n"


def test_construct_whose_solution_overflows_exits_1_with_a_caveat(tmp_path, capsys):
    # the iteration converges, but x = exp(-int u) leaves the float range
    path = write_spec_file(tmp_path / "x.json", a="0", b="100", h="t+0.001")
    assert main(["construct", path, "--T", "20"]) == 1
    out, err = capsys.readouterr()
    lines = out.splitlines()
    for line in ("converged: yes", "max_eq_residual: nan", "x_end: inf",
                 "caveats: extrapolation-flagged non-finite-solution"):
        assert line in lines
    assert err == ""


@pytest.mark.parametrize("argv, message", [
    (["roots", "--a", "1", "--b", "1", "--tau", "nan", "--sigma", "0.3"], "must be finite"),
    (["roots", "--a", "inf", "--b", "1", "--tau", "0.3", "--sigma", "0.3"], "must be finite"),
    (["roots", "--a", "1", "--b", "inf", "--tau", "0.3", "--sigma", "0.3"], "must be finite"),
    (["roots", "--a", "1", "--b", "1", "--tau", "0.3", "--sigma", "nan"], "must be finite"),
    (["region", "{ex3}", "--res", "nan"], "resolution must be positive and finite"),
    (["region", "{ex3}", "--res", "inf"], "resolution must be positive and finite"),
    (["region", "{ex3}", "--res", "0"], "resolution must be positive and finite"),
    (["region", "{ex3}", "--hi1", "inf"], "axis range must be finite"),
    # finite inputs whose cell count per axis overflows to inf
    (["region", "{ex3}", "--res", "1e-320"], "the limit of"),
    (["region", "{ex3}", "--lo1=-1e308", "--hi1", "1e308"], "the limit of"),
    # 1201 x 1601 cells
    (["region", "{ex3}", "--res", "0.005"], "the limit of"),
    (["check", "{deep}"], "deeper than"),
    (["validate", "{signs}"], "deeper than"),
    (["construct", "{sum}"], "deeper than"),
    # a roots window whose width overflows
    (["roots", "--a", "1", "--b", "1", "--tau", "0.3", "--sigma", "0.3",
      "--scan-lo=-1e308", "--scan-hi", "1e308"], "scan interval must be finite"),
    # 1-D grids over the point limit, each rejected before allocating: 1e11
    # nodes, 2e9 samples (16 GB)
    (["check", "{ex3}", "--step", "1e-9"], "the limit of"),
    (["simulate", "{ex3}", "--step", "1e-9"], "the limit of"),
    (["validate", "{ex3}", "--samples", "2000000000"], "the limit of"),
    # about 1.6e11 periods, each with critical points of ex3's sinusoids
    (["region", "{ex3}", "--axes", "x,y", "--T", "1e12"], "the limit of"),
    # out-of-range numeric options, rejected by the library functions behind them
    (["construct", "{ex1}", "--T", "2", "--tol", "inf"], "tol must be positive and finite"),
    (["construct", "{ex1}", "--T", "2", "--tol", "nan"], "tol must be positive and finite"),
    (["construct", "{ex1}", "--T", "2", "--max-iter=-3"], "max_iter must be at least 1"),
    (["simulate", "{ex1}", "--T", "1", "--tol", "inf"], "tol must be positive and finite"),
    (["simulate", "{ex1}", "--T", "1", "--tol", "nan"], "tol must be positive and finite"),
    (["simulate", "{ex1}", "--T", "1", "--tol=-inf"], "tol must be positive and finite"),
    (["simulate", "{ex1}", "--T", "1", "--step", "0.01", "--t-from", "nan"],
     "t_from outside the trajectory domain"),
    # constants that fold to nan or inf: roots and region run no validation, so
    # extract_bounds rejects them
    (["roots", "{exp_overflow}"], "the range of a on the window is not finite"),
    (["region", "{exp_overflow}", "--axes", "x,y"], "the range of a on the window is not finite"),
    (["roots", "{inf_product}"], "the range of a on the window is not finite"),
    (["region", "{inf_product}", "--axes", "x,y"], "the range of a on the window is not finite"),
], ids=["roots-tau-nan", "roots-a-inf", "roots-b-inf", "roots-sigma-nan",
        "region-res-nan", "region-res-inf", "region-res-0", "region-hi-inf",
        "region-res-subnormal", "region-span-overflow",
        "region-too-many-cells", "check-brackets", "validate-signs", "construct-sum",
        "roots-scan-overflow", "check-too-many-nodes",
        "simulate-too-many-nodes", "validate-too-many-samples",
        "region-envelope-too-many-periods",
        "construct-tol-inf", "construct-tol-nan", "construct-max-iter-negative",
        "simulate-tol-inf", "simulate-tol-nan", "simulate-tol-minus-inf",
        "simulate-t-from-nan", "roots-exp-overflow", "region-exp-overflow",
        "roots-inf-product", "region-inf-product"])
def test_out_of_range_input_exits_two(tmp_path, ex1_file, ex3_file, argv, message, capsys):
    files = {"ex1": ex1_file, "ex3": ex3_file,
             "deep": write_spec_file(tmp_path / "deep.json", a="(" * 400 + "1" + ")" * 400),
             "signs": write_spec_file(tmp_path / "signs.json", a="-" * 3000 + "1"),
             "sum": write_spec_file(tmp_path / "sum.json", a="1.4" + "+0" * 3000),
             "exp_overflow": write_spec_file(tmp_path / "nan.json", **{
                 **EXAMPLES["ex4"], "a": "1+exp(1000)*0", "b": "2"}),
             "inf_product": write_spec_file(tmp_path / "inf.json", **{
                 **EXAMPLES["ex4"], "a": "1e308*10", "b": "2"})}
    assert main([arg.format(**files) for arg in argv]) == 2
    assert message in capsys.readouterr().err


def _options(kind: type) -> list[tuple[str, str]]:
    """(subcommand, option) for every option parsed as kind, choices excluded."""
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return [(name, action.option_strings[0])
            for name, parser in sub.choices.items() for action in parser._actions
            if action.type is kind and action.choices is None]


# short windows and coarse steps; the swept option is appended, and argparse
# keeps its last occurrence
_SWEEP_BASES = {
    "validate": ["validate", "{ex1}", "--T", "2", "--samples", "101"],
    "check": ["check", "{ex1}", "--T", "2", "--step", "0.01"],
    "construct": ["construct", "{ex1}", "--T", "2", "--step", "0.01"],
    "roots": ["roots", "--a", "1.4", "--b", "1.3", "--tau", "0.3", "--sigma", "0.3"],
    "region": ["region", "{ex3}", "--T", "2", "--res", "0.5"],
    "simulate": ["simulate", "{ex1}", "--T", "1", "--step", "0.01"],
}
_WINDOW_OPTIONS = ("--t1", "--T")  # roots reads the window only from a spec file


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command, option, value", [
    *((cmd, opt, v) for cmd, opt in _options(float) for v in ("nan", "inf", "-inf")),
    *((cmd, opt, v) for cmd, opt in _options(int) for v in ("0", "-1")),
])
def test_argv_sweep_rejects_non_finite_and_non_positive_options(
        ex1_file, ex3_file, command, option, value, capsys):
    base = _SWEEP_BASES[command]
    if command == "roots" and option in _WINDOW_OPTIONS:
        base = ["roots", "{ex1}"]
    argv = [arg.format(ex1=ex1_file, ex3=ex3_file) for arg in base]
    try:
        code = main([*argv, f"{option}={value}"])
    except SystemExit as exc:  # argparse rejects the value itself
        code = exc.code
    assert code == 2
    assert any("error:" in line for line in capsys.readouterr().err.splitlines())


@pytest.mark.parametrize("command, field, value", [
    ("validate", "t0", None), ("check", "t0", None), ("simulate", "t0", None),
    ("validate", "t0", [1]), ("check", "t0", "zero"), ("simulate", "x0", None),
    ("simulate", "x0", [1]), ("simulate", "x0", {"x": 1}),
], ids=["validate-t0-null", "check-t0-null", "simulate-t0-null", "validate-t0-list",
        "check-t0-text", "simulate-x0-null", "simulate-x0-list", "simulate-x0-object"])
def test_non_numeric_t0_or_x0_exits_two(tmp_path, command, field, value, capsys):
    path = write_spec_file(tmp_path / "bad.json", **{field: value})
    assert main([command, path, "--T", "2"]) == 2
    assert f"error: {field} in {path!r} must be a number" in capsys.readouterr().err


def test_check_samples_the_window_once(ex2_file, sampled_builds, capsys):
    assert main(["check", ex2_file]) == 0
    assert [args[1:] for args in sampled_builds] == [((0.0, 100.0), 1e-3)]
    assert "note: pure sub-equation" in capsys.readouterr().out


def test_module_entry_point(ex1_file):
    src = str(Path(mixedde.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-m", "mixedde.cli", "check", ex1_file,
                           "--step", "0"], env=env, capture_output=True, text=True)
    assert done.returncode == 2
    assert "step must be positive and finite" in done.stderr


def test_out_of_range_t_from_is_rejected_before_relax(ex1_file, monkeypatch, capsys):
    def no_relax(*args, **kwargs):
        raise AssertionError("relax ran")

    monkeypatch.setattr(simulate, "relax", no_relax)
    for t_from in ("1e9", "-0.5", "10.01"):
        assert main(["simulate", ex1_file, f"--t-from={t_from}"]) == 2
        assert "error: t_from outside the trajectory domain" in capsys.readouterr().err
    # the domain's own ends, up to the 1e-12 slack, still reach relax
    for t_from in ("0", "10", "-1e-13", "10.0000000000001"):
        with pytest.raises(AssertionError, match="relax ran"):
            main(["simulate", ex1_file, f"--t-from={t_from}"])
