import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mixedde
from mixedde import charroots, simulate
from mixedde.cli import (_COMMANDS, cmd_check, cmd_construct, cmd_region, cmd_roots,
                         cmd_simulate, cmd_validate, main)

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
    broken = tmp_path / "broken.json"
    broken.write_text("{")
    deep = tmp_path / "deep.json"  # too deep for json.load's recursion
    deep.write_text("[" * 100000 + "]" * 100000)
    invalid = write_spec_file(tmp_path / "invalid.json", b="-1")
    for argv in (["check", str(missing)], ["check", str(broken)], ["check", str(deep)],
                 ["validate", str(deep)], ["simulate", str(deep)], ["check", invalid]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1


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


@pytest.mark.parametrize("option", ["--t1", "--T"])
def test_roots_takes_no_window(ex1_file, option, capsys):
    # a constant spec reads the same on every window
    with pytest.raises(SystemExit) as exc:
        main(["roots", ex1_file, option, "5"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option} 5" in capsys.readouterr().err


def test_region_envelope_over_1e12_periods_is_the_one_over_100(ex3_file, capsys):
    # the closed-form extremes take no scan over the window's periods
    assert main(["region", ex3_file, "--axes", "x,y", "--T", "1e12"]) == 0
    golden = Path(__file__).parent / "golden" / "region_ex3_xy.txt"
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


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
    # relax's gain probe: the sweep map's Rayleigh quotient overflows
    (["simulate", "{huge_b}", "--T", "1", "--step", "0.01"], 1,
     "caveats: amplifying-advance-feedback damped-sweeps-0.015625"),
    # the 1/e reference line a*tau + b*sigma overflows
    (["region", "{far_advance}", "--axes", "a,b", "--res", "0.5"], 1, "feasible_cells: 0"),
], ids=["check-huge-a", "check-long-advance", "roots-huge-a", "roots-huge-b",
        "check-thm-a-huge-b", "check-thm-b-huge-a", "construct-x-overflows",
        "construct-kernel-overflows", "construct-huge-a-and-b", "simulate-gain-overflows",
        "region-reference-overflows"])
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
             "huge_a_and_b": write_spec_file(tmp_path / "ab.json", a="1e308", b="1e308"),
             "huge_b": write_spec_file(tmp_path / "b.json", b="7e307", x0=1),
             "far_advance": write_spec_file(tmp_path / "far.json",
                                            **{**EXAMPLES["ex4"], "h": "t+7e307"})}
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


def test_construct_on_a_window_shorter_than_the_margins_blames_the_window(ex1_file, capsys):
    # tau + sigma = 0.6: the first seed converges, and its equation residual
    # has no interior node; no other seed is tried
    assert main(["construct", ex1_file, "--T", "0.001"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: window too short: no interior nodes outside the margins\n"


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
    # charroots.CharProblem and extract_bounds reject them
    (["roots", "{exp_overflow}"], "a, b, tau and sigma must be finite"),
    (["region", "{exp_overflow}", "--axes", "x,y"], "the range of a on the window is not finite"),
    (["roots", "{inf_product}"], "a, b, tau and sigma must be finite"),
    (["region", "{inf_product}", "--axes", "x,y"], "the range of a on the window is not finite"),
    # what cmd_roots and cmd_region check themselves
    (["roots", "{varying_delay}"], "roots needs a constant delay"),
    # a coefficient that varies at all, however little over a window
    (["roots", "{slow_drift}"], "roots needs constant coefficients"),
    (["roots", "--a", "1"], "roots needs either a spec file or all of --a --b --tau --sigma"),
    (["region", "{ex3}", "--axes", "a"], "--axes must name two axes"),
    (["region", "{ex3}", "--axes", "x,b"], "--axes must be x,y or a,b"),
], ids=["roots-tau-nan", "roots-a-inf", "roots-b-inf", "roots-sigma-nan",
        "region-res-nan", "region-res-inf", "region-res-0", "region-hi-inf",
        "region-res-subnormal", "region-span-overflow",
        "region-too-many-cells", "check-brackets", "validate-signs", "construct-sum",
        "roots-scan-overflow", "check-too-many-nodes",
        "simulate-too-many-nodes", "validate-too-many-samples",
        "construct-tol-inf", "construct-tol-nan", "construct-max-iter-negative",
        "simulate-tol-inf", "simulate-tol-nan", "simulate-tol-minus-inf",
        "simulate-t-from-nan", "roots-exp-overflow", "region-exp-overflow",
        "roots-inf-product", "region-inf-product", "roots-varying-delay", "roots-slow-drift",
        "roots-missing-parameters", "region-one-axis", "region-mixed-axes"])
def test_out_of_range_input_exits_two(tmp_path, ex1_file, ex3_file, argv, message, capsys):
    files = {"ex1": ex1_file, "ex3": ex3_file,
             "deep": write_spec_file(tmp_path / "deep.json", a="(" * 400 + "1" + ")" * 400),
             "signs": write_spec_file(tmp_path / "signs.json", a="-" * 3000 + "1"),
             "sum": write_spec_file(tmp_path / "sum.json", a="1.4" + "+0" * 3000),
             "exp_overflow": write_spec_file(tmp_path / "nan.json", **{
                 **EXAMPLES["ex4"], "a": "1+exp(1000)*0", "b": "2"}),
             "inf_product": write_spec_file(tmp_path / "inf.json", **{
                 **EXAMPLES["ex4"], "a": "1e308*10", "b": "2"}),
             "varying_delay": write_spec_file(tmp_path / "delay.json", g="t-0.3-0.1*cos(t)"),
             "slow_drift": write_spec_file(tmp_path / "drift.json", a="1.4+1e-12*t")}
    assert main([arg.format(**files) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert message in err


def _options(kind: type) -> list[tuple[str, str]]:
    """(subcommand, option) for every option parsed as kind, choices excluded."""
    return [(name, arg) for name, (_, _, arguments) in _COMMANDS.items()
            for arg, kwargs in arguments
            if kwargs.get("type") is kind and "choices" not in kwargs]


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command, option, value", [
    *((cmd, opt, v) for cmd, opt in _options(float) for v in ("nan", "inf", "-inf")),
    *((cmd, opt, v) for cmd, opt in _options(int) for v in ("0", "-1")),
])
def test_argv_sweep_rejects_non_finite_and_non_positive_options(
        ex1_file, ex3_file, command, option, value, capsys):
    argv = [arg.format(ex1=ex1_file, ex3=ex3_file) for arg in _SWEEP_BASES[command]]
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
    ("check", "t0", True), ("simulate", "x0", False),
    ("validate", "t0", "1.5"), ("check", "t0", "1.5"), ("simulate", "t0", "0"),
    ("simulate", "x0", " 2 "), ("check", "t0", 10**400),
], ids=["validate-t0-null", "check-t0-null", "simulate-t0-null", "validate-t0-list",
        "check-t0-text", "simulate-x0-null", "simulate-x0-list", "simulate-x0-object",
        "check-t0-true", "simulate-x0-false", "validate-t0-numeric-string",
        "check-t0-numeric-string", "simulate-t0-numeric-string",
        "simulate-x0-spaced-numeric-string", "check-t0-integer-beyond-float"])
def test_non_numeric_t0_or_x0_exits_two(tmp_path, command, field, value, capsys):
    path = write_spec_file(tmp_path / "bad.json", **{field: value})
    assert main([command, path, "--T", "2"]) == 2
    assert capsys.readouterr().err == (
        f"error: {field} in {path!r} must be a number, got {value!r}\n")


@pytest.mark.parametrize("command, field", [
    ("validate", "t0"), ("check", "t0"), ("simulate", "t0"),
    ("validate", "delta1"), ("check", "delta1"), ("simulate", "delta1"),
    ("simulate", "x0"),  # simulate alone reads x0
])
def test_integer_past_the_digit_limit_exits_two(tmp_path, command, field, capsys):
    # 5000 digits: more than int() reads by default (4300), so json.dumps
    # cannot write the literal either
    path = write_spec_file(tmp_path / "long.json", **{field: "@"})
    Path(path).write_text(Path(path).read_text().replace('"@"', "7" * 5000))
    assert main([command, path, "--T", "2"]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and repr(path) in line and field in line
    assert "7777" not in line and "sys." not in line


@pytest.mark.parametrize("field", ["a", "b", "g", "h"])
def test_bad_expression_names_its_field(tmp_path, field, capsys):
    path = write_spec_file(tmp_path / "bad.json", **{field: "sin t"})
    assert main(["check", path, "--T", "2"]) == 2
    assert capsys.readouterr().err == (f"error: bad expression for {field!r} in {path!r}: "
                                       "expected '(' after 'sin' (at position 4)\n")


def test_check_survives_an_envelope_ratio_that_underflows(tmp_path, capsys):
    # a1/b2 = 5e-324/1000 underflows to 0 and b1/a2 overflows, so COR_3_1 takes
    # each log bound as a difference of logs over tau + sigma = 0.5
    path = write_spec_file(tmp_path / "tiny.json", a="5e-324", b="1000", g="t-0.2",
                           h="t+0.3", delta1=-1, delta2=1)
    assert main(["check", path]) == 0
    out = capsys.readouterr().out
    assert ("condition: COR_3_1_C1\nverdict: fails_on_window\nwindow: 0 .. 100\n"
            "witness: b2_lt_a1=no gap=-1000 log_bound=-1502.6956544\n") in out
    assert ("condition: COR_3_1_C2\nverdict: holds_on_window\nwindow: 0 .. 100\n"
            "witness: a2_lt_b1=yes gap=1000 log_bound=1502.6956544\n") in out


@pytest.mark.parametrize("field", ["delta1", "delta2"])
def test_boolean_signs_exit_two(tmp_path, field, capsys):
    path = write_spec_file(tmp_path / "bool.json", **{field: True})  # True == 1
    assert main(["check", path, "--T", "2"]) == 2
    assert capsys.readouterr().err == f"error: delta1/delta2 in {path!r} must be +1 or -1\n"


def test_whole_floats_are_still_numbers(tmp_path, capsys):
    path = write_spec_file(tmp_path / "floats.json", delta1=1.0, delta2=-1.0, t0=0, x0=1)
    assert main(["simulate", path, "--T", "1", "--step", "0.01"]) == 0
    assert main(["check", path, "--T", "2", "--step", "0.01"]) == 0
    assert capsys.readouterr().err == ""


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


# -- the CLI parser as first written, the oracle of the _COMMANDS table --------
# Copied from the function the table replaced, with its two helpers; only its
# name is changed, and roots has since lost its window options (--t1, --T). It
# builds every subcommand's arguments on every call.

def _add_window_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--t1", type=float, default=None,
                   help="window start (default: the spec's t0)")
    p.add_argument("--T", type=float, default=None,
                   help="window end (default: t1 + 100)")


def _add_io_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("report", "csv"), default="report")
    p.add_argument("--out", default=None, help="write output to this path")


def _parser_as_first_written() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="mixedde",
        description="Nonoscillation certificates and positive-solution "
                    "construction for mixed delay-advanced equations.")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="check the standing hypotheses by sampling")
    v.add_argument("spec")
    _add_window_args(v)
    v.add_argument("--samples", type=int, default=10001)
    v.add_argument("--out", default=None)
    v.set_defaults(fn=cmd_validate)

    c = sub.add_parser("check", help="run every sufficient condition")
    c.add_argument("spec")
    _add_window_args(c)
    c.add_argument("--step", type=float, default=1e-3)
    _add_io_args(c)
    c.set_defaults(fn=cmd_check)

    k = sub.add_parser("construct", help="build a positive monotone solution")
    k.add_argument("spec")
    _add_window_args(k)
    k.add_argument("--step", type=float, default=1e-3)
    k.add_argument("--tol", type=float, default=1e-8)
    k.add_argument("--max-iter", type=int, default=10000)
    _add_io_args(k)
    k.set_defaults(fn=cmd_construct)

    r = sub.add_parser("roots", help="real characteristic roots of an autonomous equation")
    r.add_argument("spec", nargs="?", default=None,
                   help="constant-coefficient spec file (optional)")
    r.add_argument("--a", type=float, default=None)
    r.add_argument("--b", type=float, default=None)
    r.add_argument("--tau", type=float, default=None)
    r.add_argument("--sigma", type=float, default=None)
    r.add_argument("--delta1", type=int, choices=(-1, 1), default=1)
    r.add_argument("--delta2", type=int, choices=(-1, 1), default=-1)
    r.add_argument("--convention", choices=("plus_exponent", "minus_exponent"),
                   default=None)
    r.add_argument("--scan-lo", type=float, default=charroots.DEFAULT_SCAN[0])
    r.add_argument("--scan-hi", type=float, default=charroots.DEFAULT_SCAN[1])
    _add_io_args(r)
    r.set_defaults(fn=cmd_roots)

    g = sub.add_parser("region", help="feasibility-region sweep (CSV for plotting)")
    g.add_argument("spec")
    _add_window_args(g)
    g.add_argument("--axes", default="x,y", help="x,y or a,b")
    g.add_argument("--res", type=float, default=0.05)
    g.add_argument("--lo1", type=float, default=None)
    g.add_argument("--hi1", type=float, default=None)
    g.add_argument("--lo2", type=float, default=None)
    g.add_argument("--hi2", type=float, default=None)
    _add_io_args(g)
    g.set_defaults(fn=cmd_region)

    s = sub.add_parser("simulate", help="direct numerical integration of the IVP")
    s.add_argument("spec")
    s.add_argument("--T", type=float, default=None)
    s.add_argument("--step", type=float, default=1e-3)
    s.add_argument("--tol", type=float, default=None)
    s.add_argument("--max-sweeps", type=int, default=200)
    s.add_argument("--t-from", type=float, default=None,
                   help="classification start time (default: t0)")
    _add_io_args(s)
    s.set_defaults(fn=cmd_simulate)
    return p


def _main_as_first_written(argv):
    args = _parser_as_first_written().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


_ORACLE_ARGVS = [
    *([name, *help_] for name in _COMMANDS for help_ in (["--help"], ["-h"], [])),
    [], ["--help"], ["-h"], ["-h", "check"],
    ["bogus"], ["--foo", "check", "{ex1}"], ["--foo=1", "check", "{ex1}"],
    # the first token without a leading '-' names the subcommand
    ["-1", "check"], ["--", "check", "{ex1}", "--T", "2", "--step", "0.01"],
    ["check", "{ex1}", "--step", "x"], ["roots", "--delta1", "3"],
    ["roots", "{ex1}", "--T", "5"],
    ["check", "{ex1}", "--T", "2", "--bogus"], ["region", "{ex3}", "--res"],
    # a subcommand given first whose argv still reaches an error
    ["check", "{ex1}", "extra"], ["region", "{ex3}", "--axes", "a,b", "--nope"],
    ["check", "--T", "2"],
    ["validate", "{ex1}", "--T", "2", "--samples", "101"],
    ["check", "{ex1}", "--T", "2", "--step", "0.01"],
    ["construct", "{ex1}", "--T", "2", "--step", "0.01"],
    ["roots", "--a", "1.4", "--b", "1.3", "--tau", "0.3", "--sigma", "0.3"],
    ["region", "{ex3}", "--T", "2", "--res", "0.5"],
    ["simulate", "{ex1}", "--T", "1", "--step", "0.01"],
]


def _outcome(run, argv, capsys):
    try:
        code = run(argv)
    except SystemExit as exc:  # --help, and argparse's own errors
        code = exc.code
    return (code, *capsys.readouterr())


@pytest.mark.parametrize("argv", _ORACLE_ARGVS, ids=lambda argv: " ".join(argv) or "none")
def test_main_matches_the_parser_as_first_written(ex1_file, ex3_file, argv, monkeypatch,
                                                   capsys):
    monkeypatch.setenv("COLUMNS", "80")
    argv = [arg.format(ex1=ex1_file, ex3=ex3_file) for arg in argv]
    assert _outcome(main, argv, capsys) == _outcome(_main_as_first_written, argv, capsys)


@pytest.mark.parametrize("argv", [
    ["validate", "{ex1}", "--samples", "101"],
    ["check", "{ex1}", "--format", "csv"],
    ["construct", "{ex1}", "--T", "2", "--max-iter", "5"],
    ["roots", "--a", "1", "--b", "1", "--tau", "0.3", "--sigma", "0.3", "--delta1=-1"],
    ["region", "{ex3}", "--axes", "a,b", "--lo1", "0.5"],
    ["simulate", "{ex1}", "--t-from", "1"],
], ids=lambda argv: argv[0])
def test_parsed_namespace_matches_the_parser_as_first_written(ex1_file, ex3_file, argv,
                                                               monkeypatch):
    argv = [arg.format(ex1=ex1_file, ex3=ex3_file) for arg in argv]
    seen = []

    def record(args):
        seen.append(args)
        return 0

    help_, fn, arguments = _COMMANDS[argv[0]]
    monkeypatch.setitem(_COMMANDS, argv[0], (help_, record, arguments))
    assert main(argv) == 0
    want = _parser_as_first_written().parse_args(argv)
    assert want.fn is fn
    assert vars(seen[0]) == {**vars(want), "fn": record}


@pytest.mark.parametrize("argv, first", [
    (["check", "{ex1}"], True), (["region", "{ex3}", "--nope"], True),
    (["-h", "check"], False), (["--foo", "check", "{ex1}"], False),
    (["--", "check", "{ex1}"], False),
], ids=lambda arg: " ".join(arg) if isinstance(arg, list) else None)
def test_a_subcommand_given_first_is_the_only_parser_built(ex1_file, ex3_file, argv, first,
                                                            monkeypatch, capsys):
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    help_, _, arguments = _COMMANDS["check"]
    monkeypatch.setitem(_COMMANDS, "check", (help_, lambda args: 0, arguments))
    argv = [arg.format(ex1=ex1_file, ex3=ex3_file) for arg in argv]
    _outcome(main, argv, capsys)
    assert built == ([argv[0]] if first else list(_COMMANDS))
