"""Command-line front end: validate, check, construct, roots, region, simulate.

Exit codes: 0 success (certificate found / converged / hypotheses pass),
1 negative outcome (no certificate, non-convergence, a constructed solution
that overflows, hypothesis failure),
2 usage or input error. Machine-readable output carries no timestamps, so
identical inputs produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext

import numpy as np

from . import charroots, construct, criteria, model, simulate
from .gridfn import grid_cells

__all__ = ["main"]


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, float):
        return f"{v:.12g}"
    if isinstance(v, tuple):
        return "(" + ";".join(_fmt(x) for x in v) + ")"
    return str(v)


def _open_out(path: str | None):
    if path is None:
        return nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8")


def _certificate_block(cert: criteria.Certificate) -> str:
    lines = [
        f"condition: {cert.condition_id}",
        f"verdict: {cert.verdict}",
        f"window: {_fmt(cert.window[0])} .. {_fmt(cert.window[1])}",
    ]
    if cert.witness:
        parts = " ".join(f"{k}={_fmt(v)}" for k, v in cert.witness.items())
        lines.append(f"witness: {parts}")
    if cert.caveats:
        lines.append("caveats: " + " ".join(cert.caveats))
    return "\n".join(lines) + "\n"


def _certificates_csv(certs: list[criteria.Certificate], dest) -> None:
    dest.write("condition,verdict,t1,T,witness,caveats\n")
    for c in certs:
        witness = ";".join(f"{k}={_fmt(v)}" for k, v in (c.witness or {}).items())
        caveats = ";".join(c.caveats)
        dest.write(f"{c.condition_id},{c.verdict},{_fmt(c.window[0])},"
                   f"{_fmt(c.window[1])},\"{witness}\",\"{caveats}\"\n")


def _window(spec: model.ProblemSpec, args) -> tuple[float, float]:
    t1 = spec.t0 if args.t1 is None else args.t1
    T = t1 + 100.0 if args.T is None else args.T
    if not -np.inf < t1 < T < np.inf:  # also False for NaN
        raise ValueError("--t1 and --T must be finite, and --T must exceed --t1")
    return (t1, T)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_validate(args) -> int:
    spec = model.read_spec(args.spec)
    window = _window(spec, args)
    report = model.validate_spec(spec, window, args.samples)
    with _open_out(args.out) as out:
        out.write(f"window: {_fmt(window[0])} .. {_fmt(window[1])}\n")
        out.write(f"samples: {report.samples}\n")
        for c in report.checks:
            line = f"hypothesis: {c.hypothesis} {'pass' if c.passed else 'FAIL'}"
            if not c.passed:
                line += f" at t={_fmt(c.t_violation)} value={_fmt(c.value)}"
            out.write(line + "\n")
    return 0 if report.passed else 1


def cmd_check(args) -> int:
    spec = model.read_spec(args.spec)
    window = _window(spec, args)
    report = model.validate_spec(spec, window, 10001)
    if not report.passed:
        bad = ", ".join(c.hypothesis for c in report.failures())
        raise ValueError(f"spec violates standing hypotheses on the window: {bad}")
    certs = criteria.check_all(spec, window, step=args.step)
    with _open_out(args.out) as out:
        if args.format == "csv":
            _certificates_csv(certs, out)
        else:
            for cert in certs:
                out.write(_certificate_block(cert) + "\n")
            if spec.sign_pattern == (1, -1):
                note = criteria.subequation_one_over_e_note(certs)
                out.write("note: pure sub-equation 1/e diagnostics\n")
                out.write(f"  delay: sup integral {_fmt(note['delay_integral_sup'])}"
                          f" vs 1/e {_fmt(note['one_over_e'])}"
                          f" certified={_fmt(note['delay_certified'])}\n")
                out.write(f"  advance: sup integral {_fmt(note['advance_integral_sup'])}"
                          f" vs 1/e {_fmt(note['one_over_e'])}"
                          f" certified={_fmt(note['advance_certified'])}\n")
    return 0 if any(c.holds for c in certs) else 1


def cmd_construct(args) -> int:
    spec = model.read_spec(args.spec)
    window = _window(spec, args)
    result = construct.auto_construct(spec, window, step=args.step, tol=args.tol,
                                      max_iter=args.max_iter)
    with _open_out(args.out) as out:
        if args.format == "csv":
            result.to_csv(out)
        else:
            out.write(f"converged: {_fmt(result.converged)}\n")
            out.write(f"iterations: {result.iterations}\n")
            out.write(f"max_ineq_residual: {_fmt(result.max_ineq_residual)}\n")
            out.write(f"max_eq_residual: {_fmt(result.max_eq_residual)}\n")
            out.write(f"caveats: {' '.join(result.caveats) or '-'}\n")
            out.write(f"x_end: {_fmt(float(result.x.values[-1]))}\n")
    return 0 if result.converged and construct.CAVEAT_NONFINITE not in result.caveats else 1


def _constant_problem_from_spec(args) -> charroots.CharProblem:
    spec = model.read_spec(args.spec)
    a, b, g, h = map(model._affine_parts, (spec.a, spec.b, spec.g, spec.h))
    if not (a and b and a[1:] == b[1:] == (0.0, 0.0, 0.0)):
        raise ValueError("roots needs constant coefficients; pass --a/--b/--tau/--sigma "
                         "explicitly for a variable-coefficient equation's envelope")
    for parts, name in ((g, "delay"), (h, "advance")):
        if not (parts and parts[1:] == (1.0, 0.0, 0.0)):  # t plus a constant
            raise ValueError(f"roots needs a constant {name}; pass the parameters "
                             "explicitly instead")
    convention = args.convention or (
        "minus_exponent" if (spec.delta1, spec.delta2) == (1, -1) else "plus_exponent")
    return charroots.CharProblem(a[0], b[0], 0.0 - g[0], h[0],  # tau as t - g's parts give it
                                 spec.delta1, spec.delta2, convention)


def cmd_roots(args) -> int:
    if args.spec is not None:
        problem = _constant_problem_from_spec(args)
    else:
        missing = [n for n in ("a", "b", "tau", "sigma")
                   if getattr(args, n) is None]
        if missing:
            raise ValueError("roots needs either a spec file or all of "
                             "--a --b --tau --sigma")
        problem = charroots.CharProblem(
            args.a, args.b, args.tau, args.sigma, args.delta1, args.delta2,
            args.convention or "minus_exponent")
    rs = charroots.find_real_roots(problem, scan=(args.scan_lo, args.scan_hi))
    with _open_out(args.out) as out:
        if args.format == "csv":
            charroots.write_roots_csv(rs, out)
        else:
            out.write(f"scan: {_fmt(rs.brackets_scanned)}\n")
            if not rs.roots:
                out.write("no real roots found\n")
            for r, res, tag in zip(rs.roots, rs.residuals, rs.classifications):
                out.write(f"root: {_fmt(r)} residual={_fmt(res)} class={tag}\n")
    return 0 if rs.roots else 1


def cmd_region(args) -> int:
    spec = model.read_spec(args.spec)
    window = _window(spec, args)
    bounds = model.extract_bounds(spec, window)
    axes = tuple(args.axes.split(","))
    if len(axes) != 2:
        raise ValueError("--axes must name two axes, e.g. x,y or a,b")
    defaults = {("x", "y"): ((0.0, 6.0), (0.0, 8.0)),
                ("a", "b"): ((0.0, 3.0), (0.0, 3.0))}
    if axes not in defaults:
        raise ValueError("--axes must be x,y or a,b")
    d1, d2 = defaults[axes]
    r1 = (d1[0] if args.lo1 is None else args.lo1,
          d1[1] if args.hi1 is None else args.hi1)
    r2 = (d2[0] if args.lo2 is None else args.lo2,
          d2[1] if args.hi2 is None else args.hi2)
    region = criteria.sweep_region(bounds, axes[0], axes[1], (r1, r2), args.res)
    with _open_out(args.out) as out:
        if args.format == "report":
            out.write(f"axes: {region.axis1_name} {region.axis2_name}\n")
            out.write(f"cells: {region.feasible.size}\n")
            out.write(f"feasible_cells: {int(np.sum(region.feasible))}\n")
            out.write(f"nonempty: {_fmt(region.nonempty)}\n")
        else:
            region.to_csv(out)
    return 0 if region.nonempty else 1


def cmd_simulate(args) -> int:
    ivp = model.read_ivp(args.spec)
    t0 = ivp.spec.t0
    T = args.T if args.T is not None else t0 + 10.0
    t_from = args.t_from if args.t_from is not None else t0
    if args.t_from is not None and T > t0:  # classify_trajectory's check, before relax
        if not t0 - 1e-12 <= t_from <= t0 + args.step * grid_cells(t0, T, args.step) + 1e-12:
            raise ValueError("t_from outside the trajectory domain")
    traj = simulate.relax(ivp, T, args.step, tol=args.tol,
                          max_sweeps=args.max_sweeps)
    label = simulate.classify_trajectory(traj, t_from)
    with _open_out(args.out) as out:
        if args.format == "csv":
            out.write("t,x\n")
            for t, v in zip(traj.x.times(), traj.x.values):
                out.write(f"{float(t)!r},{float(v)!r}\n")
        else:
            out.write(f"converged: {_fmt(traj.converged)}\n")
            out.write(f"sweeps: {traj.relaxation_iterations}\n")
            out.write(f"relaxation_residual: {_fmt(traj.relaxation_residual)}\n")
            out.write(f"equation_residual: {_fmt(traj.equation_residual)}\n")
            out.write(f"classification: {label}\n")
            out.write(f"caveats: {' '.join(traj.caveats) or '-'}\n")
            out.write(f"x_end: {_fmt(float(traj.x.values[-1]))}\n")
    return 0 if traj.converged else 1


# ---------------------------------------------------------------------------
# Parser: per subcommand, its help, handler and arguments in --help order
# ---------------------------------------------------------------------------

_SPEC = ("spec", {})
_WINDOW = (("--t1", {"type": float, "help": "window start (default: the spec's t0)"}),
           ("--T", {"type": float, "help": "window end (default: t1 + 100)"}))
_STEP = ("--step", {"type": float, "default": 1e-3})
_IO = (("--format", {"choices": ("report", "csv"), "default": "report"}),
       ("--out", {"help": "write output to this path"}))

_COMMANDS = {
    "validate": ("check the standing hypotheses by sampling", cmd_validate, (
        _SPEC, *_WINDOW,
        ("--samples", {"type": int, "default": 10001}),
        ("--out", {}))),
    "check": ("run every sufficient condition", cmd_check, (_SPEC, *_WINDOW, _STEP, *_IO)),
    "construct": ("build a positive monotone solution", cmd_construct, (
        _SPEC, *_WINDOW, _STEP,
        ("--tol", {"type": float, "default": 1e-8}),
        ("--max-iter", {"type": int, "default": 10000}),
        *_IO)),
    "roots": ("real characteristic roots of an autonomous equation", cmd_roots, (
        ("spec", {"nargs": "?", "help": "constant-coefficient spec file (optional)"}),
        ("--a", {"type": float}),
        ("--b", {"type": float}),
        ("--tau", {"type": float}),
        ("--sigma", {"type": float}),
        ("--delta1", {"type": int, "choices": (-1, 1), "default": 1}),
        ("--delta2", {"type": int, "choices": (-1, 1), "default": -1}),
        ("--convention", {"choices": ("plus_exponent", "minus_exponent")}),
        ("--scan-lo", {"type": float, "default": charroots.DEFAULT_SCAN[0]}),
        ("--scan-hi", {"type": float, "default": charroots.DEFAULT_SCAN[1]}),
        *_IO)),
    "region": ("feasibility-region sweep (CSV for plotting)", cmd_region, (
        _SPEC, *_WINDOW,
        ("--axes", {"default": "x,y", "help": "x,y or a,b"}),
        ("--res", {"type": float, "default": 0.05}),
        ("--lo1", {"type": float}),
        ("--hi1", {"type": float}),
        ("--lo2", {"type": float}),
        ("--hi2", {"type": float}),
        *_IO)),
    "simulate": ("direct numerical integration of the IVP", cmd_simulate, (
        _SPEC,
        ("--T", {"type": float}),
        _STEP,
        ("--tol", {"type": float}),
        ("--max-sweeps", {"type": int, "default": 200}),
        ("--t-from", {"type": float, "help": "classification start time (default: t0)"}),
        *_IO)),
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # argparse's subcommand is the first token without a leading '-', as -h is
    # the only top-level option; only that subcommand gets its arguments
    chosen = next((arg for arg in argv if not arg.startswith("-")), None)
    parser = argparse.ArgumentParser(prog="mixedde", description=(
        "Nonoscillation certificates and positive-solution construction for mixed "
        "delay-advanced equations."))
    if argv[:1] and argv[0] in _COMMANDS:
        # nothing before the subcommand can print the top-level help, so only
        # its parser is built; the metavar argparse would derive from all six
        # keeps the top-level usage line, printed for an unrecognized argument
        names = argv[:1]
        sub = parser.add_subparsers(dest="command", required=True,
                                    metavar="{" + ",".join(_COMMANDS) + "}")
    else:
        names = _COMMANDS
        sub = parser.add_subparsers(dest="command", required=True)
    for name in names:
        help_, fn, arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=help_)
        p.set_defaults(fn=fn)
        for arg, kwargs in arguments if name == chosen else ():
            p.add_argument(arg, **kwargs)
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
