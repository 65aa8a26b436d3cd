"""Command-line front end: validate, check, construct, roots, region, simulate.

Exit codes: 0 success (certificate found / converged / hypotheses pass),
1 negative outcome (no certificate, non-convergence, hypothesis failure),
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


def _add_window_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--t1", type=float, default=None,
                   help="window start (default: the spec's t0)")
    p.add_argument("--T", type=float, default=None,
                   help="window end (default: t1 + 100)")


def _add_io_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("report", "csv"), default="report")
    p.add_argument("--out", default=None, help="write output to this path")


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
    return 0 if result.converged else 1


def _constant_problem_from_spec(args) -> charroots.CharProblem:
    spec = model.read_spec(args.spec)
    window = _window(spec, args)
    bounds = model.extract_bounds(spec, window)
    if bounds.a2 - bounds.a1 > 1e-9 or bounds.b2 - bounds.b1 > 1e-9:
        raise ValueError("roots needs constant coefficients; pass --a/--b/--tau/--sigma "
                         "explicitly for a variable-coefficient equation's envelope")
    t = model.CoefficientExpr.var_t()
    dly = model._exact_range(t - spec.g, *window)
    adv = model._exact_range(spec.h - t, *window)
    for rng, name in ((dly, "delay"), (adv, "advance")):
        if rng is None or rng[1] - rng[0] > 1e-9:
            raise ValueError(f"roots needs a constant {name}; pass the parameters "
                             "explicitly instead")
    convention = args.convention or (
        "minus_exponent" if (spec.delta1, spec.delta2) == (1, -1) else "plus_exponent")
    return charroots.CharProblem(bounds.a2, bounds.b2, dly[1], adv[1],
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
# Parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
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
    _add_window_args(r)
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


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
