"""Output checker: decides whether each operation's output is correct.

CLI reports are compared with the outputs frozen at the seed in
reference.json; the package-API results of the study workload are checked
against closed forms, the dominance comparison property, the benchmark's
own characteristic function, and the first pass of the same run.

Every check returns a list of mismatch descriptions; empty means correct.
"""

from __future__ import annotations

import math
import re

import numpy as np

REL_TOL = 1e-9        # witness and root values; reports print 12 digits
ABS_FLOOR = 1e-12     # numbers that are zero up to rounding
ROOT_RESIDUAL = 1e-9
# x_end may move by this multiple of the run's stopping tolerance: a changed
# but equally converged iteration lands within a few tol/(1-q) of the fixed
# point, a wrong one does not.
TOL_FACTOR = 1e4
CONSTRUCT_TOL = 1e-8  # construct's default --tol
SIMULATE_TOL = 1e-10  # simulate's default tol for x0 = 1
# the trapezoid construction at step 1e-3 has equation residuals ~1e-4
CONSTRUCT_EQ_RESIDUAL = 1e-3
CONDITION_IDS = (
    "COR_1_2", "COR_1_3", "COR_1_4_REMARK", "COR_1_5", "COR_1_6",
    "COR_2_2", "COR_2_3", "COR_2_4_REMARK", "COR_2_5",
    "THM_A_EXPLICIT", "THM_B_EXPLICIT",
    "COR_3_1_C1", "COR_3_1_C2", "SYS_30_FEASIBLE",
)
ONE_OVER_E = 1.0 / math.e
# the conditions whose verdicts obey the comparison property, per family
COMPARABLE = {"delay": ("COR_1_2", "COR_1_3", "COR_1_4_REMARK"),
              "advance": ("COR_2_2", "COR_2_3", "COR_2_4_REMARK")}

_NUM_RE = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _close(x: float, y: float, rel: float = REL_TOL, floor: float = ABS_FLOOR) -> bool:
    return abs(x - y) <= max(rel * max(abs(x), abs(y)), floor)


def _split(line: str) -> tuple[str, list[float]]:
    """A line's text with every number replaced by '#', and the numbers."""
    return _NUM_RE.sub("#", line), [float(v) for v in _NUM_RE.findall(line)]


def compare_lines(got: str, ref: str, what: str) -> list[str]:
    """Same text line by line, numbers equal to REL_TOL."""
    g, r = got.splitlines(), ref.splitlines()
    if len(g) != len(r):
        return [f"{what}: {len(g)} lines, reference has {len(r)}"]
    bad = []
    for k, (gl, rl) in enumerate(zip(g, r)):
        (gs, gn), (rs, rn) = _split(gl), _split(rl)
        if gs != rs or len(gn) != len(rn) or not all(map(_close, gn, rn)):
            bad.append(f"{what} line {k + 1}: {gl!r} != reference {rl!r}")
    return bad


def report_fields(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key] = value
    return out


def _check_construct(text: str, ref: str) -> list[str]:
    got, want = report_fields(text), report_fields(ref)
    bad = [f"construct {k}: {got.get(k)!r} != {want[k]!r}"
           for k in ("converged", "caveats") if got.get(k) != want[k]]
    try:
        x, x_ref = float(got["x_end"]), float(want["x_end"])
        defect = float(got["max_ineq_residual"])
    except (KeyError, ValueError):
        return bad + ["construct: report lacks x_end or max_ineq_residual"]
    if not _close(x, x_ref, TOL_FACTOR * CONSTRUCT_TOL, 0.0):
        bad.append(f"construct x_end {x!r} != reference {x_ref!r}")
    if got.get("converged") == "yes" and not defect <= 10 * CONSTRUCT_TOL:
        bad.append(f"construct fixed-point defect {defect!r} exceeds 10*tol")
    return bad


def _check_simulate(text: str, ref: str, may_converge: bool) -> list[str]:
    got, want = report_fields(text), report_fields(ref)
    keys = ("classification",) if may_converge else ("converged", "classification")
    bad = [f"simulate {k}: {got.get(k)!r} != {want[k]!r}"
           for k in keys if got.get(k) != want[k]]
    if _NUM_RE.sub("#", got.get("caveats", "")) != _NUM_RE.sub("#", want["caveats"]):
        bad.append(f"simulate caveats {got.get('caveats')!r} != {want['caveats']!r}")
    try:
        x, x_ref = float(got["x_end"]), float(want["x_end"])
        residual = float(got["relaxation_residual"])
    except (KeyError, ValueError):
        return bad + ["simulate: report lacks x_end or relaxation_residual"]
    if not abs(x - x_ref) <= TOL_FACTOR * SIMULATE_TOL:
        bad.append(f"simulate x_end {x!r} != reference {x_ref!r}")
    if got.get("converged") == "yes" and not residual <= SIMULATE_TOL:
        bad.append(f"simulate converged with relaxation residual {residual!r}")
    return bad


def _check_roots(text: str, ref: str, oracle: list[float] | None) -> list[str]:
    def split(t):
        roots = [ln for ln in t.splitlines() if ln.startswith("root: ")]
        rest = "\n".join(ln for ln in t.splitlines() if not ln.startswith("root: "))
        return roots, rest
    (g_roots, g_rest), (r_roots, r_rest) = split(text), split(ref)
    bad = compare_lines(g_rest, r_rest, "roots")
    if len(g_roots) != len(r_roots):
        return bad + [f"roots: {len(g_roots)} roots, reference has {len(r_roots)}"]
    want = oracle if oracle is not None else [_split(ln)[1][0] for ln in r_roots]
    for gl, rl, w in zip(g_roots, r_roots, want):
        m = re.fullmatch(r"root: (\S+) residual=(\S+) class=(\S+)", gl)
        if m is None:
            bad.append(f"roots: malformed line {gl!r}")
            continue
        root, residual = float(m.group(1)), float(m.group(2))
        if not _close(root, w, REL_TOL, REL_TOL):
            bad.append(f"roots: {root!r} != reference {w!r}")
        if not residual <= ROOT_RESIDUAL:
            bad.append(f"roots: residual {residual!r} at {root!r}")
        if m.group(3) != rl.rsplit("class=", 1)[-1]:
            bad.append(f"roots: class {m.group(3)} != reference line {rl!r}")
    return bad


def parse_region_csv(text: str) -> dict:
    """Header, axis values and 0/1 rows of a `region --format csv` report."""
    lines = text.splitlines()
    header = lines[0].split(",")
    cells = [ln.split(",") for ln in lines[1:]]
    axis1 = sorted({float(c[0]) for c in cells})
    axis2 = sorted({float(c[1]) for c in cells})
    pos1 = {v: i for i, v in enumerate(axis1)}
    pos2 = {v: j for j, v in enumerate(axis2)}
    columns = {name: np.zeros((len(axis1), len(axis2)), dtype=int)
               for name in header[2:]}
    for c in cells:
        i, j = pos1[float(c[0])], pos2[float(c[1])]
        for name, v in zip(header[2:], c[2:]):
            columns[name][i, j] = int(v)
    rows = {name: ["".join(map(str, r)) for r in m] for name, m in columns.items()}
    return {"header": header, "axis1": axis1, "axis2": axis2,
            "rows": rows, "cells": len(cells)}


def _check_region(text: str, ref: dict) -> list[str]:
    try:
        got = parse_region_csv(text)
    except (IndexError, ValueError, KeyError) as exc:
        return [f"region: unreadable csv ({exc})"]
    bad = []
    if got["header"] != ref["header"]:
        bad.append(f"region header {got['header']} != {ref['header']}")
    for axis in ("axis1", "axis2"):
        if len(got[axis]) != len(ref[axis]) or not all(map(_close, got[axis], ref[axis])):
            bad.append(f"region {axis} values differ from the reference")
    if got["cells"] != len(ref["axis1"]) * len(ref["axis2"]):
        bad.append(f"region: {got['cells']} cells, expected a full grid")
    for name, rows in ref["rows"].items():
        if got["rows"].get(name) != rows:
            bad.append(f"region {name} matrix differs from the reference")
    return bad


def check_cli(subcommand: str, rc: int, text: str, ref: dict,
              may_converge: bool = False) -> list[str]:
    """Compare one CLI operation's exit code and report with its reference."""
    allowed = {0, 1} if may_converge else {ref["rc"]}
    bad = [] if rc in allowed else [f"exit code {rc}, reference {ref['rc']}"]
    if rc == 2:
        return bad + [text.strip()[-300:]]
    if subcommand == "check":
        bad += compare_lines(text, ref["text"], "check")
    elif subcommand == "construct":
        bad += _check_construct(text, ref["text"])
    elif subcommand == "simulate":
        bad += _check_simulate(text, ref["text"], may_converge)
    elif subcommand == "roots":
        bad += _check_roots(text, ref["text"], ref.get("oracle_roots"))
    elif subcommand == "region":
        bad += _check_region(text, ref)
    else:
        raise ValueError(f"no checker for subcommand {subcommand!r}")
    return bad


def spot_check_region(text: str, cells: list[tuple[int, int]], check_cell) -> list[str]:
    """Recompute chosen (a, b) cells with `check_cell(a, b) -> bool`."""
    got = parse_region_csv(text)
    bad = []
    for i, j in cells:
        a, b = got["axis1"][i], got["axis2"][j]
        want = check_cell(a, b)
        if bool(int(got["rows"]["feasible"][i][j])) != want:
            bad.append(f"region cell a={a!r} b={b!r}: sweep says "
                       f"{got['rows']['feasible'][i][j]}, check_sys30 says {int(want)}")
    return bad


# ---------------------------------------------------------------------------
# study workload: package-API results
# ---------------------------------------------------------------------------

def char_value(p: dict, lam: np.ndarray) -> np.ndarray:
    """The characteristic function, written out independently of the program."""
    lam = np.asarray(lam, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        if p["convention"] == "minus_exponent":
            return (-lam + p["delta1"] * p["a"] * np.exp(lam * p["tau"])
                    + p["delta2"] * p["b"] * np.exp(-lam * p["sigma"]))
        return (lam + p["delta1"] * p["a"] * np.exp(-lam * p["tau"])
                + p["delta2"] * p["b"] * np.exp(lam * p["sigma"]))


def _residual_scale(p: dict, lam: float) -> float:
    return 1.0 + abs(lam) + p["a"] * math.exp(abs(lam) * p["tau"]) \
        + p["b"] * math.exp(abs(lam) * p["sigma"])


def check_roots_result(rs, p: dict) -> list[str]:
    roots = list(rs.roots)
    bad = []
    if roots != sorted(roots) or any(b - a <= 0 for a, b in zip(roots, roots[1:])):
        bad.append(f"roots not strictly increasing: {roots}")
    for r, tag in zip(roots, rs.classifications):
        if abs(float(char_value(p, r))) > ROOT_RESIDUAL * _residual_scale(p, r):
            bad.append(f"root {r!r} leaves residual {float(char_value(p, r))!r}")
        exponent = r if p["convention"] == "plus_exponent" else -r
        want = "growing" if exponent > 1e-12 else "decaying" if exponent < -1e-12 else "constant"
        if tag != want:
            bad.append(f"root {r!r} classified {tag}, expected {want}")
    grid = np.linspace(-60.0, 60.0, 12001)
    vals = char_value(p, grid)
    crossings = int(np.sum(vals[:-1] * vals[1:] < 0.0))
    if not rs.truncated and len(roots) < crossings:
        bad.append(f"{len(roots)} roots but {crossings} sign changes on a coarse scan")
    return bad


def check_construct_result(result, family: str) -> list[str]:
    bad = []
    if not result.converged:
        bad.append("construction did not converge")
    if not result.max_ineq_residual <= 10 * CONSTRUCT_TOL:
        bad.append(f"fixed-point defect {result.max_ineq_residual!r}")
    if not result.max_eq_residual <= CONSTRUCT_EQ_RESIDUAL:
        bad.append(f"equation residual {result.max_eq_residual!r}")
    u, x = result.u_limit.values, result.x.values
    if np.min(u) < -ABS_FLOOR:
        bad.append("generating function goes negative")
    if not np.min(x) > 0.0:
        bad.append("solution is not positive")
    step = np.diff(x)
    if family == "delay" and np.max(step) > 0.0:
        bad.append("delay-family solution is not nonincreasing")
    if family == "advance" and np.min(step) < 0.0:
        bad.append("advance-family solution is not nondecreasing")
    return bad


def check_certificates(certs, doc: dict, family: str) -> list[str]:
    """Catalog order plus closed forms for constant coefficients a, b, tau, sigma."""
    ids = tuple(c.condition_id for c in certs)
    if ids != CONDITION_IDS:
        return [f"condition ids {ids} differ from the catalog"]
    by_id = {c.condition_id: c for c in certs}
    a, b = float(doc["a"]), float(doc["b"])
    tau, sigma = float(doc["g"][2:]), float(doc["h"][2:])
    bad = []
    # the deviated integrals of a constant are a*tau and b*sigma
    for cid, key, exact, gap in (("COR_1_4_REMARK", "sup_delay_integral", a * tau, a - b),
                                 ("COR_2_4_REMARK", "sup_advance_integral", b * sigma, b - a)):
        cert = by_id[cid]
        got = cert.witness.get(key) if cert.witness else None
        if got is None or not _close(got, exact):
            bad.append(f"{cid} {key} {got!r} != {exact!r}")
        elif abs(exact - ONE_OVER_E) > 1e-9:
            holds = gap >= 0.0 and exact <= ONE_OVER_E
            if cert.holds != holds:
                bad.append(f"{cid} verdict {cert.verdict} contradicts {key}={exact!r}")
    # a holding characteristic-root condition names a root of its envelope problem
    for cid, convention in (("COR_1_3", "minus_exponent"), ("COR_2_3", "plus_exponent")):
        cert = by_id[cid]
        if cert.holds:
            w = cert.witness
            p = {"a": w["a"], "b": w["b"], "tau": w["tau"], "sigma": w["sigma"],
                 "delta1": 1, "delta2": -1, "convention": convention}
            lam = w["lambda"]
            if not lam > 0 or abs(float(char_value(p, lam))) > \
                    ROOT_RESIDUAL * _residual_scale(p, lam):
                bad.append(f"{cid} lambda {lam!r} is not a positive root")
    return bad


def check_comparison(dom_certs, sub_certs, family: str) -> list[str]:
    """A condition that holds for the harder problem holds for the easier one."""
    dom = {c.condition_id: c.holds for c in dom_certs}
    sub = {c.condition_id: c.holds for c in sub_certs}
    return [f"{cid} holds for the dominating problem but not the dominated one"
            for cid in COMPARABLE[family] if dom.get(cid) and not sub.get(cid)]


def fingerprint(value) -> str:
    """Exact identity of an API result, for comparing passes of one run."""
    if isinstance(value, list):
        return repr([(c.condition_id, c.verdict, sorted((c.witness or {}).items()),
                      c.caveats) for c in value])
    if hasattr(value, "roots"):
        return repr((value.roots, value.classifications, value.truncated,
                     value.tangency_suspected))
    return repr((value.iterations, value.converged, value.max_ineq_residual,
                 float(value.x.values[-1]), value.caveats))
