"""One workload in one process: set up, warm up, then timed passes.

Started by run.py with mixedde on PYTHONPATH (set-up is timed separately by
setup_probe.py). Imports mixedde, parses the inputs, runs an untimed warm-up
pass and then timed passes until --seconds have elapsed (at least MIN_PASSES),
checking every output, and prints one JSON line with the results.

Every operation is timed by a RefClock (refclock.py), which gives its wall
time and its time in reference seconds, corrected for CPU contention from
other tenants of the host. The end-to-end figures are in reference seconds.

With --trace 1 timed passes alternate between untraced and traced; the
end-to-end figures come from the untraced ones, the per-layer figures from
the traced ones, and the difference of their pass times is the tracing
overhead.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checker  # noqa: E402
import workloads  # noqa: E402
from refclock import RefClock  # noqa: E402

MIN_PASSES = 3
SPOT_CHECK_CELLS = 4
SUBCOMMAND_METRICS = {"check": "check_s", "construct": "construct_s", "region": "region_s",
                      "roots": "roots_s", "simulate": "simulate_s"}


class Runner:
    def __init__(self, workload: str, inputs: Path, seed: int, clock: RefClock):
        self.workload = workload
        self.ops = workloads.build_ops(workload, inputs)
        self.inputs = inputs
        self.seed = seed
        ref_path = Path(__file__).resolve().parent / "reference.json"
        self.reference = json.loads(ref_path.read_text()) if workload != "study" else {}
        self.first: dict[str, str] = {}     # study: fingerprints of the first pass
        self.spot_checked = False
        self.attempted = 0
        self.failed = 0                     # errors and reference mismatches
        self.negative = 0                   # failed, or exit code != 0
        self.mismatches: list[str] = []
        self.clock = clock

    def _check(self, op, outcome, results) -> list[str]:
        if op.subcommand in SUBCOMMAND_METRICS:
            bad = checker.check_cli(op.subcommand, outcome.rc, outcome.text,
                                    self.reference[op.name], op.name in workloads.MAY_CONVERGE)
            if op.name == "region-ab-ex4" and not bad and not self.spot_checked:
                bad += self._spot_check(outcome.text)
            return bad
        value, p = outcome.value, op.payload
        if value is None:
            return [outcome.text.strip()[-400:]]
        if op.subcommand == "check_all":
            bad = checker.check_certificates(value, p["doc"], p["family"])
            dom = results.get(f"check_all-{p['pair']}-dom")
            if p["role"] == "sub" and dom is not None:
                bad += checker.check_comparison(dom, value, p["family"])
        elif op.subcommand == "auto_construct":
            bad = checker.check_construct_result(value, p["family"])
        else:
            bad = checker.check_roots_result(value, p)
        fp = checker.fingerprint(value)
        if self.first.setdefault(op.name, fp) != fp:
            bad.append("result differs from the first pass of this run")
        return bad

    def _spot_check(self, text: str) -> list[str]:
        import mixedde as m
        self.spot_checked = True
        template = m.extract_bounds(m.read_spec(str(self.inputs / "ex4.json")), (0.0, 100.0))
        grid = checker.parse_region_csv(text)
        rng = random.Random(self.seed)
        cells = [(rng.randrange(len(grid["axis1"])), rng.randrange(len(grid["axis2"])))
                 for _ in range(SPOT_CHECK_CELLS)]

        def check_cell(a: float, b: float) -> bool:
            cell = m.Bounds(a, a, b, b, template.tau, template.sigma, template.window)
            return m.check_sys30(cell).holds
        return checker.spot_check_region(text, cells, check_cell)

    def _record(self, op, outcome, results) -> None:
        bad = self._check(op, outcome, results)
        results[op.name] = outcome.value
        self.attempted += 1
        if bad:
            self.failed += 1
            self.mismatches += [f"{op.name}: {b}" for b in bad[:3]]
        if bad or outcome.rc != 0:
            self.negative += 1

    def run_op(self, op, results, tracer=None) -> dict:
        """Run one operation, timed, and check its output (not timed)."""
        def call():
            try:
                return op.call()
            except Exception:  # a crash is a failed operation, not a crashed run
                return workloads.Outcome(2, traceback.format_exc(limit=4))

        if tracer is not None:
            tracer.active = True
        outcome, wall, ref, cpu_s = self.clock.measure(call)
        stats = None
        if tracer is not None:
            tracer.active = False
            stats = tracer.take()
        self._record(op, outcome, results)
        return {"wall": wall, "ref": ref, "cpu": cpu_s, "outcome": outcome, "stats": stats}

    def run_pass(self, tracer=None) -> dict:
        """One closed-loop pass over the operations; checking is not timed."""
        op_ref: dict[str, float] = {}
        results = {}
        cpu = wall = 0.0
        kernel_applies = 0.0  # expected construct.kernel_apply.calls: iterations + 1 each
        traces = []
        if tracer is not None:
            tracer.reset()
            tracer.install()
        try:
            for op in self.ops:
                run = self.run_op(op, results, tracer)
                wall += run["wall"]
                cpu += run["cpu"]
                op_ref[op.name] = run["ref"]
                traces.append(run["stats"])
                if op.subcommand == "construct":
                    kernel_applies += float(checker.report_fields(
                        run["outcome"].text).get("iterations", "nan")) + 1
        finally:
            if tracer is not None:
                tracer.uninstall()
        out = {"wall": wall, "ref": sum(op_ref.values()), "cpu": cpu, "op_ref": op_ref}
        if tracer is not None:
            tracer.reset()
            for stats in traces:
                tracer.add(stats)
            layer = tracer.metrics()
            fails = 0
            if self.workload == "plane":
                ref = self.reference["region-ab-ex4"]
                fails += layer["criteria.check_sys30.calls"] != \
                    len(ref["axis1"]) * len(ref["axis2"])
            if self.workload == "certify":
                fails += layer["construct.kernel_apply.calls"] != kernel_applies
            layer["trace.crosscheck_failures"] = fails
            layer["trace.absent_targets"] = len(tracer.absent)
            out["layer"] = layer
        return out


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def summarize(runner: Runner, plain: list[dict], traced: list[dict],
              peak_rss_mb: float) -> dict:
    # per operation, the median over the untraced passes of its reference time
    op_ref = {op.name: _median([p["op_ref"][op.name] for p in plain]) for op in runner.ops}
    pass_ref = sum(op_ref.values())
    walls = [p["wall"] for p in plain]
    wall = _median(walls)
    e2e = {"pass_ref_s": pass_ref, "wall_s": wall,
           "problems_per_s": len(runner.ops) / pass_ref,
           "fail_ratio": runner.negative / runner.attempted}
    for sub, metric in SUBCOMMAND_METRICS.items():
        e2e[metric] = sum(op_ref[op.name] for op in runner.ops if op.subcommand == sub)
    cpu = _median([p["cpu"] for p in plain])
    proc = {"proc.cpu_s": cpu, "proc.cpu_util": cpu / wall if wall else 0.0}
    layer = {}
    if traced:
        for name in traced[0]["layer"]:
            layer[name] = _median([p["layer"][name] for p in traced])
        layer["trace.overhead_ratio"] = _median([p["ref"] for p in traced]) / \
            _median([p["ref"] for p in plain]) - 1.0
    return {"e2e": e2e, "proc": proc, "layer": layer,
            "passes": len(plain), "traced_passes": len(traced),
            "pass_walls": walls,
            "pass_refs": [p["ref"] for p in plain],
            "attempted": runner.attempted, "failed": runner.failed,
            "mismatches": runner.mismatches[:20],
            "peak_rss_mb": peak_rss_mb}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--inputs", type=Path, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    clock = RefClock()
    runner = Runner(args.workload, args.inputs, args.seed, clock)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    plain: list[dict] = []
    traced: list[dict] = []
    with clock:
        # warm-up, once per operation: lazy imports and first-call costs stay out of the timings
        runner.run_pass()
        # Peak memory through set-up and this one pass. Taken here because the
        # high-water mark creeps up with the number of passes: the allocator's
        # footprint while checking a 25k-cell region CSV varies by about 2 MB.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        start = time.perf_counter()
        while (time.perf_counter() - start < args.seconds or len(plain) < MIN_PASSES
               or (tracer is not None and not traced)):
            if tracer is not None and len(traced) < len(plain):
                traced.append(runner.run_pass(tracer))
            else:
                plain.append(runner.run_pass())
    print(json.dumps(summarize(runner, plain, traced, peak_rss_mb)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
