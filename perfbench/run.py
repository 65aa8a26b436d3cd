"""mixedde benchmark: one workload per call, timed in a fresh subprocess.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one after another

Run from the repository root; the program is imported from ./src. The
inputs are generated from --seed into a scratch directory under perfbench/.
Set-up time is measured over several fresh interpreters. The workload then
runs in one more child process with the BLAS/OpenMP thread pools limited to
one thread. The output lists each metric as `metric <name> <value> <unit>`,
and its last line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones in BENCHMARK.json, with --trace 1 the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import problems  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5          # setup_s is the median of this many samples
CHILD_TIMEOUT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# raw wall time, and end-to-end figures of single subcommands, which only some
# workloads produce; printed on every run; BENCHMARK.json lists them among the
# per-layer metrics, raw wall time because other tenants of the host move it
E2E_EXTRA = {"wall_s": "s", "check_s": "s", "construct_s": "s", "region_s": "s",
             "roots_s": "s", "simulate_s": "s", "problems_per_s": "1/s",
             "fail_ratio": "ratio"}


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update({var: "1" for var in THREAD_VARS})
    return env


def _spawn(script: str, args: list[str]) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, str(HERE / script), *args],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=_child_env(), cwd=ROOT)


def _finish(proc: subprocess.Popen, deadline: float) -> str:
    """Wait for a child to end; return its standard output."""
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{proc.args[1]} ran out of time") from None
    if proc.returncode != 0:
        raise BenchError(f"{proc.args[1]} exited {proc.returncode}:\n{err.strip()[-2000:]}")
    return out


def _setup_sample(args: list[str], deadline: float) -> float:
    t0 = time.perf_counter()
    proc = _spawn("setup_probe.py", args)
    line = proc.stdout.readline()
    total = time.perf_counter() - t0
    _finish(proc, deadline)
    probe = json.loads(line)
    # interpreter start-up in wall seconds, the rest in reference seconds
    return total - probe["wall"] + probe["ref"]


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    work = HERE / "_work" / f"{workload}-{seed}-{os.getpid()}"
    try:
        problems.write_inputs(work, seed)
        setups = [_setup_sample([workload, str(work), str(seed)], deadline)
                  for _ in range(SETUP_SAMPLES)]
        out = _finish(_spawn("worker.py", ["--workload", workload, "--inputs", str(work),
                                           "--seed", str(seed), "--seconds", str(seconds),
                                           "--trace", str(trace)]), deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = statistics.median(setups)
    return result


def _metric_lines(result: dict, names: dict[str, str]) -> dict:
    flat = {"setup_s": result["setup_s"], "peak_rss_mb": result["peak_rss_mb"],
            **result["e2e"], **result["proc"], **result["layer"]}
    missing = [n for n in names if n not in flat]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    return {n: {"value": flat[n], "unit": unit} for n, unit in names.items()}


def report(workload: str, result: dict, spec: dict, trace: int) -> dict:
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    shown = _metric_lines(result, {**e2e, **E2E_EXTRA, **(layer if trace else {})})
    print(f"workload {workload}: {result['passes']} timed passes"
          + (f", {result['traced_passes']} traced" if trace else "")
          + f"; pass times {' '.join(f'{w:.3f}' for w in result['pass_walls'])} s"
          + f", in reference seconds {' '.join(f'{w:.3f}' for w in result['pass_refs'])}")
    for name, m in shown.items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    for line in result["mismatches"]:
        print(f"mismatch {line}")
    chosen = layer if trace else e2e
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": {n: shown[n] for n in chosen}}


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "mixedde" / "__init__.py").is_file():
        print(f"error: no mixedde sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    chosen = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = {}
    try:
        for workload in chosen:
            result = run_workload(workload, args.seed, args.seconds, args.trace)
            summaries[workload] = report(workload, result, spec, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(summaries) == 1:
        final = summaries[args.workload]
    else:
        final = {"correct": all(s["correct"] for s in summaries.values()),
                 "attempted": sum(s["attempted"] for s in summaries.values()),
                 "failed": sum(s["failed"] for s in summaries.values()),
                 "metrics": {f"{w}.{n}": m for w, s in summaries.items()
                             for n, m in s["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
