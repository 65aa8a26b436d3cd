"""One pass of each benchmark workload, with the benchmark's own output checks.

perfbench/ runs these passes timed and counts an operation whose output
differs from its frozen reference (perfbench/reference.json), or from the
closed forms and oracles of perfbench/checker.py, as failed. Here each
workload runs once, untimed, so that such a difference fails tier-1 too, and
then once more with perfbench's tracer installed, as `run.py --trace 1` runs
it, where a wrapped call must not change an output either, and certify's
traced call counts must match its reports.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import problems  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SEED = 11


class _Untimed:
    """The one method of perfbench's RefClock that a pass calls, untimed."""

    @staticmethod
    def measure(call):
        return call(), 0.0, 0.0, 0.0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_benchmark_pass_has_no_failed_operation(tmp_path, workload):
    problems.write_inputs(tmp_path, SEED)
    runner = worker.Runner(workload, tmp_path, SEED, _Untimed())
    runner.run_pass()
    assert runner.attempted == len(runner.ops)
    assert runner.failed == 0, runner.mismatches
    # the traced pass's results are also compared with the first pass's
    out = runner.run_pass(tracer=tracer.Tracer())
    assert runner.attempted == 2 * len(runner.ops)
    assert runner.failed == 0, runner.mismatches
    if workload == "certify":
        # one traced IterationKernel.apply per iteration and one more per
        # construction (plane's cross-check counts calls no longer made)
        assert out["layer"]["trace.crosscheck_failures"] == 0
