"""Write reference.json: the CLI workloads' outputs from the current program.

    PYTHONPATH=src python3 perfbench/freeze.py

Run it only on a commit whose outputs are known good; the checker compares
every later run with what this writes. The ex1 roots are the independent
oracle values frozen in the project's tests (tests/conftest.py, EX1_ROOTS).
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checker  # noqa: E402
import problems  # noqa: E402
import workloads  # noqa: E402

EX1_ROOTS = (-4.2281707151223165, 0.5436172582885253, 3.3540851027634084)


def main() -> int:
    reference = {}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        problems.write_inputs(Path(tmp), seed=0)
        for workload in workloads.CLI_OPS:
            for op in workloads.build_ops(workload, Path(tmp)):
                outcome = op.call()
                if op.subcommand == "region":
                    grid = checker.parse_region_csv(outcome.text)
                    entry = {"rc": outcome.rc, "header": grid["header"],
                             "axis1": grid["axis1"], "axis2": grid["axis2"],
                             "rows": grid["rows"]}
                else:
                    entry = {"rc": outcome.rc, "text": outcome.text.replace(tmp, "<inputs>")}
                if op.name == "roots-ex1":
                    entry["oracle_roots"] = list(EX1_ROOTS)
                reference[op.name] = entry
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
