"""Set-up probe: import the benchmark and mixedde and parse one workload's
inputs, timed in wall and in reference seconds (refclock.py).

    python3 perfbench/setup_probe.py WORKLOAD INPUT_DIR SEED

Prints one JSON line {"wall": seconds, "ref": reference seconds}. run.py
times the process from its start to that line and swaps the probe's wall
time for its reference time; what is left is the interpreter's own
start-up, in wall seconds.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from refclock import RefClock  # noqa: E402


def main() -> int:
    workload, inputs, seed = sys.argv[1], Path(sys.argv[2]), int(sys.argv[3])
    with RefClock() as clock:
        def set_up():
            import worker
            return worker.Runner(workload, inputs, seed, clock)
        _, wall, ref, _ = clock.measure(set_up)
    print(json.dumps({"wall": wall, "ref": ref}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
