"""The repository's end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload batch_all --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the system is imported from
``src/``.  Prints one line per metric, then as its last line one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics of a
separate traced run.  Exits 2 when the checkout has no ``src/repro``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys

import workloads

#: Scratch space inside the checkout (listed in .gitignore).
WORK = workloads.ROOT / ".perfbench-work"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so every child process is stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (workloads.SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no system to measure under {workloads.SRC}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        outcome = workloads.run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), work
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for note in outcome.notes:
        print(f"# {note}")
    for failure in outcome.failures[:20]:
        print(f"FAILED: {failure}")
    if len(outcome.failures) > 20:
        print(f"FAILED: ... {len(outcome.failures) - 20} more")
    for name, (value, unit) in outcome.metrics.items():
        print(f"{name:38s} {value:14.6f} {unit}")
    failed = len(outcome.failures)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": max(outcome.attempted, 1),
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
