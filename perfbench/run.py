"""Benchmark entry point: one workload, one process, JSON result on the last line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` next to this directory.  With ``--trace 0`` the run plays the
workload as a closed loop for about ``--seconds`` of played CPU time and
reports the end-to-end metrics.  With ``--trace 1`` it plays a fixed
amount of work twice, untraced and then with span wrappers around each
layer's public functions, and reports the per-layer metrics plus the
tracing overhead; its counts repeat exactly for a given seed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def _import_program():
    """Import the checkout's own source tree, never an installed copy."""
    package_dir = os.path.join(SRC, "rulebots")
    if not os.path.isdir(package_dir):
        raise SystemExit(f"error: no program source at {package_dir}")
    sys.path.insert(0, SRC)
    import rulebots.match

    where = os.path.abspath(rulebots.match.__file__)
    if not where.startswith(package_dir + os.sep):
        raise SystemExit(f"error: imported rulebots from {where}, not from {package_dir}")


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    _import_program()
    import workloads

    runner = workloads.RUNNERS.get(args.workload)
    if runner is None:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(workloads.RUNNERS)}")
    if args.trace:
        outcome = runner.traced(args.seed, OUT_DIR)
    else:
        outcome = runner.timed(args.seed, args.seconds)
        outcome.metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB",
        )
    for line in outcome.notes:
        print(line)
    for problem in outcome.problems:
        print(f"check failed: {problem}")
    result = {
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if not outcome.problems else 1


if __name__ == "__main__":
    sys.exit(main())
