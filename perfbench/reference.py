"""Reference figures for perfbench/README.md; none of them is gated.

    python3 perfbench/reference.py

Prints the per-tick cost of each pairing on both bundled maps (seed 0,
12 rounds) with the scripted-to-native ratio, the wall time of the
default 4x10x12 experiment matrix serial and with two jobs, and the
output of ``rulebots run --perf`` on the configuration the acceptance
test pins.  Takes about two minutes on a 2-core machine.
"""

from __future__ import annotations

import os
import statistics
import sys
from time import perf_counter

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import tracing  # noqa: E402
from workloads import FULL_STACK, TickClock  # noqa: E402
from rulebots.match import (  # noqa: E402
    ControllerSpec, ExperimentConfig, MatchConfig, measure_performance, run_experiment, run_match,
)
from rulebots.match.perf import summary_text  # noqa: E402

PAIRINGS = {
    "native": ControllerSpec("native"),
    "scripted:baseline": ControllerSpec("scripted", ("baseline",)),
    "scripted:full": ControllerSpec("scripted", FULL_STACK),
}


def per_tick(map_name: str, side: ControllerSpec) -> tuple[float, float, int]:
    clock = TickClock()
    with tracing.Patcher() as patcher:
        clock.install(patcher)
        clock.recording = True
        run_match(MatchConfig(map_name=map_name, seed=0, rounds=12, ct=side, t=side))
    return 1000 * statistics.median(clock.samples), 1000 * statistics.fmean(clock.samples), len(clock.samples)


def main() -> None:
    print("per-tick wall time, seed 0, 12 rounds (median / mean ms, ratio of means to native)")
    for map_name in ("warehouse", "airplane"):
        base = None
        for label, side in PAIRINGS.items():
            median, mean, ticks = per_tick(map_name, side)
            base = base or mean
            print(f"  {map_name:9} {label:17} {ticks} ticks  {median:6.3f} / {mean:6.3f} ms  x{mean / base:.2f}")
    for jobs in (1, 2):
        start = perf_counter()
        run_experiment(ExperimentConfig(jobs=jobs))
        print(f"experiment 4x10x12 on warehouse, --jobs {jobs}: {perf_counter() - start:.1f} s")
    spec = PAIRINGS["scripted:baseline"]
    report = measure_performance(MatchConfig(map_name="warehouse", seed=1, rounds=2, ct=spec, t=spec))
    print("rulebots run --map warehouse --seed 1 --rounds 2 --ct scripted:baseline "
          "--t scripted:baseline --perf")
    print(summary_text(report))


if __name__ == "__main__":
    main()
