"""Wall-time measurement of reasoning versus simulation cost."""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, replace

from rulebots.match.config import ControllerSpec, MatchConfig
from rulebots.match.match import MatchResult, run_match


@dataclass(frozen=True)
class PerfReport:
    """Per-tick samples plus the aggregates derived from them.

    Reasoning time is wall time spent inside scripted minds; native minds
    and the world step count as simulation, so an all-native run reports a
    reasoning share of exactly zero.  The proof counts are exact: the
    proofs the match's minds ran in full, and those they reused.
    """

    reasoning_ms: tuple[float, ...]
    simulation_ms: tuple[float, ...]
    native_total_ms: float
    proofs_run: int = 0
    proofs_reused: int = 0

    @property
    def total_ms(self) -> float:
        return sum(self.reasoning_ms) + sum(self.simulation_ms)

    @property
    def median_reasoning_ms(self) -> float:
        return statistics.median(self.reasoning_ms)

    @property
    def p95_reasoning_ms(self) -> float:
        ordered = sorted(self.reasoning_ms)
        return ordered[max(0, math.ceil(0.95 * len(ordered)) - 1)]

    @property
    def reasoning_share(self) -> float:
        total = self.total_ms
        return sum(self.reasoning_ms) / total if total else 0.0

    @property
    def native_delta(self) -> float:
        """Fractional wall-time increase over the identical all-native run."""
        if self.native_total_ms == 0:
            return 0.0
        return (self.total_ms - self.native_total_ms) / self.native_total_ms


class _TickTimer:
    """run_round probe: each tick's wall time inside scripted minds, and the rest."""

    def __init__(self):
        self.reasoning: list[float] = []
        self.simulation: list[float] = []
        self.minds: dict = {}

    def tick_started(self) -> None:
        self._reason = 0.0
        self._start = time.perf_counter()

    def tick_agent(self, mind):
        self.minds[mind.bot_id] = mind
        if mind.kind != "scripted":
            return mind.tick_agent()
        t0 = time.perf_counter()
        intent = mind.tick_agent()
        self._reason += time.perf_counter() - t0
        return intent

    def tick_ended(self) -> None:
        elapsed = time.perf_counter() - self._start
        self.reasoning.append(self._reason * 1000.0)
        self.simulation.append(max(0.0, elapsed - self._reason) * 1000.0)


def timed_match(config: MatchConfig) -> tuple[PerfReport, MatchResult]:
    """Play the match once with its ticks timed, then an all-native reference
    timed the same way, so identical work reads a delta of 0."""
    timer = _TickTimer()
    result = run_match(config, timer)
    native = ControllerSpec("native")
    reference = _TickTimer()
    run_match(replace(config, ct=native, t=native), reference)
    native_total_ms = sum(reference.reasoning) + sum(reference.simulation)
    counts = [mind.proof_counts() for mind in timer.minds.values()]
    report = PerfReport(tuple(timer.reasoning), tuple(timer.simulation), native_total_ms,
                        sum(run for run, _ in counts), sum(reused for _, reused in counts))
    return report, result


def measure_performance(config: MatchConfig) -> PerfReport:
    return timed_match(config)[0]


def summary_text(report: PerfReport) -> str:
    return "\n".join(
        [
            f"ticks measured: {len(report.reasoning_ms)}",
            f"reasoning per tick: median {report.median_reasoning_ms:.3f} ms, "
            f"p95 {report.p95_reasoning_ms:.3f} ms",
            f"reasoning share of wall time: {report.reasoning_share:.3f}",
            f"total wall time: {report.total_ms:.1f} ms "
            f"(all-native reference {report.native_total_ms:.1f} ms, "
            f"delta {report.native_delta:+.3f})",
            f"proofs: {report.proofs_run} run, {report.proofs_reused} reused",
        ]
    )
