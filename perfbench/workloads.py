"""The benchmark's workloads: seeded closed loops over the program's public API.

Every workload runs in one process with no threads or worker pool.  It
sends its next operation only when the previous one has finished, plays
whole operations only, and checks every output outside the timed part.

Every time is the process's CPU time (``time.process_time``).  The work
is single-threaded and never waits on I/O, so on an idle machine its CPU
time is its wall time; on a shared host wall time also counts the time
other processes and other guests hold the CPU.  On a 2-vCPU VM with a busy
loop running beside them, five 30 s runs of the scripted workload per
clock, played alternately, spread 0.10 to 0.12 by wall time and 0.04 to
0.05 by CPU time.
"""

from __future__ import annotations

import json
import math
import os
import random
import statistics
import traceback
from dataclasses import dataclass, field, replace
from itertools import count, islice
from time import process_time

import checks
import tracing
from rulebots.agents.minds import Mind
from rulebots.logic import Engine, Int, LogicError, Struct, fresh_var, iter_list, read_term
from rulebots.match import ControllerSpec, MatchConfig, run_match
from rulebots.match.match import build_match
from rulebots.sim import SimConfig, WorldState

ROUNDS = 12
MIN_SAMPLES = 1000  # so that a run's p99 keeps at least ten samples beyond it
FULL_STACK = ("baseline", "cs_rules", "warehouse_tactics")
MAPS_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "rulebots", "maps"
)


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    problems: list = field(default_factory=list)
    notes: list = field(default_factory=list)


def _latency_metrics(out: Outcome, units: int, played: float, typical, tail) -> None:
    """Rate of units played; p50 over `typical` and p99 over `tail` samples."""
    ordered = sorted(tail)
    p99 = ordered[math.ceil(0.99 * len(ordered)) - 1]
    out.metrics["rate_per_s"] = (units / played, "1/s")
    out.metrics["latency_ms_p50"] = (1000.0 * statistics.median(typical), "ms")
    out.metrics["latency_ms_p99"] = (1000.0 * p99, "ms")


def _write_layers(out: Outcome, tracer, name: str, seed: int, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{name}-seed{seed}")
    tracer.write(stem + ".spans.jsonl.gz")
    with open(stem + ".layers.json", "w", encoding="utf-8") as fh:
        json.dump({k: {"value": v, "unit": u} for k, (v, u) in out.metrics.items()}, fh, indent=1)
    out.notes.extend(f"  {k:<44} {v:>14.6g} {u}" for k, (v, u) in out.metrics.items())
    out.notes.append(f"{len(tracer.span_start)} spans written to {stem}.spans.jsonl.gz")


# -- matches -----------------------------------------------------------------


class TickClock:
    """Per-tick times from timestamps at the WorldState.step boundaries.

    A tick runs from the end of the previous step, or from the minds'
    round-start hook for a round's first tick, to the end of its own step:
    the agent phase plus the world step.  The clock also copies out the
    world state after each round's last step, for the invariant checks.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.round_ends: list[int] = []  # len(samples) after each round
        self.finals: list = []
        self.recording = False
        self._mark = 0.0

    def install(self, patcher) -> None:
        step = WorldState.step
        round_start = Mind.on_round_start
        clock = self

        def timed_step(world, intents):
            outcome = step(world, intents)
            if clock.recording:
                now = process_time()
                clock.samples.append(now - clock._mark)
                clock._mark = now
                if world.outcome is not None:
                    clock.round_ends.append(len(clock.samples))
                    clock.finals.append(checks.snapshot(world))
            return outcome

        def marked_round_start(mind):
            round_start(mind)
            clock._mark = process_time()

        patcher.set(WorldState, "step", timed_step)
        patcher.set(Mind, "on_round_start", marked_round_start)

    def round_means(self) -> list[float]:
        """Mean tick time of each round.

        Single ticks fall into modes (minds re-reasoning or only checking
        motivations) and their median sits between them.  A median over
        5-tick windows still followed the cheap ticks, which speed up
        more than the rest when the host is quiet: over ten runs its
        spread was 0.25 where the tick rate's was 0.17.  A round's mean
        weighs every kind of tick as often as the round plays it.
        """
        means, start = [], 0
        for end in self.round_ends:
            means.append(sum(self.samples[start:end]) / (end - start))
            start = end
        return means


@dataclass(frozen=True)
class MatchWorkload:
    name: str
    map_name: str
    side: ControllerSpec  # both teams play it
    reference: ControllerSpec  # second implementation whose trace must be identical
    reference_every_match: bool  # else only a run's first match is compared
    builds_per_match: int  # build_match repeats behind setup_s, timed between matches
    traced_matches: int  # fixed work of a traced run

    def configs(self, seed: int):
        for i in count():
            yield MatchConfig(
                map_name=self.map_name, seed=seed * 1000 + i, rounds=ROUNDS, ct=self.side, t=self.side
            )

    def _checker(self):
        facts = checks.read_map_facts(os.path.join(MAPS_DIR, f"{self.map_name}.map"))
        sim = SimConfig()

        def check(config, result, finals, ticks, first) -> list[str]:
            problems = []
            if ticks != sum(r.outcome.tick for r in result.rounds):
                problems.append(f"seed {config.seed}: {ticks} steps timed, outcomes count "
                                f"{sum(r.outcome.tick for r in result.rounds)} ticks")
            problems += checks.match_invariants(result, finals, facts, sim)
            if first or self.reference_every_match:
                other = run_match(replace(config, ct=self.reference, t=self.reference))
                problems += checks.compare_matches(result, other)
            if first:
                problems += checks.self_test_compare(result)
                problems += checks.self_test_invariants(result, finals, facts, sim)
            return problems

        return check

    def _play(self, configs, clock: TickClock, out: Outcome, check) -> float:
        """Play whole matches through run_match; return the seconds spent in them."""
        played = 0.0
        for config in configs:
            clock.finals = []
            before = len(clock.samples)
            clock.recording = True
            start = process_time()
            try:
                result = run_match(config)
            except Exception:
                traceback.print_exc()
                result = None
            played += process_time() - start
            clock.recording = False
            out.attempted += 1
            if result is None:
                out.failed += 1
            else:
                ticks = len(clock.samples) - before
                out.problems += check(config, result, clock.finals, ticks, out.attempted == 1)
        return played

    def timed(self, seed: int, seconds: float) -> Outcome:
        """Matches until `seconds` of play and MIN_SAMPLES ticks; set-up
        builds are timed between matches, so they sample the whole run."""
        out = Outcome()
        check, clock = self._checker(), TickClock()
        builds, played = [], 0.0
        with tracing.Patcher() as patcher:
            clock.install(patcher)
            for config in self.configs(seed):
                for _ in range(self.builds_per_match):
                    start = process_time()
                    build_match(config)
                    builds.append(process_time() - start)
                played += self._play([config], clock, out, check)
                if played >= seconds and len(clock.samples) >= MIN_SAMPLES:
                    break
        _latency_metrics(out, len(clock.samples), played, clock.round_means(), clock.samples)
        out.metrics["setup_s"] = (statistics.median(builds), "s")
        out.notes.append(
            f"{self.name} seed {seed}: {out.attempted} matches, {len(clock.round_ends)} rounds, "
            f"{len(clock.samples)} ticks in {played:.2f} s played; setup_s is the median "
            f"of {len(builds)} builds"
        )
        return out

    def traced(self, seed: int, out_dir: str) -> Outcome:
        out = Outcome()
        configs = list(islice(self.configs(seed), self.traced_matches))
        pending = []

        def defer(*args):
            pending.append(args)
            return []

        clock = TickClock()
        with tracing.Patcher() as patcher:
            clock.install(patcher)
            plain = self._play(configs, clock, out, defer)
        clock, tracer = TickClock(), tracing.Tracer()
        with tracing.Patcher() as patcher:
            clock.install(patcher)
            tracing.install(tracer, patcher)
            traced = self._play(configs, clock, out, defer)
        check = self._checker()
        for args in pending:
            out.problems += check(*args)
        setups = tracer.span_calls("match.build_match")
        out.metrics = tracing.layer_metrics(tracer, len(clock.samples), setups, traced / plain)
        out.notes.append(
            f"{self.name} seed {seed}: {len(configs)} matches, {len(clock.samples)} ticks, "
            f"{setups} builds traced; {plain:.2f} s untraced, {traced:.2f} s traced"
        )
        _write_layers(out, tracer, self.name, seed, out_dir)
        return out


# -- engine working memory ------------------------------------------------------

HELPERS = """
min_of([X|Xs], M) :- min_acc(Xs, X, M).
min_acc([], M, M).
min_acc([X|Xs], A, M) :- B is min(A, X), min_acc(Xs, B, M).
"""


# One consult of the small fact base takes about 0.3 ms, short enough for
# a single burst of machine noise to swing it by a third; a set-up sample
# is the mean of a batch, and samples are taken all through the run.
CONSULT_BATCH = 10
SETUP_EVERY = 200  # turns between set-up samples
# Every session replays the same turns, so each turn of the stream is timed
# once per session and its latency is the mean over the sessions without
# the fastest and slowest tenth; the percentiles are taken over the turns
# of the stream.  A single timing carries bursts of machine noise, which
# set a p99 over single timings and moved it by a fifth to a third from run
# to run.  A median over the sessions drops the bursts but reports whichever
# machine speed held for most of the run, so it moved more than the turn
# rate; the trimmed mean moves with it.
MIN_SESSIONS = 3
TRIM_SHARE = 0.1


def _trimmed_mean(values) -> float:
    """Mean of `values` without the lowest and the highest TRIM_SHARE."""
    ordered = sorted(values)
    k = int(len(ordered) * TRIM_SHARE)
    return statistics.mean(ordered[k:len(ordered) - k])


def _discard(_text: str) -> None:
    pass


@dataclass(frozen=True)
class MemoryInputs:
    text: str  # the fact base
    updates: tuple  # one retract-plus-assertz goal per turn
    read_goal: object
    read_names: dict
    final_goal: object
    final_names: dict
    expected_reads: list
    expected_final: list


@dataclass(frozen=True)
class MemoryWorkload:
    """A host embedding Engine: keyed facts updated and read turn by turn.

    A session consults the fact base into a fresh engine and serves the
    whole seeded turn stream; every session replays the same stream, so
    each one leaves the same number of dead clauses behind.
    """

    name: str
    keys: int
    turns: int  # per session
    value_range: int

    def inputs(self, seed: int) -> MemoryInputs:
        rng = random.Random(seed)
        base = [rng.randrange(self.value_range) for _ in range(self.keys)]
        turns = [(rng.randrange(self.keys), rng.randrange(self.value_range)) for _ in range(self.turns)]
        text = "".join(f"val({k}, {v}).\n" for k, v in enumerate(base)) + HELPERS
        updates = tuple(
            Struct(",", (
                Struct("retract", (Struct("val", (Int(k), fresh_var())),)),
                Struct("assertz", (Struct("val", (Int(k), Int(v))),)),
            ))
            for k, v in turns
        )
        read_goal, read_vars = read_term("findall(V, val(_, V), Vs), min_of(Vs, M)")
        final_goal, final_vars = read_term("findall(pair(K, V), val(K, V), L)")
        reads, final = checks.memory_model(base, turns)
        return MemoryInputs(text, updates, read_goal, {"M": read_vars["M"]},
                            final_goal, {"L": final_vars["L"]}, reads, final)

    def _session(self, inputs: MemoryInputs, samples: list, setups: list, out: Outcome):
        """Serve the whole stream on a fresh engine.

        Returns the reads, the final fact base and the seconds played.
        Every SETUP_EVERY turns a set-up sample is timed outside the played
        time, so the samples spread over the whole run.
        """
        begin = process_time()
        engine = Engine(output=_discard)
        engine.consult(inputs.text)
        reads = []
        setting_up = 0.0
        for turn, goal in enumerate(inputs.updates):
            if turn % SETUP_EVERY == 0:
                start = process_time()
                setups.append(self._consult_time(inputs))
                setting_up += process_time() - start
            start = process_time()
            try:
                answer = engine.solve(inputs.read_goal, inputs.read_names).next_solution() \
                    if engine.prove(goal) else None
            except LogicError:
                answer = None
            samples.append(process_time() - start)
            out.attempted += 1
            if answer is None:
                out.failed += 1
                reads.append(None)
            else:
                reads.append(answer["M"].value)
        answer = engine.solve(inputs.final_goal, inputs.final_names).next_solution()
        final = [(p.args[0].value, p.args[1].value) for p in iter_list(answer["L"])[0]]
        return reads, final, process_time() - begin - setting_up

    def _check(self, inputs: MemoryInputs, reads, final, first: bool) -> list[str]:
        want = (inputs.expected_reads, inputs.expected_final)
        problems = checks.memory_check(reads, final, *want)
        if first:
            problems += checks.self_test_memory(reads, final, *want)
        return problems

    def _consult_time(self, inputs: MemoryInputs) -> float:
        """Mean time of CONSULT_BATCH fact-base consults into fresh engines."""
        engines = [Engine(output=_discard) for _ in range(CONSULT_BATCH)]
        start = process_time()
        for engine in engines:
            engine.consult(inputs.text)
        return (process_time() - start) / CONSULT_BATCH

    def timed(self, seed: int, seconds: float) -> Outcome:
        out = Outcome()
        inputs = self.inputs(seed)
        setups: list[float] = []
        sessions: list[list[float]] = []
        played = 0.0
        while played < seconds or len(sessions) < MIN_SESSIONS:
            samples: list[float] = []
            reads, final, session_played = self._session(inputs, samples, setups, out)
            played += session_played
            sessions.append(samples)
            out.problems += self._check(inputs, reads, final, len(sessions) == 1)
        per_turn = [_trimmed_mean(times) for times in zip(*sessions)]
        _latency_metrics(out, out.attempted, played, per_turn, per_turn)
        out.metrics["setup_s"] = (statistics.median(setups), "s")
        out.notes.append(
            f"{self.name} seed {seed}: {len(sessions)} sessions of {self.turns} turns in "
            f"{played:.2f} s played; setup_s is the median of {len(setups)} samples of "
            f"{CONSULT_BATCH} consults"
        )
        return out

    def traced(self, seed: int, out_dir: str) -> Outcome:
        out = Outcome()
        inputs = self.inputs(seed)
        *plain_result, plain = self._session(inputs, [], [], out)
        tracer, traced_setups = tracing.Tracer(), []
        with tracing.Patcher() as patcher:
            tracing.install(tracer, patcher)
            *traced_result, traced = self._session(inputs, [], traced_setups, out)
        for n, (reads, final) in enumerate((plain_result, traced_result)):
            out.problems += self._check(inputs, reads, final, n == 0)
        setups = len(traced_setups) * CONSULT_BATCH + 1
        out.metrics = tracing.layer_metrics(tracer, self.turns, setups, traced / plain)
        out.notes.append(
            f"{self.name} seed {seed}: one session of {self.turns} turns and "
            f"{setups} consults traced; {plain:.2f} s untraced, {traced:.2f} s traced"
        )
        _write_layers(out, tracer, self.name, seed, out_dir)
        return out


RUNNERS = {
    "scripted-full-warehouse": MatchWorkload(
        name="scripted-full-warehouse",
        map_name="warehouse",
        side=ControllerSpec("scripted", FULL_STACK),
        reference=ControllerSpec("native"),
        reference_every_match=True,
        builds_per_match=2,
        traced_matches=2,
    ),
    "native-airplane": MatchWorkload(
        name="native-airplane",
        map_name="airplane",
        side=ControllerSpec("native"),
        reference=ControllerSpec("scripted", ("baseline",)),
        reference_every_match=False,
        builds_per_match=5,
        traced_matches=3,
    ),
    "engine-memory": MemoryWorkload(
        name="engine-memory", keys=8, turns=2000, value_range=1_000_000
    ),
}
