"""Spans and counts at each layer's public functions, for the traced run.

Wrappers go onto the program's classes and onto every module binding of
its public functions for the length of a traced pass, and come off
again afterwards.  A span records its name, start, end and parent; a
layer's self time is its span time minus the time of its child spans.
The hottest functions (clause visibility, predicate lookup, FOV tests,
path searches) are counted without a span.
"""

from __future__ import annotations

import gzip
import json
import sys
from array import array
from collections import Counter
from time import perf_counter

from rulebots.agents import minds, perception
from rulebots.agents.actions import ACTION_NATIVE_SIGNATURES, ActionExecutor
from rulebots.logic import database, reader, solver
from rulebots.match import match, round as match_round
from rulebots.rules import manifest
from rulebots.sim import mapdef, pathfind, world

CALLERS = ("decide", "normalize", "host")
PERCEPTION_NAMES = tuple(dict.fromkeys(n for n, _ in perception.PERCEPTION_NATIVE_SIGNATURES))
_ACTION_KEYS = frozenset(ACTION_NATIVE_SIGNATURES)


class Patcher:
    """Replaces attributes and puts the originals back on exit."""

    def __init__(self):
        self._undo = []

    def set(self, owner, name, value):
        had = name in vars(owner)
        self._undo.append((owner, name, vars(owner).get(name), had))
        setattr(owner, name, value)

    def set_everywhere(self, func, wrapped):
        """Rebind a module-level function in every program module that imported it."""
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", None) or ""
            if name.partition(".")[0] == "rulebots" and vars(module).get(func.__name__) is func:
                self.set(module, func.__name__, wrapped)

    def restore(self):
        while self._undo:
            owner, name, old, had = self._undo.pop()
            if had:
                setattr(owner, name, old)
            else:
                delattr(owner, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


class Tracer:
    """Spans kept in flat arrays, plus per-name time totals and counts."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.total: list[float] = []
        self.own: list[float] = []
        self.calls: list[int] = []
        self.counts: Counter = Counter()
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, time of child spans]
        self.caller = "host"
        self.consulting = 0

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.total.append(0.0)
            self.own.append(0.0)
            self.calls.append(0)
        return nid

    def open(self, nid: int) -> None:
        stack = self._stack
        index = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_end.append(0.0)
        stack.append([index, 0.0])
        self.span_start.append(perf_counter())

    def close(self, nid: int) -> None:
        end = perf_counter()
        index, child = self._stack.pop()
        took = end - self.span_start[index]
        self.span_end[index] = end
        self.total[nid] += took
        self.own[nid] += took - child
        self.calls[nid] += 1
        if self._stack:
            self._stack[-1][1] += took

    def wrap(self, name: str, fn, caller: str | None = None):
        """Span around fn; with a caller, proofs made inside are charged to it."""
        nid = self.name_id(name)
        tracer = self

        def spanned(*args, **kwargs):
            if caller is not None:
                outer, tracer.caller = tracer.caller, caller
            tracer.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(nid)
                if caller is not None:
                    tracer.caller = outer

        return spanned

    def count(self, key: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    # -- totals ----------------------------------------------------------

    def seconds(self, name: str, own: bool = False) -> float:
        nid = self._ids.get(name)
        if nid is None:
            return 0.0
        return self.own[nid] if own else self.total[nid]

    def span_calls(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.calls[nid]

    def write(self, path: str) -> None:
        """Spans as JSON lines, times in microseconds from the first span."""
        origin = self.span_start[0] if self.span_start else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names, "counts": dict(self.counts),
                                 "fields": ["name", "parent", "start_us", "end_us"]}) + "\n")
            for nid, parent, start, end in zip(
                self.span_name, self.span_parent, self.span_start, self.span_end
            ):
                fh.write(f"[{nid},{parent},{(start - origin) * 1e6:.1f},{(end - origin) * 1e6:.1f}]\n")


def install(tracer: Tracer, patcher: Patcher) -> None:
    """Wrap every layer's public entry points for one traced pass."""
    t = tracer
    KB = database.KnowledgeBase

    # match
    patcher.set_everywhere(match.build_match, t.wrap("match.build_match", match.build_match))
    patcher.set_everywhere(match_round.run_round, t.wrap("match.run_round", match_round.run_round))
    # sim.mapdef, rules, logic.reader
    patcher.set_everywhere(mapdef.load_map, t.wrap("sim.mapdef.load_map", mapdef.load_map))
    patcher.set_everywhere(manifest.load_stack, t.wrap("rules.load_stack", manifest.load_stack))
    patcher.set_everywhere(reader.read_program, t.wrap("logic.reader.read_program", reader.read_program))

    # logic.database
    consult = t.wrap("logic.database.consult", KB.consult)

    def consult_counted(kb, text):
        t.consulting += 1
        try:
            return consult(kb, text)
        finally:
            t.consulting -= 1

    add_clause = KB.add_clause

    def add_clause_counted(kb, head, body, front=False):
        t.counts["logic.database.consult_clauses" if t.consulting else "logic.database.asserts"] += 1
        return add_clause(kb, head, body, front)

    lookup = KB.lookup
    retract_all = KB.retract_all

    def retract_all_counted(kb, name, arity):
        pred = lookup(kb, (name, arity))
        if pred is not None:
            t.counts["logic.database.retracts"] += sum(1 for c in pred.clauses if c.death is None)
        return retract_all(kb, name, arity)

    alive_at = database.StoredClause.alive_at
    counts = t.counts

    def alive_at_counted(clause, generation):
        seen = alive_at(clause, generation)
        counts["logic.database.clause_tries"] += 1
        if seen:
            counts["logic.database.clause_visible"] += 1
        return seen

    register_native = KB.register_native

    def register_native_wrapped(kb, name, arity, handler, nondet=False):
        layer = "agents.actions" if (name, arity) in _ACTION_KEYS else "agents.perception"
        inner = t.count(f"{layer}.native_calls", t.count(f"{layer}.{name}_calls", handler))
        return register_native(kb, name, arity, t.wrap(f"{layer}.native", inner), nondet)

    patcher.set(KB, "consult", consult_counted)
    patcher.set(KB, "add_clause", add_clause_counted)
    patcher.set(KB, "kill_clause", t.count("logic.database.retracts", KB.kill_clause))
    patcher.set(KB, "retract_all", retract_all_counted)
    patcher.set(KB, "lookup", t.count("logic.database.lookup_calls", lookup))
    patcher.set(KB, "register_native", register_native_wrapped)
    patcher.set(database.StoredClause, "alive_at", alive_at_counted)

    # logic.solver: proofs are charged to the innermost decide or normalize
    prove_ids = {c: t.name_id(f"logic.solver.prove.{c}") for c in CALLERS}

    def solver_span(fn, counted: bool):
        def spanned(*args, **kwargs):
            caller = t.caller
            if counted:
                t.counts[f"logic.solver.prove_calls.{caller}"] += 1
            nid = prove_ids[caller]
            t.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                t.close(nid)

        return spanned

    patcher.set(solver.Engine, "prove", solver_span(solver.Engine.prove, True))
    patcher.set(solver.Engine, "solve", solver_span(solver.Engine.solve, True))
    patcher.set(solver.SolutionStream, "next_solution",
                solver_span(solver.SolutionStream.next_solution, False))

    # agents
    tick_agent = minds.Mind.tick_agent
    kinds = {k: t.wrap(f"agents.minds.tick_agent.{k}", tick_agent) for k in ("scripted", "native")}
    patcher.set(minds.Mind, "tick_agent", lambda mind: kinds[mind.kind](mind))
    for cls in (minds.ScriptedMind, minds.NativeMind):
        patcher.set(cls, "decide", t.wrap("agents.minds.decide", cls.decide, caller="decide"))
    patcher.set(ActionExecutor, "normalize",
                t.wrap("agents.actions.normalize", ActionExecutor.normalize, caller="normalize"))

    # sim.world, sim.pathfind
    W = world.WorldState
    patcher.set(W, "step", t.wrap("sim.world.step", W.step))
    patcher.set(W, "fov_pairs", t.wrap("sim.world.fov_pairs", W.fov_pairs))
    patcher.set(W, "in_fov", t.count("sim.world.in_fov_calls", W.in_fov))
    patcher.set(W, "state_digest", t.wrap("sim.world.state_digest", W.state_digest))
    patcher.set_everywhere(pathfind.shortest_path,
                           t.count("sim.pathfind.shortest_path_calls", pathfind.shortest_path))
    patcher.set_everywhere(pathfind.dijkstra_from,
                           t.count("sim.pathfind.dijkstra_calls", pathfind.dijkstra_from))


def layer_metrics(t: Tracer, units: int, setups: int, overhead: float) -> dict:
    """Per-layer metrics: counts over the traced pass, times per unit of work.

    A unit is a tick for the match workloads and a turn for engine-memory;
    set-up layers are charged per set-up (one match build or one fact-base
    consult).
    """

    def per_unit(seconds: float) -> float:
        return 1000.0 * seconds / units if units else 0.0

    def per_setup(seconds: float) -> float:
        return 1000.0 * seconds / setups if setups else 0.0

    c = t.counts
    tries = c["logic.database.clause_tries"]
    m = {
        "sim.mapdef.load_map_ms": (per_setup(t.seconds("sim.mapdef.load_map")), "ms"),
        "rules.load_stack_ms": (per_setup(t.seconds("rules.load_stack")), "ms"),
        "logic.reader.read_program_ms": (per_setup(t.seconds("logic.reader.read_program")), "ms"),
        "logic.database.consult_ms": (per_setup(t.seconds("logic.database.consult")), "ms"),
        "logic.database.consult_clauses": (c["logic.database.consult_clauses"], "count"),
    }
    for kind in ("scripted", "native"):
        own = t.seconds(f"agents.minds.tick_agent.{kind}", own=True)
        m[f"agents.minds.tick_agent_ms.{kind}"] = (per_unit(own), "ms")
    m["agents.minds.decide_calls"] = (t.span_calls("agents.minds.decide"), "count")
    m["agents.minds.decide_ms"] = (per_unit(t.seconds("agents.minds.decide")), "ms")
    m["agents.actions.normalize_ms"] = (per_unit(t.seconds("agents.actions.normalize")), "ms")
    for caller in CALLERS:
        m[f"logic.solver.prove_calls.{caller}"] = (c[f"logic.solver.prove_calls.{caller}"], "count")
    for caller in CALLERS:
        own = t.seconds(f"logic.solver.prove.{caller}", own=True)
        m[f"logic.solver.prove_ms.{caller}"] = (per_unit(own), "ms")
    m["logic.database.lookup_calls"] = (c["logic.database.lookup_calls"], "count")
    m["logic.database.clause_tries"] = (tries, "count")
    visible = c["logic.database.clause_visible"] / tries if tries else 0.0
    m["logic.database.clause_visible_ratio"] = (visible, "ratio")
    m["logic.database.asserts"] = (c["logic.database.asserts"], "count")
    m["logic.database.retracts"] = (c["logic.database.retracts"], "count")
    m["agents.perception.native_calls"] = (c["agents.perception.native_calls"], "count")
    m["agents.perception.native_ms"] = (per_unit(t.seconds("agents.perception.native", own=True)), "ms")
    for name in PERCEPTION_NAMES:
        m[f"agents.perception.{name}_calls"] = (c[f"agents.perception.{name}_calls"], "count")
    m["agents.actions.native_calls"] = (c["agents.actions.native_calls"], "count")
    m["sim.world.step_ms"] = (per_unit(t.seconds("sim.world.step")), "ms")
    m["sim.world.fov_pairs_ms"] = (per_unit(t.seconds("sim.world.fov_pairs")), "ms")
    m["sim.world.in_fov_calls"] = (c["sim.world.in_fov_calls"], "count")
    m["sim.pathfind.shortest_path_calls"] = (c["sim.pathfind.shortest_path_calls"], "count")
    m["sim.pathfind.dijkstra_calls"] = (c["sim.pathfind.dijkstra_calls"], "count")
    m["sim.world.state_digest_ms"] = (per_unit(t.seconds("sim.world.state_digest")), "ms")
    m["match.run_round_self_ms"] = (per_unit(t.seconds("match.run_round", own=True)), "ms")
    m["bench.traced_units"] = (units, "count")
    m["bench.trace_overhead"] = (overhead, "ratio")
    return m
