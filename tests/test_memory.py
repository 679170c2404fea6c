"""A finished match, and a dropped query stream, are freed by reference
counting alone.

Minds, engines and the solver's streams must not form reference cycles:
a cycle waits for the cyclic collector, which runs less often the fewer
containers the solver allocates, so a finished match's objects would
linger and raise the peak memory of a long experiment.  A stream left
for the collector would also keep its snapshot's dead clauses stored.
"""

import gc
import sys

import pytest

from rulebots.logic import Engine, Int, read_term, solver
from rulebots.match import ControllerSpec, MatchConfig, run_match

FULL_STACK = ("baseline", "cs_rules", "warehouse_tactics")


def cyclic_garbage_after(config: MatchConfig) -> int:
    """Objects only the cyclic collector could free after one match."""
    run_match(MatchConfig(map_name=config.map_name, seed=config.seed, rounds=1,
                          ct=config.ct, t=config.t))  # warm caches and lazy imports
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        result = run_match(config)
        assert len(result.rounds) == config.rounds
        del result
        return gc.collect()
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize(
    "side",
    [ControllerSpec("native"), ControllerSpec("scripted", FULL_STACK)],
    ids=["native", "scripted-full-stack"],
)
def test_match_leaves_no_cyclic_garbage(side):
    config = MatchConfig(map_name="warehouse", seed=3, rounds=12, ct=side, t=side)
    assert cyclic_garbage_after(config) == 0


def test_dropped_stream_neither_pins_dead_clauses_nor_leaves_garbage():
    e = Engine(output=lambda s: None)
    e.consult("p(1). p(2). p(3).")
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        goal, names = read_term("p(X)")
        assert e.solve(goal, names).next_solution()["X"] == Int(1)
        assert e.prove(read_term("retract(p(2))")[0])
        clauses = e.kb.lookup(("p", 1)).clauses
        assert [c.death for c in clauses] == [None, None]
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


def test_a_proof_enters_the_machine_once(monkeypatch):
    # a proof's machine returns at its first answer and is dropped with its
    # choicepoints: nothing is left suspended, to be resumed and unwound later
    code = solver._Machine.run.__code__
    entries = {"run": 0, "prove": 0}
    prove = solver.Engine.prove

    def counted_prove(engine, goal):
        entries["prove"] += 1
        return prove(engine, goal)

    def profile(frame, event, arg):  # a generator's resume is a "call" too
        if event == "call" and frame.f_code is code:
            entries["run"] += 1

    monkeypatch.setattr(solver.Engine, "prove", counted_prove)
    side = ControllerSpec("native")
    sys.setprofile(profile)
    try:
        # a mind reuses most repeated proofs, so a long match is needed to
        # watch over 3000 of them enter the machine
        run_match(MatchConfig(map_name="airplane", seed=1, rounds=30, ct=side, t=side))
    finally:
        sys.setprofile(None)
    assert entries["prove"] > 3000
    assert entries["run"] == entries["prove"]
