"""Action lifecycle semantics: starts, interrupts, continuations.

The interrupt contract: once an action's motivation goal stops being
provable, the action is dropped by the next normalize pass (one tick at
most), its continuation is never invoked, and the interruption shows up
in the event trace.  Continuations of completed actions run exactly
once.  The randomized suite hammers the contract across schedules; the
named tests pin the concrete scenarios.
"""

import random

import pytest

import support
from rulebots.agents import Action
from rulebots.agents.actions import NORMALIZE_LIMIT
from rulebots.logic import (
    ExistenceError,
    InstantiationError,
    Int,
    NotPermittedError,
    Struct,
    TermTypeError,
)
from rulebots.sim import SimConfig, WorldState, parse_map

LIFECYCLE = ("started", "interrupted", "completed", "failed")
LINE = parse_map(support.LINE_MAP)


def quick_world(seed=0):
    w = WorldState(LINE, SimConfig(buy_ticks=1), seed)
    support.skip_buy_phase(w)
    return w


def harness(seed=0):
    w = quick_world(seed)
    ex, eng = support.executor_harness(w)
    return w, ex, eng


def lifecycle_of(events):
    return [(e[3], e[4]) for e in events if e[3] in LIFECYCLE]


def mark_count(eng, k):
    return len(eng.run(f"done({k})"))


# -- basic lifecycle ----------------------------------------------------


def test_launch_emits_started():
    w, ex, eng = harness()
    assert eng.run("action_goto(0, 3)") == [{}]
    assert ex.active.kind == "goto"
    assert ("started", "action=goto(3)") in lifecycle_of(w.events)


def test_completion_fires_continuation_exactly_once():
    w, ex, eng = harness()
    eng.run("action_goto(0, 1, andThen(mark(7)))")
    for _ in range(8):
        support.drive_tick(w, ex)
    done = [ev for ev in lifecycle_of(w.events) if ev == ("completed", "action=goto(1)")]
    assert len(done) == 1
    assert mark_count(eng, 7) == 1


def test_preempting_start_interrupts_and_skips_continuation():
    w, ex, eng = harness()
    eng.run("action_goto(0, 5, andThen(mark(1)))")
    eng.run("action_wait(0, 3)")
    events = lifecycle_of(w.events)
    assert events == [
        ("started", "action=goto(5)"),
        ("interrupted", "action=goto(5)"),
        ("started", "action=wait(3)"),
    ]
    assert mark_count(eng, 1) == 0


def test_motivation_drop_interrupts_on_next_tick():
    w, ex, eng = harness()
    eng.run("assertz(ok)")
    eng.run("action_goto(0, 5, (ok, andThen(mark(2))))")
    for _ in range(3):
        support.drive_tick(w, ex)
    assert ex.active is not None
    assert eng.run("retract(ok)") == [{}]
    events = support.drive_tick(w, ex)
    assert ("interrupted", "action=goto(5)") in lifecycle_of(events)
    assert ex.active is None
    for _ in range(2):
        support.drive_tick(w, ex)
    assert mark_count(eng, 2) == 0


def test_motivation_drop_before_first_tick():
    w, ex, eng = harness()
    eng.run("assertz(ok)")
    eng.run("action_guard(0, 5, (ok, andThen(mark(3))))")
    eng.run("retract(ok)")
    events = support.drive_tick(w, ex)
    assert ("interrupted", "action=guard(5)") in lifecycle_of(events)
    assert mark_count(eng, 3) == 0


def test_death_interrupts():
    w, ex, eng = harness()
    eng.run("action_goto(0, 5, andThen(mark(4)))")
    w.bots[0].alive = False
    events = support.drive_tick(w, ex)
    assert ("interrupted", "action=goto(5)") in lifecycle_of(events)
    assert ex.active is None
    assert mark_count(eng, 4) == 0


def test_failed_action_skips_continuation():
    w, ex, _eng = harness()
    ex.start(Action("goto", (99,), continuation=Struct("done", (Int(5),))))
    events = support.drive_tick(w, ex)
    assert ("failed", "action=goto(99)") in lifecycle_of(events)
    assert ex.active is None


def test_idle_native_reflects_executor():
    w, ex, eng = harness()
    assert eng.run("idle(0)") == [{}]
    eng.run("action_wait(0, 9)")
    assert eng.run("idle(0)") == []


def test_cyclic_continuation_is_bounded():
    w, ex, eng = harness()
    eng.consult("loop :- action_goto(0, 0, andThen(loop)).")
    eng.run("loop")
    events = support.drive_tick(w, ex)
    completed = [ev for ev in lifecycle_of(events) if ev[0] == "completed"]
    assert 0 < len(completed) <= NORMALIZE_LIMIT


# -- how each kind ends -------------------------------------------------

DWELL = 5  # guard_dwell_ticks of the end-of-action world


def _kill_bot(w):
    w.bots[0].alive = False


def _go_broke(w):
    w.bots[0].money = 0


def _stand_on_hostage(w):
    w.bots[0].node = 4


def _hostage_taken(w):
    w.hostages[0].following = 1


# (goal, {tick index: change made before that tick}, lifecycle as
# (event, label, ticks since launch), continuation runs, still active).
# A kind that never ends is driven for 12 ticks.
ACTION_ENDS = {
    "goto arrives": (
        "action_goto(0, 1, andThen(mark(1)))", {},
        [("started", "goto(1)", 0), ("completed", "goto(1)", 4)], 1, False),
    "goto already there": (
        "action_goto(0, 0, andThen(mark(1)))", {},
        [("started", "goto(0)", 0), ("completed", "goto(0)", 0)], 1, False),
    "goto unknown waypoint fails": (
        "action_goto(0, 99, andThen(mark(1)))", {},
        [("started", "goto(99)", 0), ("failed", "goto(99)", 0)], 0, False),
    "guard dwells at its post": (
        "action_guard(0, 0, andThen(mark(1)))", {},
        [("started", "guard(0)", 0), ("completed", "guard(0)", DWELL)], 1, False),
    "guard counts only ticks at the post": (
        "action_guard(0, 1, andThen(mark(1)))", {},
        [("started", "guard(1)", 0), ("completed", "guard(1)", 4 + DWELL)], 1, False),
    "guard unknown post fails": (
        "action_guard(0, 99, andThen(mark(1)))", {},
        [("started", "guard(99)", 0), ("failed", "guard(99)", 0)], 0, False),
    "wait(3)": (
        "action_wait(0, 3)", {},
        [("started", "wait(3)", 0), ("completed", "wait(3)", 3)], 0, False),
    "wait(0)": (
        "action_wait(0, 0)", {},
        [("started", "wait(0)", 0), ("completed", "wait(0)", 0)], 0, False),
    "buy with the money": (
        "action_buy(0, rifle)", {},
        [("started", "buy(rifle)", 0), ("completed", "buy(rifle)", 1)], 0, False),
    "buy without the money fails": (
        "action_buy(0, rifle)", {0: _go_broke},
        [("started", "buy(rifle)", 0), ("failed", "buy(rifle)", 1)], 0, False),
    "kill never completes": (
        "action_kill(0, 1, andThen(mark(1)))", {},
        [("started", "kill(1)", 0)], 0, True),
    "liberate leads a hostage": (
        "action_liberate_hostages(0, andThen(mark(1)))", {0: _stand_on_hostage},
        [("started", "liberate_hostages", 0), ("completed", "liberate_hostages", 1)], 1, False),
    "liberate with no free hostage": (
        "action_liberate_hostages(0, andThen(mark(1)))", {0: _hostage_taken},
        [("started", "liberate_hostages", 0), ("completed", "liberate_hostages", 0)], 1, False),
    "death interrupts": (
        "action_goto(0, 5, andThen(mark(1)))", {2: _kill_bot},
        [("started", "goto(5)", 0), ("interrupted", "goto(5)", 2)], 0, False),
    "death comes before completion": (
        "action_goto(0, 0, andThen(mark(1)))", {0: _kill_bot},
        [("started", "goto(0)", 0), ("interrupted", "goto(0)", 0)], 0, False),
    "death comes before failure": (
        "action_goto(0, 99, andThen(mark(1)))", {0: _kill_bot},
        [("started", "goto(99)", 0), ("interrupted", "goto(99)", 0)], 0, False),
    "completion comes before a lost motivation": (
        "action_goto(0, 0, (ok, andThen(mark(1))))", {},
        [("started", "goto(0)", 0), ("completed", "goto(0)", 0)], 1, False),
    "failure comes before a lost motivation": (
        "action_guard(0, 99, (ok, andThen(mark(1))))", {},
        [("started", "guard(99)", 0), ("failed", "guard(99)", 0)], 0, False),
    "a lost motivation interrupts": (
        "action_guard(0, 0, (ok, andThen(mark(1))))", {},
        [("started", "guard(0)", 0), ("interrupted", "guard(0)", 0)], 0, False),
}


@pytest.mark.parametrize("name", ACTION_ENDS)
def test_how_each_kind_ends(name):
    goal, changes, lifecycle, runs, active = ACTION_ENDS[name]
    w = WorldState(LINE, SimConfig(buy_ticks=1, guard_dwell_ticks=DWELL), 0)
    support.skip_buy_phase(w)
    ex, eng = support.executor_harness(w)
    launched = w.tick
    assert eng.run(goal) == [{}]
    for i in range(12):
        if i in changes:
            changes[i](w)
        support.drive_tick(w, ex)
        if ex.active is None:
            break
    assert [
        (e[3], e[4].removeprefix("action="), e[0] - launched)
        for e in w.events if e[3] in LIFECYCLE
    ] == lifecycle
    assert mark_count(eng, 1) == runs
    assert (ex.active is not None) == active


# -- misuse -------------------------------------------------------------

LAUNCHER_ERRORS = [
    ("action_goto(X, 3)", InstantiationError, "bot id must be bound"),
    ("idle(X)", InstantiationError, "bot id must be bound"),
    ("action_goto(a, 3)", TermTypeError, "expected integer bot id, got 'a'"),
    ("action_goto(1, 3)", NotPermittedError, "bot 0 cannot drive actions of bot 1"),
    ("action_goto(0, X)", InstantiationError, "waypoint id must be bound"),
    ("action_goto(0, f(X))", InstantiationError, "waypoint id must be bound"),
    ("action_goto(0, a)", TermTypeError, "expected integer waypoint id, got 'a'"),
    ("action_guard(0, X, ok)", InstantiationError, "waypoint id must be bound"),
    ("action_kill(0, a)", TermTypeError, "expected integer target bot id, got 'a'"),
    ("action_kill(0, X)", InstantiationError, "target bot id must be bound"),
    ("action_buy(0, X)", InstantiationError, "weapon name must be bound"),
    ("action_buy(0, 3)", TermTypeError, "expected atom weapon name, got '3'"),
    ("action_buy(0, laser)", TermTypeError, "expected known weapon name, got 'laser'"),
    ("action_wait(0, b)", TermTypeError, "expected integer tick count, got 'b'"),
    ("action_wait(0, -1)", TermTypeError, "expected non-negative tick count, got '-1'"),
    ("action_goto(0, 3, X)", InstantiationError, "action options must be ground"),
    ("action_goto(0, 3, (ok, foo))", TermTypeError,
     "expected (motivation, andThen(goal)) pair, got 'ok,foo'"),
    ("action_liberate_hostages(0, 7)", TermTypeError, "expected callable motivation, got '7'"),
    ("action_wait(0, 3, ok)", ExistenceError, "unknown predicate action_wait/3"),
]


@pytest.mark.parametrize("goal, error, message", LAUNCHER_ERRORS)
def test_launcher_misuse_raises_and_starts_nothing(goal, error, message):
    w, ex, eng = harness()
    with pytest.raises(error) as caught:
        eng.run(goal)
    assert type(caught.value) is error
    assert str(caught.value) == message
    assert ex.active is None
    assert lifecycle_of(w.events) == []


# -- scripted scenarios -------------------------------------------------


def test_goto_then_liberate_scenario():
    # walk to the hostage point, then pick up the hostage there
    w, ex, eng = harness()
    eng.run("action_goto(0, 4, andThen(action_liberate_hostages(0, andThen(mark(99)))))")
    for _ in range(30):
        support.drive_tick(w, ex)
        if ex.active is None and w.hostages[0].following == 0:
            break
    events = lifecycle_of(w.events)
    assert events.count(("completed", "action=goto(4)")) == 1
    assert events.count(("started", "action=liberate_hostages")) == 1
    assert events.count(("completed", "action=liberate_hostages")) == 1
    assert mark_count(eng, 99) == 1
    assert any(e[3] == "hostage_grabbed" for e in w.events)


def test_three_link_continuation_chain():
    w, ex, eng = harness()
    eng.run(
        "action_goto(0, 1, andThen((mark(1), action_goto(0, 2, "
        "andThen((mark(2), action_goto(0, 3, andThen(mark(3)))))))))"
    )
    for _ in range(20):
        support.drive_tick(w, ex)
        if ex.active is None:
            break
    events = lifecycle_of(w.events)
    for node in (1, 2, 3):
        assert events.count(("completed", f"action=goto({node})")) == 1
        assert mark_count(eng, node) == 1
    started = [ev[1] for ev in events if ev[0] == "started"]
    assert started == ["action=goto(1)", "action=goto(2)", "action=goto(3)"]
    assert w.bots[0].node == 3


# -- randomized schedules ----------------------------------------------


LAUNCHES = (
    "action_goto(0, 5, (ok, andThen(mark({k}))))",
    "action_guard(0, 5, (ok, andThen(mark({k}))))",
    "action_kill(0, 1, (ok, andThen(mark({k}))))",
    "action_liberate_hostages(0, (ok, andThen(mark({k}))))",
)


def run_interrupt_case(rng, k):
    """One schedule: launch, run a bit, interrupt, watch the fallout.

    Returns a list of violation strings; empty means the contract held.
    """
    w, ex, eng = harness(seed=k)
    launch = rng.choice(LAUNCHES)
    if "action_kill" in launch:
        # aim away so shots fail deterministically and nobody dies early
        w.bots[0].facing_deg = 180
    eng.run("assertz(ok)")
    eng.run(launch.format(k=k))
    label = ex.active.label()
    for _ in range(rng.randrange(0, 7)):
        support.drive_tick(w, ex)
    problems = []
    if ex.active is None:
        return [f"{label}: finished before the interrupt"]
    mode = rng.choice(("drop", "preempt", "death"))
    if mode == "preempt":
        eng.run("action_wait(0, 9)")
        events = [(e[3], e[4]) for e in w.events]
    else:
        if mode == "drop":
            eng.run("retract(ok)")
        else:
            w.bots[0].alive = False
        events = lifecycle_of(support.drive_tick(w, ex))
    if ("interrupted", f"action={label}") not in events:
        problems.append(f"{label}: no interrupt within one tick ({mode})")
    for _ in range(2):
        support.drive_tick(w, ex)
    if mark_count(eng, k):
        problems.append(f"{label}: continuation ran after interrupt ({mode})")
    return problems


def test_randomized_interrupt_schedules():
    rng = random.Random(20240822)
    cases = 1000
    violations = []
    for k in range(cases):
        violations.extend(run_interrupt_case(rng, k))
    assert violations == []
