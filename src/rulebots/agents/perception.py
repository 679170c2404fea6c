"""Read-only views of the game world exposed as logic predicates.

Fourteen natives are views, each declared once: a function that gives its
rows as plain ints and strings, and each argument's kind.  One selector
checks each bound argument's type, keeps the rows that agree with it and
wraps them as terms.  Rows come in ascending id order and report only
living bots, since `WorldState.bots` and `hostages` hold ids in ascending
order.  A bound argument of the wrong type raises a type error instead of
failing silently; that catches rule bugs early.
"""

from __future__ import annotations

from functools import partial
from operator import attrgetter
from typing import NamedTuple

from rulebots.logic import (
    Atom,
    InstantiationError,
    Int,
    Term,
    TermTypeError,
    Var,
    collect_vars,
    term_str,
    unify_terms,
)
from rulebots.sim import WorldState


class Native(NamedTuple):
    """A native's declaration.  `nondet` lets it answer more than once.  A
    writer changes the game (it launches an action or writes the team
    board); a reader only looks, so asking it again is harmless."""

    handler: object
    nondet: bool = False
    writes: bool = False


# Argument kinds: (term class, what the argument names).  The action
# launchers check their arguments with these kinds too.
BOT = (Int, "bot id")
WAYPOINT = (Int, "waypoint id")
HOSTAGE = (Int, "hostage id")


def _bound(term: Term, kind: tuple):
    """A bound argument's plain value, or None while it is open."""
    if type(term) is Var:
        return None
    cls, what = kind
    if type(term) is not cls:
        raise TermTypeError(f"{'integer' if cls is Int else 'atom'} {what}", term_str(term))
    return term.value if cls is Int else term.name


def select(rows_of, kinds, world, board, a, b=None):
    """The rows of a view that agree with every bound argument, as terms.
    A view has one or two arguments; `b` is None for a view of one.  A
    bound argument answers as the call's own term, and a call bound in
    full answers once per equal row."""
    va = _bound(a, kinds[0])
    if b is None:
        rows = rows_of(world)
        if va is not None:
            return [(a,)] * rows.count((va,))
        wrap = kinds[0][0]
        return [(wrap(x),) for (x,) in rows]
    vb = _bound(b, kinds[1])
    rows = rows_of(world)
    (wrap_a, _), (wrap_b, _) = kinds
    if va is None:
        if vb is None:
            return [(wrap_a(x), wrap_b(y)) for x, y in rows]
        return [(wrap_a(x), b) for x, y in rows if y == vb]
    if vb is None:
        return [(a, wrap_b(y)) for x, y in rows if x == va]
    return [(a, b)] * rows.count((va, vb))


def _view(rows_of, *kinds):
    return partial(select, rows_of, kinds)


def _bot_field(field: str, kind: tuple):
    """A view of one field of each living bot: rows (bot id, value)."""
    value = attrgetter(field)
    return _view(lambda w: [(b.id, value(b)) for b in w.bots.values() if b.alive], BOT, kind)


def _waypoints(world):
    return [(b.id, world.nearest_wp(b)) for b in world.bots.values() if b.alive]


def _footsteps(world):
    limit = world.config.hearing_range_cm
    at = _waypoints(world)
    return [(i, j) for i, wi in at for j, wj in at if j != i and world.map.cost(wj, wi) <= limit]


def _tags(world):
    waypoints = world.map.waypoints
    return [(wid, tag) for wid in world.map.ids for tag in waypoints[wid].tags]


def path_cost(world, board, a, b, c):
    va = _bound(a, WAYPOINT)
    vb = _bound(b, WAYPOINT)
    _bound(c, (Int, "path cost"))
    if va is None or vb is None:
        raise InstantiationError("path_cost/3 needs both waypoint ids bound")
    if va not in world.map.waypoints or vb not in world.map.waypoints:
        return None
    return [(Int(va), Int(vb), Int(world.map.cost(va, vb)))]


def team_assert(world, board, fact):
    if collect_vars(fact):
        raise InstantiationError("team_assert/1 needs a ground fact")
    board.append(fact)
    return [None]


def team_retract(world, board, pattern):
    """Remove and answer the first fact the pattern unifies with."""
    for i, fact in enumerate(board):
        if unify_terms(pattern, fact) is not None:
            return [(board.pop(i),)]
    return None


def team_fact(world, board, pattern):
    return [(f,) for f in board]


# Every perception native: (name, arity) -> Native.  A handler takes the
# world and the team board (a list of facts, in assertion order) before its
# rule arguments.  The two that change the board are writers; every other
# native only reads.
PERCEPTION_NATIVES = {
    ("bot_in_fov", 2): Native(_view(lambda w: w.fov_pairs(), BOT, BOT), nondet=True),
    ("visible_enemy", 2): Native(_view(lambda w: w.enemy_pairs(), BOT, BOT), nondet=True),
    ("bot_alive", 1): Native(
        _view(lambda w: [(b.id,) for b in w.bots.values() if b.alive], BOT), nondet=True
    ),
    ("team", 2): Native(_bot_field("team", (Atom, "team name")), nondet=True),
    ("health", 2): Native(_bot_field("health", (Int, "health")), nondet=True),
    ("ammo", 2): Native(_bot_field("ammo", (Int, "ammo")), nondet=True),
    ("money", 2): Native(_bot_field("money", (Int, "money")), nondet=True),
    ("at_waypoint", 2): Native(_view(_waypoints, BOT, WAYPOINT), nondet=True),
    ("hostage_at", 2): Native(
        _view(lambda w: [(h.id, h.node) for h in w.free_hostages()], HOSTAGE, WAYPOINT),
        nondet=True,
    ),
    ("hostage_following", 2): Native(
        _view(lambda w: [(h.id, h.following) for h in w.led_hostages()], HOSTAGE, BOT),
        nondet=True,
    ),
    ("hear_footsteps", 2): Native(_view(_footsteps, BOT, BOT), nondet=True),
    ("round_time_left", 1): Native(_view(lambda w: [(w.clock // 4,)], (Int, "seconds"))),
    ("game_phase", 1): Native(_view(lambda w: [(w.phase,)], (Atom, "phase"))),
    ("waypoint_tag", 2): Native(_view(_tags, WAYPOINT, (Atom, "tag")), nondet=True),
    ("path_cost", 3): Native(path_cost),
    ("team_assert", 1): Native(team_assert, writes=True),
    ("team_retract", 1): Native(team_retract, writes=True),
    ("team_fact", 1): Native(team_fact, nondet=True),
}

PERCEPTION_NATIVE_SIGNATURES = tuple(PERCEPTION_NATIVES)


def register_perception(kb, world: WorldState, board) -> None:
    for (name, arity), native in PERCEPTION_NATIVES.items():
        kb.register_native(name, arity, partial(native.handler, world, board), native.nondet)
