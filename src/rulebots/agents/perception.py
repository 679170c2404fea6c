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

from rulebots.logic import (
    Atom,
    InstantiationError,
    Int,
    Term,
    TermTypeError,
    Var,
    collect_vars,
    term_str,
)
from rulebots.sim import WorldState

# Argument kinds: (term class, what a bound argument must be).
BOT = (Int, "integer bot id")
WAYPOINT = (Int, "integer waypoint id")
HOSTAGE = (Int, "integer hostage id")


def _bound(term: Term, kind: tuple):
    """A bound argument's plain value, or None while it is open."""
    if type(term) is Var:
        return None
    cls, expected = kind
    if type(term) is not cls:
        raise TermTypeError(expected, term_str(term))
    return term.value if cls is Int else term.name


def select(rows_of, kinds, world, board, a, b=None):
    """The rows of a view that agree with every bound argument, as terms.
    A view has one or two arguments; `b` is None for a view of one."""
    va = _bound(a, kinds[0])
    vb = None if b is None else _bound(b, kinds[1])
    rows = rows_of(world)
    if va is not None:
        rows = [row for row in rows if row[0] == va]
    if vb is not None:
        rows = [row for row in rows if row[1] == vb]
    if b is None:
        wrap = kinds[0][0]
        return [(wrap(x),) for (x,) in rows]
    (wrap_a, _), (wrap_b, _) = kinds
    return [(wrap_a(x), wrap_b(y)) for x, y in rows]


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
    _bound(c, (Int, "integer path cost"))
    if va is None or vb is None:
        raise InstantiationError("path_cost/3 needs both waypoint ids bound")
    if va not in world.map.waypoints or vb not in world.map.waypoints:
        return None
    return [(Int(va), Int(vb), Int(world.map.cost(va, vb)))]


def team_assert(world, board, fact):
    if collect_vars(fact):
        raise InstantiationError("team_assert/1 needs a ground fact")
    board.assert_fact(fact)
    return [None]


def team_retract(world, board, pattern):
    removed = board.retract_match(pattern)
    if removed is None:
        return None
    return [(removed,)]


def team_fact(world, board, pattern):
    return [(f,) for f in board.snapshot()]


# Every perception native: (name, arity) -> (handler, nondet).  A handler
# takes the world and the team blackboard before its rule arguments.
PERCEPTION_NATIVES = {
    ("bot_in_fov", 2): (_view(lambda w: w.fov_pairs(), BOT, BOT), True),
    ("visible_enemy", 2): (_view(lambda w: w.enemy_pairs(), BOT, BOT), True),
    ("bot_alive", 1): (_view(lambda w: [(b.id,) for b in w.bots.values() if b.alive], BOT), True),
    ("team", 2): (_bot_field("team", (Atom, "atom team name")), True),
    ("health", 2): (_bot_field("health", (Int, "integer health")), True),
    ("ammo", 2): (_bot_field("ammo", (Int, "integer ammo")), True),
    ("money", 2): (_bot_field("money", (Int, "integer money")), True),
    ("at_waypoint", 2): (_view(_waypoints, BOT, WAYPOINT), True),
    ("hostage_at", 2): (
        _view(lambda w: [(h.id, h.node) for h in w.free_hostages()], HOSTAGE, WAYPOINT),
        True,
    ),
    ("hostage_following", 2): (
        _view(lambda w: [(h.id, h.following) for h in w.led_hostages()], HOSTAGE, BOT),
        True,
    ),
    ("hear_footsteps", 2): (_view(_footsteps, BOT, BOT), True),
    ("round_time_left", 1): (_view(lambda w: [(w.clock // 4,)], (Int, "integer seconds")), False),
    ("game_phase", 1): (_view(lambda w: [(w.phase,)], (Atom, "atom phase")), False),
    ("waypoint_tag", 2): (_view(_tags, WAYPOINT, (Atom, "atom tag")), True),
    ("path_cost", 3): (path_cost, False),
    ("team_assert", 1): (team_assert, False),
    ("team_retract", 1): (team_retract, False),
    ("team_fact", 1): (team_fact, True),
}

PERCEPTION_NATIVE_SIGNATURES = tuple(PERCEPTION_NATIVES)


def register_perception(kb, world: WorldState, board) -> None:
    for (name, arity), (handler, nondet) in PERCEPTION_NATIVES.items():
        kb.register_native(name, arity, partial(handler, world, board), nondet)
