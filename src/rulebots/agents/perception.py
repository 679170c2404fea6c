"""Read-only views of the game world exposed as logic predicates.

Every predicate enumerates in ascending id order and only reports living
bots, so rule programs see a stable, deterministic world.  Bound
arguments of the wrong type raise a type error instead of failing
silently; that catches rule bugs early.
"""

from __future__ import annotations

from functools import partial

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


def _int_or_none(term: Term, what: str) -> int | None:
    """Bound integer value, or None when the argument is still open."""
    if isinstance(term, Var):
        return None
    if isinstance(term, Int):
        return term.value
    raise TermTypeError(f"integer {what}", term_str(term))


def _atom_or_none(term: Term, what: str) -> str | None:
    if isinstance(term, Var):
        return None
    if isinstance(term, Atom):
        return term.name
    raise TermTypeError(f"atom {what}", term_str(term))


def _alive_ids(world):
    return [b for b in sorted(world.bots) if world.bots[b].alive]


def bot_in_fov(world, board, a, b):
    va = _int_or_none(a, "bot id")
    vb = _int_or_none(b, "bot id")
    out = []
    for pa, pb in world.fov_pairs():
        if va is not None and pa != va:
            continue
        if vb is not None and pb != vb:
            continue
        out.append((Int(pa), Int(pb)))
    return out


def visible_enemy(world, board, a, b):
    va = _int_or_none(a, "bot id")
    vb = _int_or_none(b, "bot id")
    out = []
    for pa, pb in world.fov_pairs():
        if world.bots[pa].team == world.bots[pb].team:
            continue
        if va is not None and pa != va:
            continue
        if vb is not None and pb != vb:
            continue
        out.append((Int(pa), Int(pb)))
    return out


def bot_alive(world, board, b):
    vb = _int_or_none(b, "bot id")
    return [(Int(i),) for i in _alive_ids(world) if vb is None or i == vb]


def _per_bot(value_of, value_check, value_what):
    def handler(world, board, b, v):
        vb = _int_or_none(b, "bot id")
        value_check(v, value_what)
        return [
            (Int(i), value_of(world, world.bots[i]))
            for i in _alive_ids(world)
            if vb is None or i == vb
        ]

    return handler


def hostage_at(world, board, h, w):
    vh = _int_or_none(h, "hostage id")
    _int_or_none(w, "waypoint id")
    out = []
    for hid in sorted(world.hostages):
        hostage = world.hostages[hid]
        if hostage.rescued or hostage.following is not None:
            continue
        if vh is not None and hid != vh:
            continue
        out.append((Int(hid), Int(hostage.node)))
    return out


def hostage_following(world, board, h, b):
    vh = _int_or_none(h, "hostage id")
    _int_or_none(b, "bot id")
    out = []
    for hid in sorted(world.hostages):
        hostage = world.hostages[hid]
        if hostage.rescued or hostage.following is None:
            continue
        if vh is not None and hid != vh:
            continue
        out.append((Int(hid), Int(hostage.following)))
    return out


def hear_footsteps(world, board, a, b):
    va = _int_or_none(a, "bot id")
    vb = _int_or_none(b, "bot id")
    limit = world.config.hearing_range_cm
    out = []
    ids = _alive_ids(world)
    for i in ids:
        if va is not None and i != va:
            continue
        wi = world.nearest_wp(world.bots[i])
        for j in ids:
            if j == i:
                continue
            if vb is not None and j != vb:
                continue
            if world.map.cost(world.nearest_wp(world.bots[j]), wi) <= limit:
                out.append((Int(i), Int(j)))
    return out


def round_time_left(world, board, s):
    _int_or_none(s, "seconds")
    return [(Int(world.clock // 4),)]


def game_phase(world, board, p):
    _atom_or_none(p, "phase")
    return [(Atom(world.phase),)]


def waypoint_tag(world, board, w, tag):
    vw = _int_or_none(w, "waypoint id")
    _atom_or_none(tag, "tag")
    out = []
    for wid in world.map.ids:
        if vw is not None and wid != vw:
            continue
        for t in world.map.waypoints[wid].tags:
            out.append((Int(wid), Atom(t)))
    return out


def path_cost(world, board, a, b, c):
    va = _int_or_none(a, "waypoint id")
    vb = _int_or_none(b, "waypoint id")
    _int_or_none(c, "path cost")
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
    ("bot_in_fov", 2): (bot_in_fov, True),
    ("visible_enemy", 2): (visible_enemy, True),
    ("bot_alive", 1): (bot_alive, True),
    ("team", 2): (_per_bot(lambda world, bot: Atom(bot.team), _atom_or_none, "team name"), True),
    ("health", 2): (_per_bot(lambda world, bot: Int(bot.health), _int_or_none, "health"), True),
    ("ammo", 2): (_per_bot(lambda world, bot: Int(bot.ammo), _int_or_none, "ammo"), True),
    ("money", 2): (_per_bot(lambda world, bot: Int(bot.money), _int_or_none, "money"), True),
    ("at_waypoint", 2): (
        _per_bot(lambda world, bot: Int(world.nearest_wp(bot)), _int_or_none, "waypoint id"),
        True,
    ),
    ("hostage_at", 2): (hostage_at, True),
    ("hostage_following", 2): (hostage_following, True),
    ("hear_footsteps", 2): (hear_footsteps, True),
    ("round_time_left", 1): (round_time_left, False),
    ("game_phase", 1): (game_phase, False),
    ("waypoint_tag", 2): (waypoint_tag, True),
    ("path_cost", 3): (path_cost, False),
    ("team_assert", 1): (team_assert, False),
    ("team_retract", 1): (team_retract, False),
    ("team_fact", 1): (team_fact, True),
}

PERCEPTION_NATIVE_SIGNATURES = tuple(PERCEPTION_NATIVES)


def register_perception(kb, world: WorldState, board) -> None:
    for (name, arity), (handler, nondet) in PERCEPTION_NATIVES.items():
        kb.register_native(name, arity, partial(handler, world, board), nondet)
