"""World-view predicates: enumeration order, filtering, guard errors."""

from functools import lru_cache

import pytest

import support
from rulebots.agents import register_perception
from rulebots.logic import Engine, InstantiationError, KnowledgeBase, TermTypeError, term_str
from rulebots.match import MatchConfig
from rulebots.match.match import build_match
from rulebots.match.round import play_tick, start_round


def percept(world):
    kb = KnowledgeBase()
    board = []
    register_perception(kb, world, board)
    return Engine(kb, output=lambda s: None), board


def ids(solutions, *names):
    return [tuple(term_str(s[n]) for n in names) for s in solutions]


def test_visible_enemy_orders_and_filters_teams():
    w = support.line_world(team_size=2)
    support.skip_buy_phase(w)
    eng, _ = percept(w)
    pairs = ids(eng.run("visible_enemy(A, B)"), "A", "B")
    assert pairs == [
        ("0", "2"), ("0", "3"), ("1", "2"), ("1", "3"),
        ("2", "0"), ("2", "1"), ("3", "0"), ("3", "1"),
    ]
    # bot_in_fov adds the zero-distance teammate pairs on top
    fov = ids(eng.run("bot_in_fov(A, B)"), "A", "B")
    assert set(fov) - set(pairs) == {("0", "1"), ("1", "0"), ("2", "3"), ("3", "2")}
    assert fov == sorted(fov)


def test_visible_enemy_respects_facing():
    w = support.line_world()
    support.skip_buy_phase(w)
    eng, _ = percept(w)
    assert eng.run("visible_enemy(0, 1)") == [{}]
    w.bots[0].facing_deg = 180
    w.tick += 1  # invalidate the per-tick fov cache
    eng, _ = percept(w)
    assert eng.run("visible_enemy(0, 1)") == []
    assert eng.run("visible_enemy(1, 0)") == [{}]


def test_dead_bots_disappear_from_views():
    w = support.line_world(team_size=2)
    support.skip_buy_phase(w)
    w.bots[2].alive = False
    eng, _ = percept(w)
    assert ids(eng.run("bot_alive(B)"), "B") == [("0",), ("1",), ("3",)]
    assert eng.run("health(2, _H)") == []
    assert all(s["B"].value != 2 for s in eng.run("visible_enemy(_A, B)"))


def test_per_bot_views_bound_and_unbound():
    w = support.line_world()
    support.skip_buy_phase(w)
    eng, _ = percept(w)
    assert [s["T"].name for s in eng.run("team(B, T)")] == ["ct", "t"]
    assert eng.run("team(1, t)") == [{}]
    assert eng.run("team(1, ct)") == []
    assert [s["H"].value for s in eng.run("health(H0, H)") if s["H0"].value == 0] == [100]
    assert [s["M"].value for s in eng.run("money(0, M)")] == [800]
    assert [s["A"].value for s in eng.run("ammo(1, A)")] == [24]


def test_type_guards_raise():
    w = support.line_world()
    support.skip_buy_phase(w)
    eng, _ = percept(w)
    with pytest.raises(TermTypeError):
        eng.run("health(foo, _H)")
    with pytest.raises(TermTypeError):
        eng.run("team(0, 17)")
    with pytest.raises(TermTypeError):
        eng.run("at_waypoint(0, somewhere)")


def test_at_waypoint_rounds_edge_position():
    w = support.line_world()
    support.skip_buy_phase(w)
    bot = w.bots[0]
    bot.edge, bot.progress_cm = (0, 1), 125
    eng, _ = percept(w)
    assert [s["W"].value for s in eng.run("at_waypoint(0, W)")] == [0]
    bot.progress_cm = 250  # past the midpoint: counts as the far node
    eng, _ = percept(w)
    assert [s["W"].value for s in eng.run("at_waypoint(0, W)")] == [1]


def test_hostage_views_track_lifecycle():
    w = support.line_world()
    support.skip_buy_phase(w)
    eng, _ = percept(w)
    assert ids(eng.run("hostage_at(H, W)"), "H", "W") == [("0", "4")]
    assert eng.run("hostage_following(_H, _B)") == []
    w.hostages[0].following = 0
    eng, _ = percept(w)
    assert eng.run("hostage_at(_H, _W)") == []
    assert ids(eng.run("hostage_following(H, B)"), "H", "B") == [("0", "0")]
    w.hostages[0].rescued = True
    eng, _ = percept(w)
    assert eng.run("hostage_following(_H, _B)") == []


def test_hear_footsteps_range_cutoff():
    w = support.line_world()
    support.skip_buy_phase(w)
    w.bots[1].node = 3  # 1200 cm away, inside the 1500 cm hearing range
    eng, _ = percept(w)
    assert ids(eng.run("hear_footsteps(A, B)"), "A", "B") == [("0", "1"), ("1", "0")]
    w.bots[1].node = 4  # 1600 cm: out of earshot
    eng, _ = percept(w)
    assert eng.run("hear_footsteps(_A, _B)") == []


def test_clock_and_phase_views():
    w = support.line_world()
    eng, _ = percept(w)
    assert [s["P"].name for s in eng.run("game_phase(P)")] == ["buy"]
    support.skip_buy_phase(w)
    eng, _ = percept(w)
    assert [s["P"].name for s in eng.run("game_phase(P)")] == ["play"]
    # 340 ticks on the clock, four ticks to the second
    assert [s["S"].value for s in eng.run("round_time_left(S)")] == [(360 - 20) // 4]


def test_waypoint_tags_enumerate():
    w = support.line_world()
    eng, _ = percept(w)
    rows = ids(eng.run("waypoint_tag(W, T)"), "W", "T")
    assert ("0", "spawn_ct") in rows and ("0", "rescue_zone") in rows
    assert ("4", "hostage_point") in rows
    assert not any(wid == "1" for wid, _tag in rows)
    assert eng.run("waypoint_tag(0, rescue_zone)") == [{}]
    assert eng.run("waypoint_tag(1, rescue_zone)") == []


def test_path_cost_modes():
    w = support.line_world()
    eng, _ = percept(w)
    assert [s["C"].value for s in eng.run("path_cost(0, 5, C)")] == [2000]
    assert [s["C"].value for s in eng.run("path_cost(3, 3, C)")] == [0]
    assert eng.run("path_cost(0, 99, _C)") == []
    with pytest.raises(InstantiationError):
        eng.run("path_cost(_A, 5, _C)")


def test_blackboard_predicates():
    w = support.line_world()
    eng, board = percept(w)
    assert eng.run("team_assert(spotted(2, 5))") == [{}]
    assert eng.run("team_assert(spotted(3, 1))") == [{}]
    assert len(board) == 2
    rows = ids(eng.run("team_fact(spotted(B, W))"), "B", "W")
    assert rows == [("2", "5"), ("3", "1")]  # assertion order
    assert eng.run("team_fact(spotted(9, _))") == []
    assert [term_str(s["F"]) for s in eng.run("team_retract(spotted(2, F))")] == ["5"]
    assert eng.run("team_retract(spotted(2, _F))") == []
    assert len(board) == 1
    with pytest.raises(InstantiationError):
        eng.run("team_assert(spotted(_X, 1))")


# -- every view under every binding pattern ----------------------------

# What a bound argument of each view must be, position by position, as
# its type error names it.
VIEW_ARGS = {
    "bot_in_fov": ("integer bot id", "integer bot id"),
    "visible_enemy": ("integer bot id", "integer bot id"),
    "bot_alive": ("integer bot id",),
    "team": ("integer bot id", "atom team name"),
    "health": ("integer bot id", "integer health"),
    "ammo": ("integer bot id", "integer ammo"),
    "money": ("integer bot id", "integer money"),
    "at_waypoint": ("integer bot id", "integer waypoint id"),
    "hostage_at": ("integer hostage id", "integer waypoint id"),
    "hostage_following": ("integer hostage id", "integer bot id"),
    "hear_footsteps": ("integer bot id", "integer bot id"),
    "round_time_left": ("integer seconds",),
    "game_phase": ("atom phase",),
    "waypoint_tag": ("integer waypoint id", "atom tag"),
}

WORLDS = ["line"] + [
    f"{map_name}-{seed}-{ticks}"
    for map_name in ("warehouse", "airplane")
    for seed in range(3)
    for ticks in (40, 120)
]


def play(world, boards, minds, ticks):
    """Yield before each of `ticks` ticks, starting the next round when one ends."""
    round_no = 0
    start_round(world, minds, boards, round_no)
    for _ in range(ticks):
        if world.outcome is not None:
            round_no += 1
            start_round(world, minds, boards, round_no)
        yield
        play_tick(world, minds)


@lru_cache(maxsize=None)
def played_world(name):
    """The line world in play, or a native match's world after some ticks."""
    if name == "line":
        world = support.line_world(team_size=2)
        support.skip_buy_phase(world)
        world.hostages[0].following = 2  # a led hostage, so every view has rows
        return world
    map_name, seed, ticks = name.split("-")
    world, boards, minds = build_match(MatchConfig(map_name=map_name, seed=int(seed)))
    for _ in play(world, boards, minds, int(ticks)):
        pass
    return world


@pytest.mark.parametrize("world_name", WORLDS)
@pytest.mark.parametrize("view", VIEW_ARGS)
def test_bound_arguments_select_the_open_answers(view, world_name):
    eng, _ = percept(played_world(world_name))
    kinds = VIEW_ARGS[view]
    names = ["A", "B"][: len(kinds)]

    def query(args):
        return f"{view}({', '.join(args)})"

    def rows(args):
        """Each answer as a full row of argument texts, bound ones as given."""
        return [tuple(term_str(s[a]) if a in names else a for a in args) for s in eng.run(query(args))]

    every = rows(names)
    for i, kind in enumerate(kinds):
        absent = "nowhere" if kind.startswith("atom") else "999"
        values = list(dict.fromkeys(row[i] for row in every))
        assert absent not in values
        for value in values + [absent]:
            args = names[:i] + [value] + names[i + 1:]
            assert rows(args) == [row for row in every if row[i] == value]
        wrong = "17" if kind.startswith("atom") else "foo"
        with pytest.raises(TermTypeError) as err:
            eng.run(query(names[:i] + [wrong] + names[i + 1:]))
        assert str(err.value) == f"expected {kind}, got '{wrong}'"
    if len(names) == 2:
        for row in every:
            assert rows(list(row)) == [row] * every.count(row)


def test_every_view_has_rows_in_some_world():
    assert all(
        any(percept(played_world(w))[0].run(f"{view}({', '.join('_' * len(kinds))})") for w in WORLDS)
        for view, kinds in VIEW_ARGS.items()
    )


def test_shared_world_views_across_ticks_and_rounds():
    led_seen = 0
    for map_name in ("warehouse", "airplane"):
        world, boards, minds = build_match(MatchConfig(map_name=map_name, seed=1))
        for _ in play(world, boards, minds, 200):
            bots = world.bots
            # asked first in the tick, enemy_pairs builds the tick's pairs itself
            enemies = world.enemy_pairs()
            assert enemies == tuple(
                (a, b) for a, b in world.fov_pairs() if bots[a].team != bots[b].team
            )
            free = [h.id for h in world.free_hostages()]
            led = [h.id for h in world.led_hostages()]
            assert free == sorted(free) and led == sorted(led)
            assert sorted(free + led) == sorted(h.id for h in world.hostages.values() if not h.rescued)
            assert all(world.hostages[h].following is None for h in free)
            assert all(world.hostages[h].following is not None for h in led)
            led_seen += len(led)
        assert world.round_no > 1
    assert led_seen > 0
