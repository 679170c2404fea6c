"""Scripted baseline vs the hand-coded controller: same brain, two bodies.

The baseline rule package and the native controller implement the same
decision procedure, so with a shared seed their matches must produce the
same events, byte for byte.  Twenty seeded rounds on the warehouse map,
zero tolerance.
"""

import pytest

import support
from rulebots.agents import make_mind
from rulebots.match import ControllerSpec, MatchConfig, run_match
from rulebots.match.replay import render_body
from rulebots.sim import MoveIntent, SimConfig, WorldState, parse_map

SEEDS = (0, 1, 7, 13, 42)
ROUNDS = 4  # per seed; 5 seeds make the 20-round budget


def side(kind):
    return ControllerSpec(kind, ("baseline",) if kind == "scripted" else ())


def match_config(ct_kind, t_kind, seed, rounds=ROUNDS):
    return MatchConfig(
        map_name="warehouse", seed=seed, rounds=rounds, ct=side(ct_kind), t=side(t_kind)
    )


def test_twenty_rounds_byte_identical():
    for seed in SEEDS:
        scripted = run_match(match_config("scripted", "scripted", seed))
        native = run_match(match_config("native", "native", seed))
        left = "\n".join(render_body(scripted))
        right = "\n".join(render_body(native))
        assert left == right, f"seed {seed} diverged"
        # the equality must not be vacuous: every round has action lifecycle traffic
        assert left.count("\n") > 100
        for round_result in scripted.rounds:
            assert any(e[3] == "started" for e in round_result.events)
        assert [r.digest for r in scripted.rounds] == [r.digest for r in native.rounds]
        assert scripted.counts == native.counts


def test_mixed_pairings_share_the_trace():
    reference = render_body(run_match(match_config("native", "native", 3, rounds=2)))
    for ct_kind, t_kind in (("scripted", "native"), ("native", "scripted")):
        other = render_body(run_match(match_config(ct_kind, t_kind, 3, rounds=2)))
        assert other == reference


# A corridor where every choice is a tie: two hostage points and two rescue
# zones, each pair equally far from the spawn both teams share.  No golden
# trace reaches a tie, so this pins the tie-break of each cheapest-target
# search: the lower id wins, in the native mind, the baseline rules and the
# executor alike.
TIE_MAP = """
name ties
waypoint 0 0 0 hostage_point
waypoint 1 4 0 rescue_zone
waypoint 2 8 0 spawn_ct,spawn_t
waypoint 3 12 0 rescue_zone
waypoint 4 16 0 hostage_point
edge 0 1 4
edge 1 2 4
edge 2 3 4
edge 3 4 4
"""


def tie_world():
    world = WorldState(parse_map(TIE_MAP), SimConfig(team_size=1), 0)
    support.skip_buy_phase(world)
    return world


def _lead_hostage_1(world):
    world.hostages[1].following = 0


@pytest.mark.parametrize(
    "bot_id, setup, launched",
    [
        (0, None, "goto(0)"),  # CT: the cheapest free hostage
        (1, None, "guard(0)"),  # T: the nearest hostage point as first post
        (0, _lead_hostage_1, "goto(1)"),  # CT leading a hostage: the nearest rescue zone
    ],
    ids=["ct", "t", "ct-leading"],
)
def test_ties_break_on_the_lower_id(baseline_stack, bot_id, setup, launched):
    starts = {}
    for kind in ("native", "scripted"):
        world = tie_world()
        world.bots[1 - bot_id].alive = False
        if setup is not None:
            setup(world)
        mind = make_mind(kind, world, bot_id, [], baseline_stack)
        mind.on_round_start()
        mind.tick_agent()
        starts[kind] = [p for _t, _b, _s, etype, p in world.events if etype == "started"]
    assert starts == {"native": [f"action={launched}"], "scripted": [f"action={launched}"]}


def test_executor_liberates_the_lower_id_on_a_tie():
    world = tie_world()
    world.bots[1].alive = False
    executor, engine = support.executor_harness(world, 0)
    assert engine.run("action_liberate_hostages(0)") == [{}]
    assert executor.intent() == MoveIntent(1)  # toward hostage 0 at node 0
