"""Simulation step mechanics on the line fixture; the field of view on the bundled maps."""

from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

import support
from rulebots.sim import (
    AttackIntent,
    BuyIntent,
    CT,
    FaceIntent,
    IdleIntent,
    InteractIntent,
    MoveIntent,
    PISTOL,
    RIFLE,
    SimConfig,
    T,
    WorldState,
    load_map,
    parse_map,
)
from rulebots.sim.geometry import ang_diff, bearing_deg, dist2


def step_with(world, intents=None):
    merged = support.idle_all(world)
    merged.update(intents or {})
    world.step(merged)


def events_of(world, etype):
    return [e for e in world.events if e[3] == etype]


def test_spawn_layout():
    w = support.line_world(team_size=3)
    cts = [b for b in w.bots.values() if b.team == CT]
    ts = [b for b in w.bots.values() if b.team == T]
    assert [b.id for b in cts] == [0, 1, 2]
    assert [b.id for b in ts] == [3, 4, 5]
    assert all(b.node == 0 for b in cts)
    assert all(b.node == 5 for b in ts)
    assert all(b.money == w.config.start_money for b in w.bots.values())
    assert all(b.weapon is PISTOL for b in w.bots.values())
    assert w.hostages[0].node == 4


def test_phase_schedule():
    w = support.line_world()
    assert w.phase == "buy"
    support.skip_buy_phase(w)
    assert w.tick == w.config.buy_ticks
    assert w.phase == "play"


def test_movement_frozen_during_buy_phase():
    w = support.line_world()
    step_with(w, {0: MoveIntent(1)})
    assert w.bots[0].edge is None and w.bots[0].node == 0


def test_buy_deducts_and_rearms():
    w = support.line_world()
    step_with(w, {0: BuyIntent("rifle")})
    bot = w.bots[0]
    assert bot.weapon is RIFLE
    assert bot.money == w.config.start_money - RIFLE.price
    assert bot.ammo == RIFLE.ammo
    assert events_of(w, "bought")


def test_buy_without_funds_fails():
    w = support.line_world()
    w.bots[0].money = 100
    step_with(w, {0: BuyIntent("rifle")})
    assert w.bots[0].weapon is PISTOL
    assert "funds" in events_of(w, "buy_failed")[0][4]


def test_buy_unknown_weapon_fails():
    w = support.line_world()
    step_with(w, {0: BuyIntent("bazooka")})
    assert "invalid" in events_of(w, "buy_failed")[0][4]


def test_buys_work_in_play_phase_too():
    w = support.line_world()
    support.skip_buy_phase(w)
    step_with(w, {0: BuyIntent("rifle")})
    assert w.bots[0].weapon is RIFLE


def test_walk_edge_and_arrive():
    w = support.line_world()
    support.skip_buy_phase(w)
    # 400 cm at 125 cm/tick: progress 125/250/375, arrival on the fourth
    for _ in range(4):
        step_with(w, {0: MoveIntent(1)})
    assert w.bots[0].edge is None
    assert w.bots[0].node == 1
    assert w.bots[0].progress_cm == 0
    assert w.bots[0].trail_node == 1


def test_trail_node_tracks_last_stood_waypoint():
    w = support.line_world()
    support.skip_buy_phase(w)
    step_with(w, {0: MoveIntent(1)})
    bot = w.bots[0]
    assert bot.edge == (0, 1)
    assert bot.trail_node == 0


def test_reversal_flips_progress_keeps_trail():
    w = support.line_world()
    support.skip_buy_phase(w)
    for _ in range(2):
        step_with(w, {0: MoveIntent(1)})
    assert w.bots[0].progress_cm == 250
    step_with(w, {0: MoveIntent(0)})
    bot = w.bots[0]
    assert bot.edge == (1, 0)
    # flipped to 400-250=150, then one tick of progress
    assert bot.progress_cm == 150 + 125
    assert bot.trail_node == 0


def test_move_without_edge_fails():
    w = support.line_world()
    support.skip_buy_phase(w)
    step_with(w, {0: MoveIntent(3)})
    assert "no_edge" in events_of(w, "move_failed")[0][4]


def test_face_intent_turns_at_rate_limit():
    w = support.line_world()
    support.skip_buy_phase(w)
    start = w.bots[0].facing_deg
    step_with(w, {0: FaceIntent((start + 90) % 360)})
    assert w.bots[0].facing_deg == (start + 45) % 360
    step_with(w, {0: FaceIntent((start + 90) % 360)})
    assert w.bots[0].facing_deg == (start + 90) % 360


def test_fov_needs_facing():
    w = support.line_world()
    support.skip_buy_phase(w)
    # bots 0 at node 0 and 1 at node 5 face each other iff bearings fit
    a, b = w.bots[0], w.bots[1]
    a.facing_deg = 0  # toward +x, i.e. toward node 5
    b.facing_deg = 180
    assert w.in_fov(0, 1) and w.in_fov(1, 0)
    a.facing_deg = 180
    assert not w.in_fov(0, 1)


def test_fov_range_limit():
    text = support.LINE_MAP.replace("waypoint 5 20 0 spawn_t", "waypoint 5 45 0 spawn_t")
    text = text.replace("edge 4 5 4", "edge 4 5 29")
    w = WorldState(parse_map(text), SimConfig(team_size=1), 0)
    support.skip_buy_phase(w)
    w.bots[0].facing_deg = 0
    # 4500 cm > 4000 cm view range
    assert not w.in_fov(0, 1)


def reference_in_fov(world, viewer_id, seen_id):
    """`in_fov` with its tests in their first order: bearing before visibility."""
    a, b = world.bots[viewer_id], world.bots[seen_id]
    pa, pb = world.pos_cm(a), world.pos_cm(b)
    d2 = dist2(pa[0], pa[1], pb[0], pb[1])
    if d2 > world.config.view_range_cm ** 2:
        return False
    if d2 == 0:
        return True
    bearing = bearing_deg(pb[0] - pa[0], pb[1] - pa[1])
    if ang_diff(bearing, a.facing_deg) > world.config.fov_half_angle_deg:
        return False
    return world.map.can_see(world.nearest_wp(a), world.nearest_wp(b))


def reference_fov_pairs(world):
    alive = [b.id for b in world.bots.values() if b.alive]
    return {(a, b) for a in alive for b in alive if a != b and reference_in_fov(world, a, b)}


map_named = cache(load_map)


def placements(mapdef):
    """(node, edge, progress_cm): on a waypoint, or part-way along an edge."""
    on_node = st.sampled_from(mapdef.ids).map(lambda n: (n, None, 0))
    on_edge = st.sampled_from(sorted(mapdef.edge_cost)).flatmap(
        lambda e: st.integers(1, mapdef.edge_cost[e] - 1).map(lambda p: (e[0], e, p))
    )
    return st.one_of(on_node, on_edge)


@st.composite
def placed_worlds(draw, map_name):
    mapdef = map_named(map_name)
    world = WorldState(mapdef, SimConfig(), 0)
    # a few shared spots, so that several bots often stand on the same point
    shared = draw(st.lists(placements(mapdef), min_size=1, max_size=3))
    for bot in world.bots.values():
        bot.node, bot.edge, bot.progress_cm = draw(
            st.one_of(st.sampled_from(shared), placements(mapdef))
        )
        bot.facing_deg = draw(st.integers(0, 359))
        bot.alive = draw(st.booleans())
    return world


@pytest.mark.parametrize("map_name", ["warehouse", "airplane"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fov_matches_reference_test_order(map_name, data):
    world = data.draw(placed_worlds(map_name))
    for a in world.bots:
        for b in world.bots:
            assert world.in_fov(a, b) == reference_in_fov(world, a, b)
    assert world.fov_pairs() == tuple(sorted(reference_fov_pairs(world)))


@pytest.mark.parametrize("map_name", ["warehouse", "airplane"])
def test_fov_reference_covers_hidden_and_coincident_pairs(map_name):
    # bot 0 stands on one waypoint facing straight at bot 1 on another:
    # only range and walls can hide bot 1
    world = WorldState(map_named(map_name), SimConfig(team_size=1), 0)
    viewer, seen = world.bots[0], world.bots[1]
    hidden_in_range = 0
    for u in world.map.ids:
        for v in world.map.ids:
            viewer.node, seen.node = u, v
            pu, pv = world.pos_cm(viewer), world.pos_cm(seen)
            viewer.facing_deg = bearing_deg(pv[0] - pu[0], pv[1] - pu[1])
            answer = world.in_fov(0, 1)
            assert answer == reference_in_fov(world, 0, 1)
            if u == v:
                assert answer
            elif dist2(*pu, *pv) <= world.config.view_range_cm ** 2:
                assert answer == world.map.can_see(u, v)
                hidden_in_range += not answer
    assert hidden_in_range > 0


def test_attack_guards_consume_no_rng():
    w = support.line_world()
    support.skip_buy_phase(w)
    w.bots[0].facing_deg = 180  # target behind
    step_with(w, {0: AttackIntent(1)})
    assert w.rng.draws == 0
    assert "not_in_fov" in events_of(w, "attack_failed")[0][4]
    w.bots[0].ammo = 0
    w.bots[0].facing_deg = 0
    step_with(w, {0: AttackIntent(1)})
    assert w.rng.draws == 0
    step_with(w, {0: AttackIntent(99)})
    assert w.rng.draws == 0


def test_attack_rolls_once_and_spends_ammo():
    w = support.line_world()
    support.skip_buy_phase(w)
    w.bots[0].facing_deg = 0
    ammo = w.bots[0].ammo
    step_with(w, {0: AttackIntent(1)})
    assert w.rng.draws == 1
    assert w.bots[0].ammo == ammo - 1


def test_attack_turns_toward_target():
    w = support.line_world()
    support.skip_buy_phase(w)
    w.bots[0].facing_deg = 180
    step_with(w, {0: AttackIntent(1)})
    # turned 45 toward bearing 0, shot still failed (not yet in fov)
    assert w.bots[0].facing_deg in (135, 225)


def test_hit_snaps_victim_to_face_shooter():
    w = support.line_world(seed=0)
    support.skip_buy_phase(w)
    w.bots[0].facing_deg = 0
    w.bots[1].facing_deg = 0  # facing away from the shooter
    hits = 0
    for _ in range(60):
        if not w.bots[1].alive:
            break
        step_with(w, {0: AttackIntent(1)})
        if events_of(w, "shot_hit"):
            hits += 1
            break
    assert hits == 1
    assert w.bots[1].facing_deg == 180


def test_kill_pays_reward():
    w = support.line_world()
    support.skip_buy_phase(w)
    w.bots[0].facing_deg = 0
    w.bots[1].health = 1
    money = w.bots[0].money
    while w.bots[1].alive:
        step_with(w, {0: AttackIntent(1)})
    # the kill also ends the round (last enemy), so the win bonus lands too
    assert w.bots[0].money == money + w.config.kill_reward + w.config.win_reward
    assert events_of(w, "killed")


def test_lower_id_attack_resolves_first():
    w = support.line_world()
    support.skip_buy_phase(w)
    w.bots[0].facing_deg = 0
    w.bots[1].facing_deg = 180
    w.bots[1].health = 1
    # keep shooting until the rng lands a hit; once bot 1 dies its
    # same-tick attack must not resolve
    for _ in range(200):
        if not w.bots[1].alive:
            break
        before = w.rng.draws
        step_with(w, {0: AttackIntent(1), 1: AttackIntent(0)})
    assert not w.bots[1].alive
    death_tick = events_of(w, "killed")[0][0]
    later_by_victim = [
        e for e in w.events
        if e[0] == death_tick and e[1] == 1 and e[3] in ("shot_hit", "shot_missed", "attack_failed")
    ]
    assert later_by_victim == []


def test_interact_toggles_following():
    w = support.line_world()
    support.skip_buy_phase(w)
    w.bots[0].node = 4
    w.bots[0].trail_node = 4
    step_with(w, {0: InteractIntent(0)})
    assert w.hostages[0].following == 0
    assert events_of(w, "hostage_grabbed")
    step_with(w, {0: InteractIntent(0)})
    assert w.hostages[0].following is None
    assert events_of(w, "hostage_released")


def test_t_cannot_grab_hostage():
    w = support.line_world()
    support.skip_buy_phase(w)
    w.bots[1].node = 4
    w.bots[1].trail_node = 4
    step_with(w, {1: InteractIntent(0)})
    assert w.hostages[0].following is None


def test_hostage_follows_trail_and_rescues():
    w = support.line_world()
    support.skip_buy_phase(w)
    w.bots[0].node = 4
    w.bots[0].trail_node = 4
    step_with(w, {0: InteractIntent(0)})
    # walk home; the hostage tracks the trail node
    while w.bots[0].node != 0 or w.bots[0].edge is not None:
        edge = w.bots[0].edge
        target = edge[1] if edge else {4: 3, 3: 2, 2: 1, 1: 0}[w.bots[0].node]
        step_with(w, {0: MoveIntent(target)})
        if w.outcome:
            break
    assert w.hostages[0].rescued
    assert w.outcome is not None
    assert w.outcome.winner == CT
    assert w.outcome.cause == "all_hostages_rescued"
    assert w.outcome.goal_fulfilled is True


def test_leader_death_frees_hostage():
    w = support.line_world()
    support.skip_buy_phase(w)
    w.bots[0].node = 4
    w.bots[0].trail_node = 4
    step_with(w, {0: InteractIntent(0)})
    w.bots[0].alive = False
    step_with(w)
    assert w.hostages[0].following is None
    assert events_of(w, "hostage_freed")


def test_round_reset_keeps_money_and_rng():
    w = support.line_world()
    step_with(w, {0: BuyIntent("rifle")})
    support.skip_buy_phase(w)
    w.bots[0].facing_deg = 0
    step_with(w, {0: AttackIntent(1)})
    draws = w.rng.draws
    money = w.bots[0].money
    w.reset_round(1)
    assert w.round_no == 1
    assert w.tick == 0
    assert w.rng.draws == draws
    assert w.bots[0].money == money
    assert w.bots[0].weapon is PISTOL
    assert w.bots[0].health == 100
    assert not w.hostages[0].rescued


def test_money_capped():
    w = support.line_world()
    w.bots[0].money = w.config.money_cap - 100
    support.skip_buy_phase(w)
    w.bots[0].facing_deg = 0
    w.bots[1].health = 1
    while w.bots[1].alive:
        step_with(w, {0: AttackIntent(1)})
    assert w.bots[0].money == w.config.money_cap


def test_time_expiry_gives_goal_fulfilled_t_win():
    w = support.line_world()
    while w.outcome is None:
        step_with(w)
    assert w.outcome.winner == T
    assert w.outcome.cause == "time_expired"
    assert w.outcome.goal_fulfilled is True
    assert w.outcome.tick == w.config.round_ticks


def test_digest_is_seed_sensitive_and_stable():
    a, b = support.line_world(seed=1), support.line_world(seed=1)
    c = support.line_world(seed=2)
    support.skip_buy_phase(a)
    support.skip_buy_phase(b)
    support.skip_buy_phase(c)
    for w in (a, b, c):
        w.bots[0].facing_deg = 0
        step_with(w, {0: AttackIntent(1)})
    assert a.state_digest() == b.state_digest()
    assert a.events == b.events
    assert a.state_digest() != c.state_digest()


def test_event_sequence_is_strictly_ordered():
    w = support.line_world()
    step_with(w, {0: BuyIntent("rifle"), 1: BuyIntent("rifle")})
    seqs = [e[2] for e in w.events]
    assert seqs == sorted(seqs)
    assert len(set(seqs)) == len(seqs)
