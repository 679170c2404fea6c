"""Mind driver contracts shared by both brains."""

import pytest

import support
from rulebots.agents import REASON_PERIOD, make_mind
from rulebots.agents.actions import ACTION_NATIVE_SIGNATURES
from rulebots.agents.perception import PERCEPTION_NATIVE_SIGNATURES
from rulebots.sim import IdleIntent


def scripted_mind(world, bot_id, baseline_stack):
    return make_mind("scripted", world, bot_id, [], baseline_stack)


def test_make_mind_validates(baseline_stack):
    w = support.line_world()
    with pytest.raises(ValueError, match="rule stack"):
        make_mind("scripted", w, 0, [])
    with pytest.raises(ValueError, match="unknown mind kind"):
        make_mind("psychic", w, 0, [])
    assert make_mind("native", w, 0, []).kind == "native"


def test_reasoning_cadence(baseline_stack):
    w = support.line_world()
    support.skip_buy_phase(w)
    start = w.tick
    mind = scripted_mind(w, 0, baseline_stack)
    mind.on_round_start()
    calls = []
    mind.decide = lambda: calls.append(w.tick)  # observe, start nothing
    for _ in range(2):
        w.step({0: mind.tick_agent(), 1: IdleIntent()})
    # idle mind: re-reasons every tick
    assert calls == [start, start + 1]
    mind.engine.run("action_wait(0, 50)")
    for _ in range(2 * REASON_PERIOD + 1):
        w.step({0: mind.tick_agent(), 1: IdleIntent()})
    # busy mind: re-reasons only every REASON_PERIOD ticks
    assert calls == [start, start + 1, start + 6, start + 11]


def test_round_start_wipes_round_state(full_stack):
    w = support.line_world()
    mind = scripted_mind(w, 0, full_stack)
    mind.on_round_start()
    mind.engine.run("assertz(voted(0))")
    mind.engine.run("assertz(committed_tactic(rush))")
    assert mind.engine.run("voted(0)")
    mind.on_round_start()
    assert mind.engine.run("voted(_B)") == []
    assert mind.engine.run("committed_tactic(_T)") == []


def test_dead_bot_idles(baseline_stack):
    w = support.line_world()
    mind = scripted_mind(w, 0, baseline_stack)
    mind.on_round_start()
    w.bots[0].alive = False
    assert isinstance(mind.tick_agent(), IdleIntent)


def test_prelude_combinators(baseline_stack):
    w = support.line_world()
    support.skip_buy_phase(w)
    mind = scripted_mind(w, 0, baseline_stack)
    eng = mind.engine
    assert eng.run("and(bot_alive(0), bot_alive(1))") == [{}]
    assert eng.run("and(bot_alive(0), bot_alive(99))") == []
    # bots 0 and 1 start facing each other on the open corridor
    assert eng.run("no_visible_enemy(0)") == []
    w.bots[1].alive = False
    w.tick += 1  # fresh fov cache
    assert eng.run("no_visible_enemy(0)") == [{}]


def test_signature_tables_match_what_a_mind_registers(baseline_stack):
    # the validator trusts these tables, derived from the natives' rows, to
    # list exactly what a mind registers
    mind = scripted_mind(support.line_world(), 0, baseline_stack)
    registered = list(mind.engine.kb.natives)
    tables = PERCEPTION_NATIVE_SIGNATURES + ACTION_NATIVE_SIGNATURES
    assert len(set(tables)) == len(tables)
    assert sorted(registered) == sorted(tables)
