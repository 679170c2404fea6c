"""Proof reuse: a mind gets its last proof of a repeated goal back only
while a full proof would give the same result and have no effect."""

import pytest

from rulebots.agents import make_mind
from rulebots.agents.actions import ACTION_NATIVES
from rulebots.agents.minds import EFFECTS, GoalProver
from rulebots.agents.perception import PERCEPTION_NATIVES
from rulebots.logic import BudgetExceededError, Engine, Int, read_term
from rulebots.match import ControllerSpec, MatchConfig
from rulebots.match.match import build_match
from rulebots.match.round import run_round
from rulebots.rules import load_stack
from rulebots.rules.manifest import RulePackage
from rulebots.sim import SimConfig, WorldState, load_map

FULL_STACK = ("baseline", "cs_rules", "warehouse_tactics")
PAIRINGS = [
    pytest.param(map_name, stack, id=f"{map_name}-{label}")
    for map_name in ("warehouse", "airplane")
    for label, stack in (("native", None), ("baseline", ("baseline",)), ("full-stack", FULL_STACK))
]

# Posts to the team board, and asserts nothing, while the host has raised
# the bot's signal; the host raises and lowers it between ticks.
CHATTER = RulePackage(
    "chatter", "map_specific", "reasoning_hook(B) :- signal(B), team_assert(heard(B)).\n",
    entries=(), dynamics=(("signal", 1),),
)


def query(engine: Engine, text: str) -> bool:
    return engine.prove(read_term(text)[0])


# -- the classification ---------------------------------------------------


def test_every_native_is_a_reader_or_a_writer():
    tables = {**PERCEPTION_NATIVES, **ACTION_NATIVES}
    assert len(tables) == len(PERCEPTION_NATIVES) + len(ACTION_NATIVES)
    assert all(type(native.writes) is bool for native in tables.values())
    writers = {key for key, native in tables.items() if native.writes}
    launchers = {key for key in ACTION_NATIVES if key[0].startswith("action_")}
    assert writers == launchers | {("team_assert", 1), ("team_retract", 1)}
    assert EFFECTS == writers | {("write", 1), ("nl", 0)}


# -- the reuse rule, one condition at a time -------------------------------


def prover_over(program: str, natives=()):
    engine = Engine(output=lambda s: None)
    for name, arity, handler in natives:
        engine.kb.register_native(name, arity, handler)
    engine.kb.declare_dynamic("flag", 0)
    engine.consult(program)
    return engine, GoalProver(engine)


def test_an_unchanged_proof_is_reused_and_keeps_its_result():
    engine, prove = prover_over("p :- q(X), X > 1.  q(2).")
    goal = read_term("p")[0]
    assert [prove(goal) for _ in range(4)] == [True] * 4
    assert (prove.runs, prove.reuses) == (1, 3)
    # an equal goal that is another object is proved in full
    assert prove(read_term("p")[0])
    assert prove.runs == 2


def test_a_changed_store_is_proved_again():
    engine, prove = prover_over("p :- flag.")
    goal = read_term("p")[0]
    assert not prove(goal)
    assert query(engine, "assertz(flag)")
    assert prove(goal)
    assert query(engine, "retract(flag)")
    assert not prove(goal)
    assert (prove.runs, prove.reuses) == (3, 0)


def test_a_changed_native_answer_is_proved_again_and_the_replay_stops_there():
    seen = {"level": 1, "asked": []}

    def level(key, out):
        seen["asked"].append(key.name)
        return [(key, Int(seen["level"]))]

    engine, prove = prover_over(
        "p :- level(a, X), X > 1, level(b, _).  p :- level(c, _).", [("level", 2, level)]
    )
    goal = read_term("p")[0]
    assert prove(goal) and seen["asked"] == ["a", "c"]
    seen["asked"].clear()
    assert prove(goal) and prove.reuses == 1
    assert seen["asked"] == ["a", "c"]  # the replay asks each recorded call in order
    seen["level"], seen["asked"] = 2, []
    assert prove(goal) and prove.runs == 2
    assert seen["asked"] == ["a", "a", "b"]  # the replay stopped at the first difference


@pytest.mark.parametrize(
    "effect",
    ["assertz(flag)", "write(hello)", "nl", "team_assert(x)", "action_wait(0, 1)"],
)
def test_a_proof_with_an_effect_is_never_reused(effect):
    calls = []
    engine, prove = prover_over(
        f"p :- {effect}.",
        [("team_assert", 1, lambda fact: calls.append(fact) or [None]),
         ("action_wait", 2, lambda bot, ticks: calls.append(ticks) or [None])],
    )
    goal = read_term("p")[0]
    for _ in range(3):
        assert prove(goal)
    assert (prove.runs, prove.reuses) == (3, 0)


def test_a_proof_that_raises_is_never_reused():
    engine, prove = prover_over("p :- p.")
    engine.max_depth = 50
    goal = read_term("p")[0]
    for _ in range(2):
        with pytest.raises(BudgetExceededError):
            prove(goal)
    assert (prove.runs, prove.reuses) == (2, 0)


# -- the shadow check over whole matches -----------------------------------


def shadow_every_reuse(monkeypatch, owners: dict) -> list:
    """Run every reused proof in full as well.  It must give the kept
    result and have no effect: the store's generation, the bot's active
    action, the world's events and the team board stay as they were."""
    unchanged = GoalProver.unchanged
    shadowed = []

    def state(prover):
        mind, board = owners[id(prover)]
        return prover.engine.kb.generation, mind.executor.active, len(mind.world.events), list(board)

    def unchanged_and_shadowed(prover):
        before = state(prover)
        if not unchanged(prover):
            return False
        engine = prover.engine
        engine.log = calls = []
        try:
            result = engine.prove(prover.goal)
        finally:
            engine.log = None
        after = state(prover)
        assert result == prover.result
        assert after[0] == before[0] and after[1] is before[1] and after[2:] == before[2:]
        assert not [key for key, _, _ in calls if key in EFFECTS]
        shadowed.append(prover.goal)
        return True

    monkeypatch.setattr(GoalProver, "unchanged", unchanged_and_shadowed)
    return shadowed


def owners_of(world, boards, minds) -> dict:
    return {id(p): (mind, boards[world.bots[b].team]) for b, mind in minds.items() for p in mind.provers}


@pytest.mark.parametrize(("map_name", "stack"), PAIRINGS)
def test_a_reused_proof_matches_a_full_proof(monkeypatch, map_name, stack):
    side = ControllerSpec("native") if stack is None else ControllerSpec("scripted", stack)
    world, boards, minds = build_match(MatchConfig(map_name=map_name, seed=1, rounds=4, ct=side, t=side))
    shadowed = shadow_every_reuse(monkeypatch, owners_of(world, boards, minds))
    for n in range(4):
        run_round(world, minds, boards, n)
    assert len(shadowed) > 100


class Signals:
    """A host that raises and lowers each bot's `signal/1` between ticks."""

    def __init__(self, world, minds):
        self.world = world
        self.minds = minds

    def tick_started(self):
        for bot_id, mind in self.minds.items():
            raised = query(mind.engine, f"signal({bot_id})")
            if raised != ((self.world.tick // 5 + bot_id) % 3 == 0):
                query(mind.engine, f"retract(signal({bot_id}))" if raised else f"assertz(signal({bot_id}))")

    def tick_agent(self, mind):
        return mind.tick_agent()

    def tick_ended(self):
        pass


def test_a_reused_proof_matches_a_full_proof_while_a_host_edits_the_store(monkeypatch):
    world = WorldState(load_map("warehouse"), SimConfig(), 1)
    boards = {team: [] for team in ("ct", "t")}
    stack = [*load_stack(("baseline",)), CHATTER]
    minds = {b.id: make_mind("scripted", world, b.id, boards[b.team], stack) for b in world.bots.values()}
    shadowed = shadow_every_reuse(monkeypatch, owners_of(world, boards, minds))
    posts = 0
    for n in range(4):
        run_round(world, minds, boards, n, Signals(world, minds))
        posts += sum(len(board) for board in boards.values())
    assert len(shadowed) > 100
    assert posts > 100


def test_reuse_state_is_one_proof_per_prover_however_long_the_match():
    side = ControllerSpec("scripted", FULL_STACK)
    world, boards, minds = build_match(MatchConfig(map_name="warehouse", seed=1, rounds=12, ct=side, t=side))
    provers = [p for mind in minds.values() for p in mind.provers]
    assert len(provers) == 2 * len(minds)  # the entry goal's and the executor's
    held = []
    for n in range(12):
        run_round(world, minds, boards, n)
        # a prover keeps one proof at most: its goal and that proof's native calls
        held.append(sum(len(p.calls) for p in provers))
    assert max(held) <= 8 * len(provers)
    assert max(held[6:]) <= max(held[:6])
