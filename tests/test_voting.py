"""Squad tactic voting: ballots, plurality, tie-break, convergence."""

from rulebots.agents import make_mind
from rulebots.sim import CT, T, SimConfig, WorldState, load_map


def voting_squad(seed, full_stack):
    world = WorldState(load_map("warehouse"), SimConfig(team_size=5), seed)
    boards = {CT: [], T: []}
    minds = {
        bot.id: make_mind("scripted", world, bot.id, boards[bot.team], full_stack)
        for bot in world.bots.values()
    }
    return world, minds


def committed(mind):
    rows = mind.engine.run("committed_tactic(T)")
    return rows[0]["T"].name if rows else None


def drive(world, minds, limit):
    for mind in minds.values():
        mind.on_round_start()
    for _ in range(limit):
        intents = {bot_id: minds[bot_id].tick_agent() for bot_id in sorted(world.bots)}
        world.step(intents)
        if all(committed(m) is not None for m in minds.values()):
            break


def test_five_bot_squads_converge_across_seeds(full_stack):
    # ids 0-4 and 5-9 both map to slots 0-4: three rush ballots, two flank
    window = 30  # buy freeze plus two reasoning periods
    for seed in range(50):
        world, minds = voting_squad(seed, full_stack)
        drive(world, minds, window)
        assert world.tick <= window
        for team in (CT, T):
            picks = {
                committed(minds[b.id])
                for b in world.bots.values()
                if b.team == team
            }
            assert picks == {"rush"}, f"seed {seed} team {team}: {picks}"


def test_votes_travel_over_the_blackboard(full_stack):
    world, minds = voting_squad(11, full_stack)
    for mind in minds.values():
        mind.on_round_start()
    intents = {bot_id: minds[bot_id].tick_agent() for bot_id in sorted(world.bots)}
    world.step(intents)
    ballots = minds[0].engine.run("team_fact(vote(B, T))")
    assert [(s["B"].value, s["T"].name) for s in ballots] == [
        (0, "rush"), (1, "rush"), (2, "rush"), (3, "flank"), (4, "flank"),
    ]
    # the other side keeps its own board
    enemy = minds[5].engine.run("team_fact(vote(B, _T))")
    assert {s["B"].value for s in enemy} == {5, 6, 7, 8, 9}


def test_plurality_tally(full_stack):
    world, minds = voting_squad(0, full_stack)
    eng = minds[0].engine
    assert eng.run("tally_winner([rush, flank, rush], W)")[0]["W"].name == "rush"
    assert eng.run("tally_winner([flank, rush, flank], W)")[0]["W"].name == "flank"
    assert eng.run("count_of(rush, [rush, flank, rush, rush], N)")[0]["N"].value == 3


def test_constructed_tie_breaks_lexicographically(full_stack):
    world, minds = voting_squad(0, full_stack)
    eng = minds[0].engine
    for ballot in ("vote(0, rush)", "vote(1, rush)", "vote(2, flank)", "vote(3, flank)"):
        eng.run(f"team_assert({ballot})")
    rows = eng.run("findall(T, team_fact(vote(_, T)), Vs), tally_winner(Vs, W)")
    # two against two: flank orders before rush, so flank takes it
    assert [s["W"].name for s in rows] == ["flank"]
