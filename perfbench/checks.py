"""Output checks, kept apart from the code under test, and their self-tests.

Each check returns a list of problems; an empty list means the output
passed.  Each self-test feeds its check a corrupted copy of a real output
and returns a problem when the check fails to flag it, so a check that
has gone blind shows up as an incorrect run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from rulebots.match.replay import render_body
from rulebots.sim import CT, T


@dataclass(frozen=True)
class FinalState:
    """World state after a round's last step, copied out by the tick clock."""

    tick: int
    bots: tuple  # (id, team, alive, health, ammo, money) per bot
    hostages: tuple  # (id, node, rescued) per hostage


def snapshot(world) -> FinalState:
    bots = tuple(
        (b.id, b.team, b.alive, b.health, b.ammo, b.money)
        for b in (world.bots[i] for i in sorted(world.bots))
    )
    hostages = tuple(
        (h.id, h.node, h.rescued) for h in (world.hostages[i] for i in sorted(world.hostages))
    )
    return FinalState(world.tick, bots, hostages)


@dataclass(frozen=True)
class MapFacts:
    """Waypoint tags read straight from the map file, not through the program."""

    waypoints: frozenset
    rescue_nodes: frozenset
    hostages: int


def read_map_facts(path: str) -> MapFacts:
    waypoints, rescue, hostages = set(), set(), 0
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            parts = raw.split("#", 1)[0].split()
            if len(parts) < 4 or parts[0] != "waypoint":
                continue
            wid = int(parts[1])
            tags = parts[4].split(",") if len(parts) == 5 else []
            waypoints.add(wid)
            if "rescue_zone" in tags:
                rescue.add(wid)
            hostages += "hostage_point" in tags
    return MapFacts(frozenset(waypoints), frozenset(rescue), hostages)


# -- match against a second implementation ---------------------------------


def compare_matches(result, reference) -> list[str]:
    """Rendered trace body, round digests and tallies must be identical."""
    where = f"seed {result.config.seed}"
    problems = []
    left, right = render_body(result), render_body(reference)
    if left != right:
        for i, (a, b) in enumerate(zip(left, right)):
            if a != b:
                problems.append(f"{where}: trace line {i} is {a!r}, reference has {b!r}")
                break
        else:
            problems.append(f"{where}: trace has {len(left)} lines, reference {len(right)}")
    if [r.digest for r in result.rounds] != [r.digest for r in reference.rounds]:
        problems.append(f"{where}: round digests differ from the reference")
    if result.counts != reference.counts:
        problems.append(f"{where}: tallies {result.counts} differ from reference {reference.counts}")
    return problems


def self_test_compare(result) -> list[str]:
    first = result.rounds[0]
    corrupt = {
        "a dropped event": replace(first, events=first.events[:-1]),
        "a changed digest": replace(first, digest=first.digest ^ 1),
    }
    missed = []
    for what, bad_round in corrupt.items():
        bad = replace(result, rounds=(bad_round,) + result.rounds[1:])
        if not compare_matches(bad, result):
            missed.append(f"self-test: trace comparison missed {what}")
    return missed


# -- benchmark-side invariants -----------------------------------------------


def _payload(text: str) -> dict:
    return dict(item.split("=", 1) for item in text.split())


def _classify(final: FinalState, facts: MapFacts, round_ticks: int):
    """(winner, cause, goal) a finished round must report, from its final state."""
    cts = sum(1 for _, team, alive, *_ in final.bots if team == CT and alive)
    ts = sum(1 for _, team, alive, *_ in final.bots if team == T and alive)
    rescued = sum(1 for _, _, done in final.hostages if done)
    if rescued == facts.hostages:
        return (CT, "all_hostages_rescued", ts > 0)
    if ts == 0:
        return (CT, "t_eliminated", False)
    if cts == 0:
        return (T, "ct_eliminated", False)
    if final.tick >= round_ticks:
        return (T, "time_expired", cts > 0)
    return None


def match_invariants(result, finals, facts: MapFacts, sim) -> list[str]:
    """Per-round event, state and tally invariants of one played match."""
    seed = result.config.seed
    problems = []
    if len(finals) != len(result.rounds):
        return [f"seed {seed}: {len(finals)} final states for {len(result.rounds)} rounds"]
    tally = [0, 0, 0, 0]
    for n, (rnd, final) in enumerate(zip(result.rounds, finals)):
        where = f"seed {seed} round {n}"
        out = rnd.outcome
        kinds = [e[3] for e in rnd.events]
        if kinds.count("round_start") != 1 or kinds.count("round_end") != 1:
            problems.append(f"{where}: {kinds.count('round_start')} round_start and "
                            f"{kinds.count('round_end')} round_end events")
        ends = [e[4] for e in rnd.events if e[3] == "round_end"]
        said = f"winner={out.winner} cause={out.cause} goal={int(out.goal_fulfilled)}"
        if ends != [said]:
            problems.append(f"{where}: round_end events {ends} disagree with outcome {said}")
        expected = _classify(final, facts, sim.round_ticks)
        if final.tick != out.tick or expected != (out.winner, out.cause, out.goal_fulfilled):
            problems.append(f"{where}: outcome {said} at tick {out.tick}, final state at tick "
                            f"{final.tick} implies {expected}")
        for bot_id, _, alive, health, ammo, money in final.bots:
            if not 0 <= health <= 100 or alive != (health > 0):
                problems.append(f"{where}: bot {bot_id} health {health}, alive {alive}")
            if ammo < 0 or not 0 <= money <= sim.money_cap:
                problems.append(f"{where}: bot {bot_id} ammo {ammo}, money {money}")
        rescues = 0
        for _, bot_key, _, etype, payload in rnd.events:
            if etype == "shot_hit" and not 0 <= int(_payload(payload)["health"]) <= 100:
                problems.append(f"{where}: {etype} by {bot_key} reports {payload}")
            elif etype in ("killed", "bought") and not 0 <= int(_payload(payload)["money"]) <= sim.money_cap:
                problems.append(f"{where}: {etype} by {bot_key} reports {payload}")
            elif etype == "hostage_rescued":
                rescues += 1
                if int(_payload(payload)["node"]) not in facts.rescue_nodes:
                    problems.append(f"{where}: hostage rescued off a rescue_zone: {payload}")
        rescued = [(hid, node) for hid, node, done in final.hostages if done]
        if rescues != len(rescued) or any(node not in facts.rescue_nodes for _, node in rescued):
            problems.append(f"{where}: {rescues} rescue events, final rescued hostages {rescued}")
        won = 0 if out.winner == CT else 1
        tally[won] += 1
        tally[won + 2] += int(out.goal_fulfilled)
    if list(result.counts) != tally or sum(result.counts[:2]) != result.config.rounds:
        problems.append(f"seed {seed}: tallies {tuple(result.counts)}, rounds give {tuple(tally)} "
                        f"over {result.config.rounds} rounds")
    return problems


def self_test_invariants(result, finals, facts: MapFacts, sim) -> list[str]:
    first, final = result.rounds[0], finals[0]
    off_zone = min(facts.waypoints - facts.rescue_nodes)
    flipped = replace(first.outcome, winner=T if first.outcome.winner == CT else CT)
    rich = ((final.bots[0][:5] + (sim.money_cap + 1,)),) + final.bots[1:]
    counts = result.counts
    corrupt = {
        "a second round_end": (
            replace(first, events=first.events + first.events[-1:]), final, counts),
        "a flipped winner": (replace(first, outcome=flipped), final, counts),
        "money over the cap": (first, replace(final, bots=rich), counts),
        "a rescue off the rescue zone": (
            replace(first, events=first.events + ((0, -1, 0, "hostage_rescued",
                                                   f"hostage=0 node={off_zone}"),)),
            final, counts),
        "a tally off by one": (first, final, counts._replace(ct_wins=counts.ct_wins + 1)),
    }
    missed = []
    for what, (bad_round, bad_final, bad_counts) in corrupt.items():
        bad = replace(result, rounds=(bad_round,) + result.rounds[1:], counts=bad_counts)
        if not match_invariants(bad, (bad_final,) + tuple(finals[1:]), facts, sim):
            missed.append(f"self-test: invariants missed {what}")
    return missed


# -- engine memory against a pure-Python model ---------------------------------


def memory_model(base: list[int], turns) -> tuple[list[int], list[tuple[int, int]]]:
    """Reads and final fact base of the turn stream, without the engine.

    A retract removes a key's one fact and an assertz appends the new one,
    so an updated key moves to the end of the clause order.
    """
    facts = dict(enumerate(base))
    reads = []
    for key, value in turns:
        del facts[key]
        facts[key] = value
        reads.append(min(facts.values()))
    return reads, list(facts.items())


def memory_check(reads, final, expected_reads, expected_final) -> list[str]:
    problems = []
    for turn, (got, want) in enumerate(zip(reads, expected_reads)):
        if got is not None and got != want:
            problems.append(f"turn {turn}: read {got}, model says {want}")
            break
    if len(reads) != len(expected_reads):
        problems.append(f"{len(reads)} reads for {len(expected_reads)} turns")
    if final != expected_final:
        problems.append(f"final fact base {final[:4]}... differs from the model {expected_final[:4]}...")
    return problems


def self_test_memory(reads, final, expected_reads, expected_final) -> list[str]:
    corrupt = {
        "a wrong read": (reads[:-1] + [reads[-1] + 1], final),
        "a reordered fact base": (reads, final[1:] + final[:1]),
    }
    return [
        f"self-test: model check missed {what}"
        for what, (bad_reads, bad_final) in corrupt.items()
        if not memory_check(bad_reads, bad_final, expected_reads, expected_final)
    ]
