"""Whole-match driver: fixed teams over a configured number of rounds."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from rulebots.agents import make_mind
from rulebots.match.config import ControllerSpec, MatchConfig
from rulebots.match.round import RoundResult, run_round
from rulebots.rules import load_stack
from rulebots.sim import CT, T, SimConfig, WorldState, load_map


class WinCounts(NamedTuple):
    ct_wins: int
    t_wins: int
    ct_goal_wins: int
    t_goal_wins: int


@dataclass(frozen=True)
class MatchResult:
    config: MatchConfig
    rounds: tuple[RoundResult, ...]
    counts: WinCounts
    map_hash: int


def _resolve_stack(spec: ControllerSpec):
    if spec.kind != "scripted":
        return None
    return load_stack(spec.stack_names())


def build_match(config: MatchConfig):
    """World, team boards and minds for one match, packages validated."""
    mapdef = load_map(config.map_name)
    stacks = {CT: _resolve_stack(config.ct), T: _resolve_stack(config.t)}
    kinds = {CT: config.ct.kind, T: config.t.kind}
    world = WorldState(mapdef, SimConfig(), config.seed)
    boards = {CT: [], T: []}
    minds = {
        bot.id: make_mind(kinds[bot.team], world, bot.id, boards[bot.team], stacks[bot.team])
        for bot in world.bots.values()
    }
    return world, boards, minds


def run_match(config: MatchConfig, probe=None) -> MatchResult:
    world, boards, minds = build_match(config)
    rounds = tuple(run_round(world, minds, boards, n, probe) for n in range(config.rounds))
    ct = [r.outcome for r in rounds if r.outcome.winner == CT]
    t = [r.outcome for r in rounds if r.outcome.winner != CT]
    counts = WinCounts(
        len(ct), len(t), sum(o.goal_fulfilled for o in ct), sum(o.goal_fulfilled for o in t)
    )
    return MatchResult(config, rounds, counts, world.map.source_hash)
