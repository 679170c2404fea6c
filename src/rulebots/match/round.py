"""Single-round driver: agent phase then world step until an outcome."""

from __future__ import annotations

from dataclasses import dataclass
from operator import methodcaller

from rulebots.sim import RoundOutcome, WorldState

_tick_agent = methodcaller("tick_agent")


@dataclass(frozen=True)
class RoundResult:
    outcome: RoundOutcome
    events: tuple[tuple[int, int, int, str, str], ...]
    digest: int


def start_round(world: WorldState, minds: dict, boards: dict, round_no: int) -> None:
    if round_no > 0:
        world.reset_round(round_no)
    for board in boards.values():
        board.clear()
    for bot_id in sorted(minds):
        minds[bot_id].on_round_start()


def play_tick(world: WorldState, minds: dict, probe=None) -> None:
    """Every mind's intent, in sorted bot order, then the world step.  A
    probe is told when the tick starts and ends, and runs each mind's turn."""
    if probe is not None:
        probe.tick_started()
    agent = _tick_agent if probe is None else probe.tick_agent
    world.step({bot_id: agent(minds[bot_id]) for bot_id in sorted(minds)})
    if probe is not None:
        probe.tick_ended()


def run_round(world: WorldState, minds: dict, boards: dict, round_no: int, probe=None) -> RoundResult:
    start_round(world, minds, boards, round_no)
    # time expiry guarantees termination; the margin only guards against a
    # check_win regression turning this into an endless loop
    limit = world.config.round_ticks + 8
    for _ in range(limit):
        if world.outcome is not None:
            break
        play_tick(world, minds, probe)
    outcome = world.outcome
    if outcome is None:
        raise RuntimeError(f"round did not finish within {limit} ticks")
    return RoundResult(outcome, tuple(world.events), world.state_digest())
