"""Shared builders and oracles for the test suite."""

from __future__ import annotations

import random
import sys

import numpy as np

from rulebots.agents import ActionExecutor, register_action_natives
from rulebots.logic import Engine, KnowledgeBase
from rulebots.sim import IdleIntent, SimConfig, WorldState, parse_map

# Straight corridor, no walls: every waypoint sees every other.
LINE_MAP = """
name line
waypoint 0 0 0 spawn_ct,rescue_zone
waypoint 1 4 0 -
waypoint 2 8 0 -
waypoint 3 12 0 -
waypoint 4 16 0 hostage_point
waypoint 5 20 0 spawn_t
edge 0 1 4
edge 1 2 4
edge 2 3 4
edge 3 4 4
edge 4 5 4
"""


def patch_everywhere(monkeypatch, original, replacement) -> None:
    """Rebind a function in every program module that imported it."""
    name = original.__name__
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("rulebots.") and vars(module).get(name) is original:
            monkeypatch.setattr(module, name, replacement)


def line_world(seed: int = 0, team_size: int = 1) -> WorldState:
    mapdef = parse_map(LINE_MAP)
    return WorldState(mapdef, SimConfig(team_size=team_size), seed)


def idle_all(world: WorldState) -> dict:
    return {bot_id: IdleIntent() for bot_id in world.bots}


def skip_buy_phase(world: WorldState) -> None:
    while world.phase == "buy":
        world.step(idle_all(world))


def executor_harness(world: WorldState, bot_id: int = 0):
    """An executor wired to a fresh engine with the action natives.

    The engine also carries two test dynamics: `ok/0` as a switchable
    motivation and `mark/1` recording continuation invocations as `done/1`
    facts.
    """
    kb = KnowledgeBase()
    executor = ActionExecutor(world, bot_id)
    register_action_natives(kb, executor)
    kb.declare_dynamic("ok", 0)
    kb.declare_dynamic("done", 1)
    engine = Engine(kb, output=lambda s: None)
    engine.consult("mark(N) :- assertz(done(N)).")
    executor.prove = engine.prove
    return executor, engine


def drive_tick(world: WorldState, executor: ActionExecutor) -> list:
    """One agent tick for the executor's bot, idle for everyone else."""
    start = len(world.events)
    executor.normalize()
    intents = idle_all(world)
    intents[executor.bot_id] = executor.intent()
    world.step(intents)
    return world.events[start:]


def random_connected_graph(rng: random.Random, max_nodes: int = 50):
    """Random connected undirected graph as an adjacency dict {a: {b: cost}}."""
    n = rng.randint(2, max_nodes)
    adj: dict[int, dict[int, int]] = {i: {} for i in range(n)}

    def link(a: int, b: int, cost: int):
        adj[a][b] = cost
        adj[b][a] = cost

    nodes = list(range(n))
    rng.shuffle(nodes)
    for i in range(1, n):
        link(nodes[i], nodes[rng.randrange(i)], rng.randint(1, 20))
    extra = rng.randint(0, n)
    for _ in range(extra):
        a, b = rng.sample(range(n), 2)
        if b not in adj[a]:
            link(a, b, rng.randint(1, 20))
    return adj


def floyd_warshall(adj: dict[int, dict[int, int]]) -> np.ndarray:
    """Dense all-pairs distances; inf where unreachable."""
    n = len(adj)
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0)
    for a, nbrs in adj.items():
        for b, cost in nbrs.items():
            dist[a, b] = min(dist[a, b], cost)
    for k in range(n):
        dist = np.minimum(dist, dist[:, k, None] + dist[None, k, :])
    return dist
