"""Shortest paths against a dense all-pairs oracle."""

import math
import random

import numpy as np

import support
from rulebots.sim import parse_map
from rulebots.sim.pathfind import dijkstra_from, shortest_path


def pairs_adj(adj_dicts):
    """{a: {b: cost}} -> the pair-tuple shape dijkstra_from takes."""
    return {a: tuple(sorted(nbrs.items())) for a, nbrs in adj_dicts.items()}


def graph_of(mapdef):
    return {a: {b: c for b, c in nbrs} for a, nbrs in mapdef.adj.items()}


def test_line_map_path():
    m = parse_map(support.LINE_MAP)
    assert shortest_path(m, 0, 5) == [0, 1, 2, 3, 4, 5]
    assert m.cost(0, 5) == 2000
    assert shortest_path(m, 3, 3) == [3]
    assert m.cost(3, 3) == 0


def test_tie_break_prefers_smaller_nodes():
    text = """
name diamond
waypoint 0 0 0 spawn_ct,rescue_zone
waypoint 1 1 1 -
waypoint 2 1 -1 hostage_point
waypoint 3 2 0 spawn_t
edge 0 1 2
edge 0 2 2
edge 1 3 2
edge 2 3 2
"""
    m = parse_map(text)
    # 0-1-3 and 0-2-3 tie on cost; the lexicographically smaller wins
    assert shortest_path(m, 0, 3) == [0, 1, 3]


def test_random_graphs_match_floyd_warshall():
    rng = random.Random(1234)
    for trial in range(200):
        adj = support.random_connected_graph(rng, max_nodes=50)
        oracle = support.floyd_warshall(adj)
        n = len(adj)
        for source in range(n):
            dist = dijkstra_from(pairs_adj(adj), source)
            got = np.array([dist.get(t, math.inf) for t in range(n)], dtype=float)
            assert np.array_equal(got, oracle[source]), f"trial {trial} source {source}"


def test_fixture_distances_match_floyd_warshall(warehouse, airplane):
    for m in (warehouse, airplane):
        adj = graph_of(m)
        oracle = support.floyd_warshall(adj)
        for source in m.ids:
            dist = dijkstra_from(m.adj, source)
            for target in m.ids:
                assert dist[target] == oracle[source][target]
                assert m.cost(source, target) == dist[target]


def test_paths_are_walkable_and_cost_consistent(warehouse):
    adj = graph_of(warehouse)
    for a in warehouse.ids:
        for b in warehouse.ids:
            path = shortest_path(warehouse, a, b)
            assert path[0] == a and path[-1] == b
            total = 0
            for x, y in zip(path, path[1:]):
                assert y in adj[x]
                total += adj[x][y]
            assert total == warehouse.cost(a, b)
