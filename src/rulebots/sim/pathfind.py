"""Shortest paths on the waypoint graph.

Dijkstra from the target plus greedy reconstruction.  Among equal-cost
paths the reconstruction always takes the smallest next waypoint id, so
the result is the lexicographically smallest minimum-cost node sequence
and therefore stable across runs.
"""

from __future__ import annotations

import heapq


def dijkstra_from(adj: dict[int, tuple], source: int) -> dict[int, int]:
    """Cost of the cheapest path from every node to source."""
    dist: dict[int, int] = {source: 0}
    heap = [(0, source)]
    while heap:
        d, node = heapq.heappop(heap)
        if d > dist.get(node, d):
            continue
        for nbr, cost in adj[node]:
            nd = d + cost
            if nd < dist.get(nbr, nd + 1):
                dist[nbr] = nd
                heapq.heappush(heap, (nd, nbr))
    return dist


def shortest_path(mapdef, start: int, goal: int) -> list[int] | None:
    """Waypoint sequence from start to goal inclusive, or None."""
    if start == goal:
        return [start]
    dist = mapdef.costs_to[goal]
    here = dist.get(start)
    if here is None:
        return None
    path = [start]
    cur = start
    while cur != goal:
        best = None
        dcur = dist[cur]
        for nbr, cost in mapdef.adj[cur]:
            dn = dist.get(nbr)
            if dn is not None and cost + dn == dcur and (best is None or nbr < best):
                best = nbr
        path.append(best)
        cur = best
    return path
