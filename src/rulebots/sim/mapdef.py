"""Map files: waypoints, edges, tags, and inter-waypoint visibility.

The on-disk format is line oriented: one `name`, then `waypoint`,
`edge`, and either `wall` or `visible` records.  Distances are metres in
the file and centimetres in memory.  Visibility is either listed
explicitly (directed pairs, which must come in symmetric couples) or
derived from wall segments with an exact integer intersection test.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, field
from importlib import resources

from rulebots.sim.geometry import segments_intersect
from rulebots.sim.pathfind import dijkstra_from
from rulebots.sim.rng import fnv1a64

VALID_TAGS = frozenset(
    {"spawn_ct", "spawn_t", "hostage_point", "rescue_zone", "hiding_spot", "ambush_point"}
)
REQUIRED_TAGS = ("spawn_ct", "spawn_t", "hostage_point", "rescue_zone")


class MapError(Exception):
    pass


@dataclass(frozen=True)
class Waypoint:
    id: int
    x: int  # centimetres
    y: int
    tags: tuple[str, ...]


# One instance is shared by every match of a map in a process (see
# `load_map`), so no field may be reassigned; `_dist_cache` is a pure
# function of `adj`, so filling it changes no other match's answer.
@dataclass(frozen=True)
class MapDefinition:
    name: str
    waypoints: dict[int, Waypoint]
    adj: dict[int, tuple]  # id -> ((neighbour, cost_cm), ...) sorted by neighbour
    edge_cost: dict[tuple[int, int], int]
    vis: frozenset  # symmetric (a, b) pairs, self pairs included
    source_hash: int = 0
    _dist_cache: dict = field(default_factory=dict, repr=False)

    @property
    def ids(self) -> list[int]:
        return sorted(self.waypoints)

    def tagged(self, tag: str) -> list[int]:
        return [i for i in self.ids if tag in self.waypoints[i].tags]

    def can_see(self, a: int, b: int) -> bool:
        return (a, b) in self.vis

    def dist_to(self, goal: int) -> dict[int, int]:
        cached = self._dist_cache.get(goal)
        if cached is None:
            cached = dijkstra_from(self.adj, goal)
            self._dist_cache[goal] = cached
        return cached

    def cost(self, a: int, b: int) -> int | None:
        return self.dist_to(b).get(a)


def _parse_cm(token: str, where: str) -> int:
    try:
        v = float(token) * 100
    except ValueError:
        v = math.nan
    if not math.isfinite(v):
        raise MapError(f"{where}: bad number {token!r}")
    cm = round(v)
    if abs(v - cm) > 1e-6:
        raise MapError(f"{where}: {token!r} is finer than centimetre precision")
    return int(cm)


def parse_map(text: str, name_hint: str = "") -> MapDefinition:
    name = name_hint
    waypoints: dict[int, Waypoint] = {}
    edges: dict[tuple[int, int], int] = {}
    walls: list = []
    explicit_vis: set[tuple[int, int]] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        where = f"line {lineno}"
        if kind == "name":
            if len(parts) != 2:
                raise MapError(f"{where}: name takes one token")
            name = parts[1]
        elif kind == "waypoint":
            if len(parts) not in (4, 5):
                raise MapError(f"{where}: waypoint takes id x y [tags]")
            try:
                wid = int(parts[1])
            except ValueError:
                raise MapError(f"{where}: bad waypoint id {parts[1]!r}") from None
            if wid < 0:
                raise MapError(f"{where}: waypoint id must be non-negative")
            if wid in waypoints:
                raise MapError(f"{where}: duplicate waypoint id {wid}")
            x = _parse_cm(parts[2], where)
            y = _parse_cm(parts[3], where)
            tags: tuple[str, ...] = ()
            if len(parts) == 5 and parts[4] != "-":
                tags = tuple(parts[4].split(","))
                for t in tags:
                    if t not in VALID_TAGS:
                        raise MapError(f"{where}: unknown tag {t!r}")
            waypoints[wid] = Waypoint(wid, x, y, tags)
        elif kind == "edge":
            if len(parts) != 4:
                raise MapError(f"{where}: edge takes a b cost")
            try:
                a, b = int(parts[1]), int(parts[2])
            except ValueError:
                raise MapError(f"{where}: bad edge endpoints") from None
            cost = _parse_cm(parts[3], where)
            if a == b:
                raise MapError(f"{where}: self edge at waypoint {a}")
            if cost <= 0:
                raise MapError(f"{where}: edge cost must be positive")
            key = (min(a, b), max(a, b))
            if key in edges:
                raise MapError(f"{where}: duplicate edge {a}-{b}")
            edges[key] = cost
        elif kind == "wall":
            if len(parts) != 5:
                raise MapError(f"{where}: wall takes x1 y1 x2 y2")
            p1 = (_parse_cm(parts[1], where), _parse_cm(parts[2], where))
            p2 = (_parse_cm(parts[3], where), _parse_cm(parts[4], where))
            walls.append((p1, p2))
        elif kind == "visible":
            if len(parts) != 3:
                raise MapError(f"{where}: visible takes a b")
            try:
                explicit_vis.add((int(parts[1]), int(parts[2])))
            except ValueError:
                raise MapError(f"{where}: bad visible pair") from None
        else:
            raise MapError(f"{where}: unknown record {kind!r}")

    if not name:
        raise MapError("map has no name record")
    if not waypoints:
        raise MapError("map has no waypoints")
    if walls and explicit_vis:
        raise MapError("map mixes wall records with explicit visible records")

    for (a, b) in edges:
        for end in (a, b):
            if end not in waypoints:
                raise MapError(f"edge {a}-{b} references unknown waypoint {end}")

    for tag in REQUIRED_TAGS:
        if not any(tag in w.tags for w in waypoints.values()):
            raise MapError(f"map needs at least one waypoint tagged {tag}")

    adj_lists: dict[int, list] = {wid: [] for wid in waypoints}
    edge_cost: dict[tuple[int, int], int] = {}
    for (a, b), cost in edges.items():
        adj_lists[a].append((b, cost))
        adj_lists[b].append((a, cost))
        edge_cost[(a, b)] = cost
        edge_cost[(b, a)] = cost
    adj = {wid: tuple(sorted(lst)) for wid, lst in adj_lists.items()}

    ids = sorted(waypoints)
    seen = {ids[0]}
    frontier = [ids[0]]
    while frontier:
        cur = frontier.pop()
        for nbr, _ in adj[cur]:
            if nbr not in seen:
                seen.add(nbr)
                frontier.append(nbr)
    if len(seen) != len(waypoints):
        missing = sorted(set(waypoints) - seen)
        raise MapError(f"graph is disconnected; unreachable waypoints: {missing}")

    vis: set[tuple[int, int]] = set()
    if explicit_vis:
        for (a, b) in explicit_vis:
            for end in (a, b):
                if end not in waypoints:
                    raise MapError(f"visible pair {a}-{b} references unknown waypoint {end}")
            if (b, a) not in explicit_vis:
                raise MapError(f"asymmetric visibility: {a} sees {b} but not the reverse")
        vis.update(explicit_vis)
    else:
        for i in ids:
            wi = waypoints[i]
            for j in ids:
                if j <= i:
                    continue
                wj = waypoints[j]
                blocked = any(
                    segments_intersect((wi.x, wi.y), (wj.x, wj.y), w1, w2) for w1, w2 in walls
                )
                if not blocked:
                    vis.add((i, j))
                    vis.add((j, i))
    for i in ids:
        vis.add((i, i))

    return MapDefinition(
        name=name,
        waypoints=waypoints,
        adj=adj,
        edge_cost=edge_cost,
        vis=frozenset(vis),
        source_hash=fnv1a64(text.encode("utf-8")),
    )


_BUNDLED = resources.files("rulebots") / "maps"


# Every match of a map shares one parse; the bound only keeps a host that
# loads many one-off map files from growing the cache without limit.
@functools.lru_cache(maxsize=8)
def _parse_shared(text: str, name_hint: str) -> MapDefinition:
    return parse_map(text, name_hint)


def load_map(spec: str) -> MapDefinition:
    """Load a map from a file path or a bundled map name.

    The file is read on every call; each distinct text and name is parsed
    once per process, so an edited file is parsed again.
    """
    if os.path.exists(spec):
        with open(spec, "r", encoding="utf-8") as fh:
            text = fh.read()
        hint = os.path.splitext(os.path.basename(spec))[0]
        return _parse_shared(text, hint)
    try:
        text = (_BUNDLED / f"{spec}.map").read_text(encoding="utf-8")
    except (FileNotFoundError, OSError):
        raise MapError(f"no such map file or bundled map: {spec!r}") from None
    return _parse_shared(text, spec)
