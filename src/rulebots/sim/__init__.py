"""Deterministic waypoint-graph hostage-rescue simulation.

All game state is integer valued (centimetres, degrees, ticks) and the
only randomness is the seeded generator consumed by attack resolution,
so a (map, config, seed) triple replays byte-identically.
"""

from rulebots.sim.rng import SplitMix64, fnv1a64
from rulebots.sim.mapdef import MapDefinition, Waypoint, MapError, load_map, parse_map
from rulebots.sim.pathfind import shortest_path
from rulebots.sim.world import (
    CT,
    T,
    WORLD,
    PISTOL,
    RIFLE,
    WEAPONS,
    SimConfig,
    WeaponSpec,
    BotState,
    HostageState,
    WorldState,
    RoundOutcome,
    FaceIntent,
    MoveIntent,
    AttackIntent,
    InteractIntent,
    BuyIntent,
    IdleIntent,
)

__all__ = [
    "SplitMix64",
    "MapDefinition",
    "Waypoint",
    "MapError",
    "load_map",
    "parse_map",
    "shortest_path",
    "CT",
    "T",
    "WORLD",
    "PISTOL",
    "RIFLE",
    "WEAPONS",
    "SimConfig",
    "WeaponSpec",
    "BotState",
    "HostageState",
    "WorldState",
    "RoundOutcome",
    "FaceIntent",
    "MoveIntent",
    "AttackIntent",
    "InteractIntent",
    "BuyIntent",
    "IdleIntent",
    "fnv1a64",
]
