"""Match configuration: who plays whom, on which map, for how long."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

MIND_KINDS = ("native", "scripted")

# Stack consulted when a scripted side names no packages of its own.
DEFAULT_STACK = ("baseline",)


@dataclass(frozen=True)
class ControllerSpec:
    """One team's mind kind plus, for scripted minds, its rule packages."""

    kind: str
    packages: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in MIND_KINDS:
            raise ValueError(f"unknown mind kind: {self.kind!r}")
        if self.kind == "native" and self.packages:
            raise ValueError("a native mind takes no rule packages")

    def stack_names(self) -> tuple[str, ...]:
        return self.packages if self.packages else DEFAULT_STACK


def parse_controller(text: str) -> ControllerSpec:
    """Parse the CLI form ``native`` | ``scripted`` | ``scripted:pkg,pkg``."""
    kind, sep, rest = text.partition(":")
    packages = tuple(p for p in rest.split(",") if p) if sep else ()
    return ControllerSpec(kind, packages)


def controller_text(spec: ControllerSpec) -> str:
    if spec.packages:
        return f"{spec.kind}:{','.join(spec.packages)}"
    return spec.kind


# The type of each value in `MatchConfig.to_json`'s dict.
_JSON_TYPES = {"map": str, "seed": int, "rounds": int, "ct": str, "t": str}


@dataclass(frozen=True)
class MatchConfig:
    map_name: str = "warehouse"
    seed: int = 0
    rounds: int = 12
    ct: ControllerSpec = field(default_factory=lambda: ControllerSpec("native"))
    t: ControllerSpec = field(default_factory=lambda: ControllerSpec("native"))

    def __post_init__(self):
        if self.rounds < 1:
            raise ValueError("a match needs at least one round")

    def to_json(self) -> dict:
        return {
            "map": self.map_name,
            "seed": self.seed,
            "rounds": self.rounds,
            "ct": controller_text(self.ct),
            "t": controller_text(self.t),
        }

    @classmethod
    def from_json(cls, data) -> "MatchConfig":
        """The inverse of `to_json`.  A missing key raises KeyError; a value of
        the wrong type, or data that is not an object, raises ValueError."""
        if type(data) is not dict:
            raise ValueError(f"expected an object, got {json.dumps(data)}")
        for key, kind in _JSON_TYPES.items():
            if type(data[key]) is not kind:
                raise ValueError(f"{key} must be {kind.__name__}, got {json.dumps(data[key])}")
        return cls(
            map_name=data["map"],
            seed=data["seed"],
            rounds=data["rounds"],
            ct=parse_controller(data["ct"]),
            t=parse_controller(data["t"]),
        )
