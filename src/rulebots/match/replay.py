"""Trace files and the determinism audit that re-runs them."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from rulebots.match.config import MatchConfig
from rulebots.match.match import MatchResult, run_match
from rulebots.sim import WORLD

TRACE_VERSION = "rulebots-trace v1"


class TraceError(Exception):
    pass


@dataclass(frozen=True)
class ReplayResult:
    clean: bool
    message: str
    divergence_line: int | None = None


def render_body(result: MatchResult) -> list[str]:
    """Per round, its digest line, then one `tick;bot;event;payload` line per
    event (`-` for the world's), in tick, then bot, then logging order.  An
    event's sequence number is unique within its round, so the sort never
    compares further than it."""
    lines = []
    for round_no, round_result in enumerate(result.rounds):
        lines.append(f"#round {round_no} digest={round_result.digest:016x}")
        for tick, bot_key, _seq, etype, payload in sorted(round_result.events):
            bot = "-" if bot_key == WORLD else bot_key
            lines.append(f"{tick};{bot};{etype};{payload}")
    return lines


def write_trace(path, result: MatchResult) -> None:
    config_json = json.dumps(result.config.to_json(), sort_keys=True)
    lines = [
        f"#{TRACE_VERSION}",
        f"#config {config_json}",
        f"#map-hash {result.map_hash:016x}",
    ]
    lines.extend(render_body(result))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_trace(path) -> tuple[MatchConfig, int, list[str]]:
    # OSError from an unreadable path propagates as a runtime failure
    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines or not lines[0].startswith("#rulebots-trace"):
        raise TraceError("not a trace file (missing version stamp)")
    if lines[0] != f"#{TRACE_VERSION}":
        raise TraceError(f"unsupported trace version {lines[0][1:]!r}, expected {TRACE_VERSION!r}")
    if len(lines) < 3 or not lines[1].startswith("#config ") or not lines[2].startswith("#map-hash "):
        raise TraceError("malformed trace header")
    try:
        config = MatchConfig.from_json(json.loads(lines[1][len("#config "):]))
    except (ValueError, KeyError) as exc:
        raise TraceError(f"bad embedded config: {exc}") from exc
    try:
        map_hash = int(lines[2][len("#map-hash "):], 16)
    except ValueError as exc:
        raise TraceError(f"bad map hash: {exc}") from exc
    return config, map_hash, lines[3:]


def replay(path) -> ReplayResult:
    """Re-run the embedded config and diff against the recorded events."""
    config, map_hash, recorded = read_trace(path)
    result = run_match(config)
    if result.map_hash != map_hash:
        return ReplayResult(
            False,
            f"map {config.map_name!r} content changed: "
            f"hash {result.map_hash:016x}, trace has {map_hash:016x}",
        )
    fresh = render_body(result)
    # header occupies file lines 1-3, body starts at 4
    for i, (want, got) in enumerate(zip(recorded, fresh)):
        if want != got:
            return ReplayResult(
                False,
                f"divergence at line {i + 4}: trace has {want!r}, re-run produced {got!r}",
                i + 4,
            )
    if len(recorded) != len(fresh):
        shorter = "trace" if len(recorded) < len(fresh) else "re-run"
        line = min(len(recorded), len(fresh)) + 4
        return ReplayResult(False, f"{shorter} ends early at line {line}", line)
    return ReplayResult(True, f"clean: {len(fresh)} lines match")
