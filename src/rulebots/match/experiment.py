"""The 4-pairing experiment matrix and its report files."""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field
from pathlib import Path

import json

from rulebots.match.config import ControllerSpec, DEFAULT_STACK, MatchConfig
from rulebots.match.match import MatchResult, WinCounts, run_match
from rulebots.match.replay import write_trace

# CT side first, T side second.
PAIRINGS = (
    ("native", "native"),
    ("scripted", "native"),
    ("native", "scripted"),
    ("scripted", "scripted"),
)


@dataclass(frozen=True)
class ExperimentConfig:
    map_name: str = "warehouse"
    seed: int = 0
    rounds: int = 12
    matches: int = 10
    packages: tuple[str, ...] = DEFAULT_STACK
    jobs: int = 1

    def __post_init__(self):
        if self.rounds < 1 or self.matches < 1:
            raise ValueError("experiment needs at least one round and one match")
        if self.jobs < 1:
            raise ValueError("jobs must be positive")
        if not self.packages:
            raise ValueError("experiment needs at least one rule package for the scripted sides")


@dataclass(frozen=True)
class PairingRow:
    ct: str
    t: str
    seeds: tuple[int, ...]
    counts: tuple[WinCounts, ...]
    first_match: MatchResult

    @property
    def label(self) -> str:
        return f"({self.ct},{self.t})"

    def mean(self, index: int) -> float:
        return sum(c[index] for c in self.counts) / len(self.counts)


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    rows: tuple[PairingRow, ...] = field(default_factory=tuple)


def _controller(kind: str, packages: tuple[str, ...]) -> ControllerSpec:
    return ControllerSpec(kind, packages if kind == "scripted" else ())


def match_configs(config: ExperimentConfig) -> list[MatchConfig]:
    return [
        MatchConfig(
            map_name=config.map_name,
            seed=config.seed + pairing_index + match_index,
            rounds=config.rounds,
            ct=_controller(ct_kind, config.packages),
            t=_controller(t_kind, config.packages),
        )
        for pairing_index, (ct_kind, t_kind) in enumerate(PAIRINGS)
        for match_index in range(config.matches)
    ]


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    configs = match_configs(config)
    jobs = min(config.jobs, len(configs))  # a worker beyond one per match would sit idle
    if jobs > 1:
        with multiprocessing.Pool(jobs) as pool:
            results = pool.map(run_match, configs)
    else:
        results = [run_match(c) for c in configs]
    # single-threaded reduction in pairing/match order
    rows = []
    for pairing_index, (ct_kind, t_kind) in enumerate(PAIRINGS):
        chunk = results[pairing_index * config.matches:(pairing_index + 1) * config.matches]
        rows.append(
            PairingRow(
                ct=ct_kind,
                t=t_kind,
                seeds=tuple(r.config.seed for r in chunk),
                counts=tuple(r.counts for r in chunk),
                first_match=chunk[0],
            )
        )
    return ExperimentReport(config, tuple(rows))


def _table(title: str, rows, ct_index: int, t_index: int) -> list[str]:
    lines = [title, "", f"{'pairing':<22}{'CTs':>6}{'Ts':>6}"]
    for row in rows:
        lines.append(f"{row.label:<22}{row.mean(ct_index):>6.1f}{row.mean(t_index):>6.1f}")
    lines.append("")
    return lines


def report_text(report: ExperimentReport) -> str:
    cfg = report.config
    header = (
        f"map {cfg.map_name}, seed {cfg.seed}, {cfg.matches} matches of "
        f"{cfg.rounds} rounds per pairing, scripted stack: {', '.join(cfg.packages)}"
    )
    lines = [header, ""]
    lines += _table("Team victories (mean rounds won per match)", report.rows, 0, 1)
    lines += _table("Goal-fulfilled team victories (mean rounds won per match)", report.rows, 2, 3)
    return "\n".join(lines)


def report_json(report: ExperimentReport) -> str:
    cfg = report.config
    data = {
        "map": cfg.map_name,
        "seed": cfg.seed,
        "rounds": cfg.rounds,
        "matches": cfg.matches,
        "packages": list(cfg.packages),
        "pairings": [
            {
                "ct": row.ct,
                "t": row.t,
                "seeds": list(row.seeds),
                "per_match": [list(c) for c in row.counts],
                "mean": {
                    "ct_wins": row.mean(0),
                    "t_wins": row.mean(1),
                    "ct_goal_wins": row.mean(2),
                    "t_goal_wins": row.mean(3),
                },
            }
            for row in report.rows
        ],
    }
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def raw_counts_csv(report: ExperimentReport) -> str:
    lines = ["pairing,ct,t,match,seed,ct_wins,t_wins,ct_goal_wins,t_goal_wins"]
    for pairing_index, row in enumerate(report.rows):
        for match_index, counts in enumerate(row.counts):
            lines.append(
                f"{pairing_index},{row.ct},{row.t},{match_index},{row.seeds[match_index]},"
                f"{counts.ct_wins},{counts.t_wins},{counts.ct_goal_wins},{counts.t_goal_wins}"
            )
    return "\n".join(lines) + "\n"


def write_report(report: ExperimentReport, out_dir) -> list[Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    def emit(name: str, text: str):
        path = out / name
        path.write_text(text, encoding="utf-8")
        written.append(path)

    emit("report.txt", report_text(report))
    emit("report.json", report_json(report))
    emit("raw_counts.csv", raw_counts_csv(report))
    for pairing_index, row in enumerate(report.rows):
        path = out / f"trace_p{pairing_index}_{row.ct}_{row.t}.trace"
        write_trace(path, row.first_match)
        written.append(path)
    return written
