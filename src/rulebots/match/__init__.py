"""Match driving, experiments, replay, performance and the script REPL."""

from rulebots.match.config import (
    ControllerSpec,
    DEFAULT_STACK,
    MatchConfig,
    controller_text,
    parse_controller,
)
from rulebots.match.round import RoundResult, run_round
from rulebots.match.match import MatchResult, WinCounts, run_match
from rulebots.match.experiment import (
    ExperimentConfig,
    ExperimentReport,
    PAIRINGS,
    match_configs,
    raw_counts_csv,
    report_json,
    report_text,
    run_experiment,
    write_report,
)
from rulebots.match.replay import ReplayResult, TraceError, read_trace, replay, write_trace
from rulebots.match.perf import PerfReport, measure_performance

__all__ = [
    "ControllerSpec",
    "DEFAULT_STACK",
    "MatchConfig",
    "controller_text",
    "parse_controller",
    "RoundResult",
    "run_round",
    "MatchResult",
    "WinCounts",
    "run_match",
    "ExperimentConfig",
    "ExperimentReport",
    "PAIRINGS",
    "match_configs",
    "raw_counts_csv",
    "report_json",
    "report_text",
    "run_experiment",
    "write_report",
    "ReplayResult",
    "TraceError",
    "read_trace",
    "replay",
    "write_trace",
    "PerfReport",
    "measure_performance",
]
