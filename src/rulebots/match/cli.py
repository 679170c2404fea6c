"""Command line entry: run, experiment, replay, validate, repl."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from rulebots.logic import LogicError
from rulebots.match.config import MatchConfig, parse_controller
from rulebots.match.experiment import ExperimentConfig, run_experiment, write_report
from rulebots.match.match import run_match
from rulebots.match.perf import summary_text, timed_match
from rulebots.match.repl import Repl
from rulebots.match.replay import TraceError, replay, write_trace
from rulebots.rules import PackageError, load_package, validate_stack
from rulebots.sim import MapError

OK, INVALID, FAILED = 0, 1, 2


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rulebots", description="Deterministic bot matches driven by rule scripts."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="play seeded matches with fixed teams")
    run.add_argument("--map", default="warehouse", help="bundled map name or map file path")
    run.add_argument("--rounds", type=int, default=12)
    run.add_argument("--matches", type=int, default=1)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--ct", default="native", help="native | scripted[:pkg,pkg,...]")
    run.add_argument("--t", default="native", help="native | scripted[:pkg,pkg,...]")
    run.add_argument("--out", help="directory for trace files")
    run.add_argument("--perf", action="store_true", help="measure reasoning wall time")

    exp = sub.add_parser("experiment", help="the 4-pairing statistics matrix")
    exp.add_argument("--map", default="warehouse")
    exp.add_argument("--rounds", type=int, default=12)
    exp.add_argument("--matches", type=int, default=10)
    exp.add_argument("--seed", type=int, default=0)
    exp.add_argument("--packages", default="baseline",
                     help="comma-separated stack for the scripted sides")
    exp.add_argument("--out", default="experiment_out")
    exp.add_argument("--jobs", type=int, default=1)

    rep = sub.add_parser("replay", help="re-run a trace file and diff")
    rep.add_argument("trace")

    val = sub.add_parser("validate", help="static checks over a package stack")
    val.add_argument("manifests", nargs="+", help="package names or manifest paths")

    repl = sub.add_parser("repl", help="interactive queries against a scripted mind")
    repl.add_argument("--map", default="warehouse")
    repl.add_argument("--packages", default="baseline")
    repl.add_argument("--seed", type=int, default=0)
    return parser


def _cmd_run(args) -> int:
    if args.matches < 1:
        raise ValueError("run needs at least one match")
    counts_total = [0, 0, 0, 0]
    for match_index in range(args.matches):
        config = MatchConfig(
            map_name=args.map,
            seed=args.seed + match_index,
            rounds=args.rounds,
            ct=parse_controller(args.ct),
            t=parse_controller(args.t),
        )
        if args.perf:
            report, result = timed_match(config)
            print(f"match {match_index} (seed {config.seed}) perf:")
            print(summary_text(report))
        else:
            result = run_match(config)
        c = result.counts
        counts_total = [total + n for total, n in zip(counts_total, c)]
        print(
            f"match {match_index} seed {config.seed}: "
            f"CT {c.ct_wins} ({c.ct_goal_wins} goal), T {c.t_wins} ({c.t_goal_wins} goal)"
        )
        if args.out and match_index == 0:
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            trace_path = out / "match0.trace"
            write_trace(trace_path, result)
            print(f"trace written to {trace_path}")
    if args.matches > 1:
        print(
            f"totals: CT {counts_total[0]} ({counts_total[2]} goal), "
            f"T {counts_total[1]} ({counts_total[3]} goal)"
        )
    return OK


def _cmd_experiment(args) -> int:
    config = ExperimentConfig(
        map_name=args.map,
        seed=args.seed,
        rounds=args.rounds,
        matches=args.matches,
        packages=tuple(p for p in args.packages.split(",") if p),
        jobs=args.jobs,
    )
    report = run_experiment(config)
    written = write_report(report, args.out)
    print((written[0]).read_text(encoding="utf-8"))
    print("written: " + ", ".join(str(p) for p in written))
    return OK


def _cmd_replay(args) -> int:
    result = replay(args.trace)
    print(result.message)
    return OK if result.clean else INVALID


def _cmd_validate(args) -> int:
    stack = tuple(load_package(name) for name in args.manifests)
    errors, warnings = validate_stack(stack)
    for line in warnings:
        print(f"warning: {line}")
    for line in errors:
        print(f"error: {line}")
    if errors:
        return INVALID
    print(f"ok: {', '.join(p.name for p in stack)}")
    return OK


def _cmd_repl(args) -> int:
    packages = tuple(p for p in args.packages.split(",") if p)
    Repl(args.map, packages, seed=args.seed).run()
    return OK


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "experiment": _cmd_experiment,
        "replay": _cmd_replay,
        "validate": _cmd_validate,
        "repl": _cmd_repl,
    }
    try:
        return handlers[args.command](args)
    except (PackageError, TraceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INVALID
    except (MapError, LogicError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FAILED


if __name__ == "__main__":
    sys.exit(main())
