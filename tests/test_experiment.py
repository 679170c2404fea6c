"""Experiment matrix: pairing schedule, seeds, report formats, parallel runs."""

import json
from dataclasses import replace

from rulebots.match import (
    PAIRINGS,
    ExperimentConfig,
    experiment,
    match_configs,
    raw_counts_csv,
    report_json,
    report_text,
    run_experiment,
    write_report,
)

SMALL = ExperimentConfig(map_name="warehouse", seed=17, rounds=2, matches=2)


def test_pairing_schedule():
    assert PAIRINGS == (
        ("native", "native"),
        ("scripted", "native"),
        ("native", "scripted"),
        ("scripted", "scripted"),
    )


def test_match_configs_spread_seeds():
    configs = match_configs(SMALL)
    assert len(configs) == 8
    # seed + pairing index + match index, in schedule order
    assert [c.seed for c in configs] == [17, 18, 18, 19, 19, 20, 20, 21]
    assert configs[0].ct.kind == "native" and configs[0].t.kind == "native"
    assert configs[2].ct.kind == "scripted" and configs[2].t.kind == "native"
    assert configs[2].ct.packages == ("baseline",)


def test_report_rows_and_labels():
    report = run_experiment(SMALL)
    assert [row.label for row in report.rows] == [
        "(native,native)",
        "(scripted,native)",
        "(native,scripted)",
        "(scripted,scripted)",
    ]
    for row in report.rows:
        assert len(row.counts) == SMALL.matches
        for counts in row.counts:
            assert counts.ct_wins + counts.t_wins == SMALL.rounds
            assert counts.ct_goal_wins <= counts.ct_wins
            assert counts.t_goal_wins <= counts.t_wins


def test_report_text_format():
    report = run_experiment(SMALL)
    text = report_text(report)
    lines = text.splitlines()
    assert lines[0].startswith("map warehouse, seed 17, 2 matches of 2 rounds")
    assert "Team victories (mean rounds won per match)" in text
    assert "Goal-fulfilled team victories (mean rounds won per match)" in text
    # one row per pairing in each of the two tables
    for label in ("(native,native)", "(scripted,scripted)"):
        assert sum(1 for line in lines if line.startswith(label)) == 2


def test_report_json_shape():
    report = run_experiment(SMALL)
    data = json.loads(report_json(report))
    assert data["map"] == "warehouse" and data["seed"] == 17
    assert [p["ct"] for p in data["pairings"]] == ["native", "scripted", "native", "scripted"]
    for pairing in data["pairings"]:
        assert len(pairing["per_match"]) == 2
        means = pairing["mean"]
        assert means["ct_goal_wins"] <= means["ct_wins"]
        assert means["t_goal_wins"] <= means["t_wins"]


def test_raw_counts_csv_shape():
    report = run_experiment(SMALL)
    lines = raw_counts_csv(report).splitlines()
    assert lines[0] == "pairing,ct,t,match,seed,ct_wins,t_wins,ct_goal_wins,t_goal_wins"
    assert len(lines) == 1 + len(PAIRINGS) * SMALL.matches
    first = lines[1].split(",")
    assert first[1:5] == ["native", "native", "0", "17"]


def test_identical_seeds_reproduce_identical_rows():
    left = run_experiment(SMALL)
    right = run_experiment(SMALL)
    assert report_json(left) == report_json(right)
    assert raw_counts_csv(left) == raw_counts_csv(right)


def test_parallel_run_matches_serial():
    serial = run_experiment(SMALL)
    parallel = run_experiment(ExperimentConfig(
        map_name="warehouse", seed=17, rounds=2, matches=2, jobs=3
    ))
    assert report_json(serial) == report_json(parallel)
    assert raw_counts_csv(serial) == raw_counts_csv(parallel)


class RecordingPool:
    """Stands in for `multiprocessing.Pool`: records its size and maps in-process."""

    sizes: list[int] = []

    def __init__(self, processes):
        self.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return [fn(item) for item in items]


def test_pool_never_outnumbers_matches(monkeypatch):
    monkeypatch.setattr(experiment.multiprocessing, "Pool", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    one_each = ExperimentConfig(map_name="warehouse", seed=17, rounds=1, matches=1, jobs=64)
    assert len(match_configs(one_each)) == 4
    pooled = run_experiment(one_each)
    assert RecordingPool.sizes == [4]
    assert report_json(pooled) == report_json(run_experiment(replace(one_each, jobs=1)))
    assert RecordingPool.sizes == [4]  # one job plays serially, with no pool


def test_write_report_emits_files(tmp_path):
    report = run_experiment(SMALL)
    written = write_report(report, tmp_path)
    names = sorted(p.name for p in written)
    assert "report.txt" in names
    assert "report.json" in names
    assert "raw_counts.csv" in names
    traces = [n for n in names if n.endswith(".trace")]
    assert len(traces) == len(PAIRINGS)
    for path in written:
        assert path.exists() and path.stat().st_size > 0
