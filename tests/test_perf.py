"""Reasoning-vs-simulation timing: report shape and invariants."""

import itertools
import time

import support
from rulebots.match import ControllerSpec, MatchConfig, PerfReport, measure_performance, replay
from rulebots.match import cli, match
from rulebots.match.perf import summary_text


def config_for(kind, rounds=1):
    spec = ControllerSpec(kind, ("baseline",) if kind == "scripted" else ())
    return MatchConfig(map_name="warehouse", seed=1, rounds=rounds, ct=spec, t=spec)


def test_scripted_run_reports_positive_share():
    report = measure_performance(config_for("scripted"))
    assert len(report.reasoning_ms) == len(report.simulation_ms) > 0
    assert 0.0 < report.reasoning_share < 1.0
    assert report.median_reasoning_ms > 0.0
    assert report.p95_reasoning_ms >= report.median_reasoning_ms
    assert report.native_total_ms > 0.0


def test_all_native_share_is_exactly_zero():
    # reasoning time is defined as time inside scripted minds
    report = measure_performance(config_for("native"))
    assert report.reasoning_share == 0.0
    assert sum(report.reasoning_ms) == 0.0
    assert report.total_ms > 0.0


def test_aggregates_from_known_samples():
    report = PerfReport(
        reasoning_ms=(1.0, 2.0, 3.0, 4.0),
        simulation_ms=(2.0, 2.0, 2.0, 4.0),
        native_total_ms=10.0,
    )
    assert report.total_ms == 20.0
    assert report.median_reasoning_ms == 2.5
    assert report.p95_reasoning_ms == 4.0
    assert report.reasoning_share == 0.5
    assert report.native_delta == 1.0


def test_identical_work_reads_no_native_delta(monkeypatch):
    # each clock reading is one second later, so a span's length counts the
    # readings inside it; the all-native reference must be timed like the match
    clock = itertools.count()
    monkeypatch.setattr(time, "perf_counter", lambda: float(next(clock)))
    report = measure_performance(config_for("native"))
    assert report.total_ms > 0.0
    assert report.native_total_ms == report.total_ms
    assert report.native_delta == 0.0


def test_a_native_match_reuses_proofs():
    # a native mind's motivation proofs go through its prover too
    report = measure_performance(config_for("native", rounds=2))
    assert report.proofs_run > 0
    assert report.proofs_reused > 0


def test_summary_text_lines():
    report = measure_performance(config_for("scripted"))
    lines = summary_text(report).splitlines()
    assert lines[0].startswith("ticks measured:")
    assert "reasoning per tick: median" in lines[1]
    assert "reasoning share of wall time:" in lines[2]
    assert "all-native reference" in lines[3]
    assert lines[4] == f"proofs: {report.proofs_run} run, {report.proofs_reused} reused"


RUN_ONE_ROUND = ["run", "--map", "warehouse", "--seed", "1", "--rounds", "1",
                 "--ct", "scripted:baseline", "--t", "scripted:baseline"]


def test_run_perf_plays_the_timed_match_and_one_native_reference(monkeypatch, capsys):
    built = []
    original = match.build_match

    def counting(config):
        built.append(config)
        return original(config)

    support.patch_everywhere(monkeypatch, original, counting)
    assert cli.main(RUN_ONE_ROUND + ["--perf"]) == cli.OK
    assert sorted((c.ct.kind, c.t.kind) for c in built) == [
        ("native", "native"), ("scripted", "scripted")
    ]
    assert "all-native reference" in capsys.readouterr().out


def test_run_perf_writes_the_trace_of_a_plain_run(tmp_path, capsys):
    assert cli.main(RUN_ONE_ROUND + ["--out", str(tmp_path / "plain")]) == cli.OK
    assert cli.main(RUN_ONE_ROUND + ["--perf", "--out", str(tmp_path / "perf")]) == cli.OK
    plain = (tmp_path / "plain" / "match0.trace").read_bytes()
    timed = tmp_path / "perf" / "match0.trace"
    assert timed.read_bytes() == plain
    assert replay(timed).clean
