"""Match driver, trace files, replay verification, CLI exit codes."""

from importlib import resources
from pathlib import Path

import pytest

import support
from rulebots.match import (
    ControllerSpec,
    MatchConfig,
    TraceError,
    read_trace,
    replay,
    run_match,
    write_trace,
)
from rulebots.match.cli import main as cli_main
from rulebots.match.replay import TRACE_VERSION, render_body

NATIVE = ControllerSpec("native", ())


def native_config(seed=42, rounds=3):
    return MatchConfig(map_name="warehouse", seed=seed, rounds=rounds, ct=NATIVE, t=NATIVE)


def test_run_match_is_deterministic():
    first = run_match(native_config())
    second = run_match(native_config())
    assert render_body(first) == render_body(second)
    assert first.counts == second.counts
    assert first.map_hash == second.map_hash


def test_round_wins_sum_to_rounds():
    result = run_match(native_config(seed=9, rounds=4))
    assert len(result.rounds) == 4
    assert result.counts.ct_wins + result.counts.t_wins == 4
    assert result.counts.ct_goal_wins <= result.counts.ct_wins
    assert result.counts.t_goal_wins <= result.counts.t_wins


def test_do_nothing_package_times_out_every_round(tmp_path):
    (tmp_path / "naps.mf").write_text(
        "package naps\nlevel game\nfile naps.pl\nentry do_reasoning/1\n"
    )
    (tmp_path / "naps.pl").write_text("do_reasoning(_).\n")
    spec = ControllerSpec("scripted", (str(tmp_path / "naps.mf"),))
    config = MatchConfig(map_name="warehouse", seed=0, rounds=2, ct=spec, t=spec)
    result = run_match(config)
    # nobody moves: the clock runs out and the stalling side banks the goal
    assert result.counts == (0, 2, 0, 2)
    for round_result in result.rounds:
        assert round_result.outcome.cause == "time_expired"
        assert round_result.outcome.goal_fulfilled is True


def test_trace_round_trip_and_clean_replay(tmp_path):
    config = native_config(seed=5, rounds=2)
    result = run_match(config)
    path = tmp_path / "match.trace"
    write_trace(path, result)
    loaded_config, map_hash, body = read_trace(path)
    assert loaded_config == config
    assert map_hash == result.map_hash
    assert body == render_body(result)
    verdict = replay(path)
    assert verdict.clean
    assert verdict.message.startswith("clean:")


def test_replay_flags_tampered_event(tmp_path):
    path = tmp_path / "match.trace"
    write_trace(path, run_match(native_config(seed=5, rounds=2)))
    lines = path.read_text().splitlines()
    target = next(i for i, line in enumerate(lines) if "round_start" in line)
    lines[target] = lines[target].replace("round_start", "round_stort")
    path.write_text("\n".join(lines) + "\n")
    verdict = replay(path)
    assert not verdict.clean
    assert verdict.divergence_line == target + 1
    assert "divergence at line" in verdict.message


def test_replay_flags_truncated_trace(tmp_path):
    path = tmp_path / "match.trace"
    write_trace(path, run_match(native_config(seed=5, rounds=2)))
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-10]) + "\n")
    verdict = replay(path)
    assert not verdict.clean
    assert "ends early" in verdict.message


def test_read_trace_rejects_wrong_version(tmp_path):
    path = tmp_path / "bad.trace"
    path.write_text("#rulebots-trace v9\n#config {}\n#map-hash 0\n")
    with pytest.raises(TraceError, match="unsupported trace version"):
        read_trace(path)
    path.write_text("just some text\n")
    with pytest.raises(TraceError, match="not a trace file"):
        read_trace(path)


GOOD_CONFIG = '{"ct": "native", "map": "warehouse", "rounds": 1, "seed": 0, "t": "native"}'

BAD_CONFIGS = [
    ("[]", "expected an object, got []"),
    ("5", "expected an object, got 5"),
    (GOOD_CONFIG.replace('"native"', "5", 1), "ct must be str, got 5"),
    (GOOD_CONFIG.replace('"seed": 0', '"seed": null'), "seed must be int, got null"),
    (GOOD_CONFIG.replace('"rounds": 1', '"rounds": "1"'), 'rounds must be int, got "1"'),
    (GOOD_CONFIG.replace('"rounds": 1', '"rounds": true'), "rounds must be int, got true"),
    (GOOD_CONFIG.replace('"warehouse"', "[]"), "map must be str, got []"),
    (GOOD_CONFIG.replace('"seed": 0, ', ""), "'seed'"),
    (GOOD_CONFIG.replace('"rounds": 1', '"rounds": 0'), "a match needs at least one round"),
]


@pytest.mark.parametrize("config, message", BAD_CONFIGS, ids=[m for _, m in BAD_CONFIGS])
def test_cli_replay_bad_embedded_config_is_validation_error(config, message, tmp_path, capsys):
    path = tmp_path / "bad.trace"
    path.write_text(f"#{TRACE_VERSION}\n#config {config}\n#map-hash 0\n")
    assert cli_main(["replay", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: bad embedded config: {message}\n"


def test_replay_flags_map_hash_mismatch(tmp_path):
    path = tmp_path / "match.trace"
    write_trace(path, run_match(native_config(seed=5, rounds=1)))
    lines = path.read_text().splitlines()
    assert lines[2].startswith("#map-hash ")
    lines[2] = "#map-hash 00000000deadbeef"
    path.write_text("\n".join(lines) + "\n")
    verdict = replay(path)
    assert not verdict.clean
    assert "map" in verdict.message


def test_replay_sees_a_map_file_edited_after_recording(tmp_path):
    # the map cache is keyed by content, so a rewritten file is parsed again
    map_path = tmp_path / "depot.map"
    map_path.write_text((resources.files("rulebots") / "maps" / "warehouse.map").read_text())
    config = MatchConfig(map_name=str(map_path), seed=5, rounds=1, ct=NATIVE, t=NATIVE)
    trace = tmp_path / "match.trace"
    write_trace(trace, run_match(config))
    assert replay(trace).clean
    map_path.write_text(map_path.read_text() + "# edited\n")
    verdict = replay(trace)
    assert not verdict.clean
    assert verdict.message.startswith(f"map {str(map_path)!r} content changed")


# -- command line -------------------------------------------------------


def test_cli_run_writes_trace_and_reports(tmp_path, capsys):
    code = cli_main(
        ["run", "--map", "warehouse", "--seed", "3", "--rounds", "2",
         "--matches", "2", "--ct", "native", "--t", "native",
         "--out", str(tmp_path / "out")]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "match 0 seed 3:" in out
    assert "match 1 seed 4:" in out
    assert "totals:" in out
    assert (tmp_path / "out" / "match0.trace").exists()


def test_cli_replay_exit_codes(tmp_path, capsys):
    cli_main(
        ["run", "--map", "warehouse", "--seed", "3", "--rounds", "1",
         "--matches", "1", "--ct", "native", "--t", "native",
         "--out", str(tmp_path)]
    )
    trace = tmp_path / "match0.trace"
    assert cli_main(["replay", str(trace)]) == 0
    text = trace.read_text().replace("round=0", "round=9")
    trace.write_text(text)
    assert cli_main(["replay", str(trace)]) == 1
    capsys.readouterr()


def test_cli_replay_missing_file_is_runtime_error(capsys):
    assert cli_main(["replay", "/nonexistent/nowhere.trace"]) == 2
    capsys.readouterr()


def test_cli_validate(tmp_path, capsys):
    assert cli_main(["validate", "baseline", "cs_rules", "warehouse_tactics"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("ok:")
    (tmp_path / "bad.mf").write_text(
        "package bad\nlevel game\nfile bad.pl\nentry do_reasoning/1\n"
    )
    (tmp_path / "bad.pl").write_text("do_reasoning(B) :- ghost(B).\n")
    assert cli_main(["validate", str(tmp_path / "bad.mf")]) == 1
    assert "undefined ghost/1" in capsys.readouterr().out


def test_cli_bad_package_name_is_validation_error(capsys):
    assert cli_main(["run", "--ct", "scripted:no_such_pkg", "--t", "native",
                     "--rounds", "1", "--matches", "1"]) == 1
    capsys.readouterr()


def test_cli_unknown_map_is_runtime_error(capsys):
    assert cli_main(["run", "--map", "atlantis", "--ct", "native", "--t", "native",
                     "--rounds", "1", "--matches", "1"]) == 2
    capsys.readouterr()


def test_cli_run_map_with_a_bad_number_is_runtime_error(tmp_path, capsys):
    path = tmp_path / "bad.map"
    path.write_text(support.LINE_MAP.replace("waypoint 1 4 0", "waypoint 1 inf 0"))
    assert cli_main(["run", "--map", str(path), "--ct", "native", "--t", "native",
                     "--rounds", "1", "--matches", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: line 4: bad number 'inf'\n"


@pytest.mark.parametrize("matches", ["0", "-3"])
def test_cli_run_without_matches_is_runtime_error(matches, capsys):
    assert cli_main(["run", "--ct", "native", "--t", "native",
                     "--rounds", "1", "--matches", matches]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: run needs at least one match\n"


@pytest.mark.parametrize("packages", ["", ","])
def test_cli_experiment_without_packages_is_runtime_error(packages, tmp_path, capsys):
    # an empty stack would play the default one under a report that names none
    out_dir = tmp_path / "exp"
    assert cli_main(["experiment", "--rounds", "1", "--matches", "1",
                     "--packages", packages, "--out", str(out_dir)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: experiment needs at least one rule package for the scripted sides\n"
    assert not out_dir.exists()
