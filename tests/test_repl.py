"""Script-debugging REPL: query loop, solution stepping, sim commands."""

import io

from rulebots.match.repl import Repl


def run_session(commands, packages=("baseline",)):
    out = io.StringIO()
    repl = Repl("warehouse", packages, seed=0, out=out)
    repl.run(io.StringIO("\n".join(commands) + "\n"))
    return out.getvalue()


def test_ground_query_answers_true_or_false():
    text = run_session(["game_phase(buy).", "game_phase(play).", ":quit"])
    assert "true." in text
    assert "false." in text


def test_solutions_step_with_semicolon():
    text = run_session(["team(B, ct)", ";", ";", ":quit"])
    assert "B = 0" in text
    assert "B = 1" in text
    assert "; for next, . to stop>" in text


def test_dot_stops_enumeration():
    text = run_session(["team(B, ct)", ".", ":quit"])
    assert text.count("B = ") == 1


def test_tick_and_state_commands():
    text = run_session([":tick 3", ":state", ":quit"])
    assert "tick 3, phase buy" in text
    assert "bot 0 [ct] alive" in text
    assert "hostage 0" in text
    assert "waiting" in text


def test_bad_input_reports_errors():
    long_run = "f(" + "1" * 5000 + ")."
    deep = "f(" * 1000 + "a" + ")" * 1000 + "."
    text = run_session(["pred(", ":frobnicate", ":tick zap", ":tick -3", "f(²).", long_run, deep,
                        "game_phase(buy).", ":quit"])
    assert "error:" in text
    assert "unknown command" in text
    assert "bad tick count: 'zap'" in text
    assert "bad tick count: '-3'" in text
    assert ", phase " not in text  # no `tick N, phase P` report: no tick was stepped
    assert "unexpected character" in text
    assert "integer literal out of 64-bit range" in text
    assert "true." in text.split("integer literal out of 64-bit range")[1]
    assert "error: term nested too deep at line 1" in text
    assert "true." in text.split("term nested too deep")[1]


def test_queries_see_scripted_rules():
    # the baseline package is consulted into bot 0's mind
    text = run_session(["slot_pref(0, T)", ".", ":quit"], packages=("baseline", "cs_rules", "warehouse_tactics"))
    assert "T = rush" in text


def test_tick_past_round_end_reports_the_outcome():
    text = run_session([":tick 1000", ":tick", ":quit"])
    assert text.count("round over: ") == 2
    assert "wins by" in text
