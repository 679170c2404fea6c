"""The compare script's summary of paired benchmark runs, on fixed numbers."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_compare", Path(__file__).resolve().parent.parent / "bench" / "compare.py"
)
compare = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare)


def test_summary_of_a_clear_gain():
    parent = [10.0, 11.0, 12.0, 13.0, 14.0, 10.0, 11.0, 12.0, 13.0, 14.0]
    change = [p + 5.0 for p in parent]
    s = compare.summarize(parent, change, "higher")
    assert s["parent"] == parent and s["change"] == change
    assert s["parent_median"] == 12.0 and s["change_median"] == 17.0
    assert s["parent_quartiles"] == [11.0, 13.0]
    assert (s["wins"], s["pairs"]) == (10, 10)
    assert s["gain_holds"]


def test_lower_is_better_and_ties_count_for_neither():
    parent = [2.0, 2.0, 3.0, 4.0]
    change = [1.0, 2.0, 3.5, 3.0]
    s = compare.summarize(parent, change, "lower")
    assert s["wins"] == 2
    assert s["parent_quartiles"] == [2.0, 3.25]
    assert s["change_median"] == 2.5
    assert not s["gain_holds"]


@pytest.mark.parametrize(
    ("change", "why"),
    [
        # every pair won, but the median gain of 1 is inside the IQR of 2
        ([11.0, 12.0, 13.0, 14.0, 15.0, 11.0, 12.0, 13.0, 14.0, 15.0], "spread"),
        # a large median gain, but only 8 of 10 pairs won
        ([20.0, 20.0, 20.0, 20.0, 20.0, 20.0, 20.0, 20.0, 5.0, 5.0], "wins"),
    ],
)
def test_gain_needs_nine_wins_in_ten_and_more_than_the_parent_spread(change, why):
    parent = [10.0, 11.0, 12.0, 13.0, 14.0, 10.0, 11.0, 12.0, 13.0, 14.0]
    s = compare.summarize(parent, change, "higher")
    assert not s["gain_holds"], why


def test_extra_cost_is_each_scripted_pairing_over_native_on_its_map():
    means = {
        "warehouse": {"native": 0.5, "scripted:baseline": 1.0, "scripted:full": 1.5},
        "airplane": {"native": 0.25, "scripted:baseline": 0.375, "scripted:full": 0.625},
    }
    assert compare.extra_cost(means) == {
        "warehouse": {
            "native": {"mean_ms": 0.5},
            "scripted:baseline": {"mean_ms": 1.0, "x_native": 2.0},
            "scripted:full": {"mean_ms": 1.5, "x_native": 3.0},
        },
        "airplane": {
            "native": {"mean_ms": 0.25},
            "scripted:baseline": {"mean_ms": 0.375, "x_native": 1.5},
            "scripted:full": {"mean_ms": 0.625, "x_native": 2.5},
        },
    }


def test_counts_differ_lists_only_count_metrics_whose_medians_differ():
    per_layer = [
        {"name": "lookup_calls", "unit": "count"},
        {"name": "clause_tries", "unit": "count"},
        {"name": "asserts", "unit": "count"},
        {"name": "lookup_ms", "unit": "ms"},
        {"name": "visible_ratio", "unit": "ratio"},
    ]
    traced = {
        "parent": {"lookup_calls": 38087, "clause_tries": 56135, "asserts": 0,
                   "lookup_ms": 1.5, "visible_ratio": 0.5},
        "change": {"lookup_calls": 38087, "clause_tries": 56136, "asserts": 0,
                   "lookup_ms": 1.25, "visible_ratio": 0.75},
    }
    assert compare.counts_differ(per_layer, traced) == ["clause_tries"]
    traced["change"]["clause_tries"] = 56135
    assert compare.counts_differ(per_layer, traced) == []
    # a count one side does not report at all differs
    del traced["change"]["asserts"]
    assert compare.counts_differ(per_layer, traced) == ["asserts"]


def test_median_each_takes_every_number_across_runs():
    runs = [
        {"rate": 3.0, "warehouse": {"native": 0.5, "scripted:full": 1.25}},
        {"rate": 1.0, "warehouse": {"native": 0.75, "scripted:full": 1.0}},
        {"rate": 2.0, "warehouse": {"native": 0.25, "scripted:full": 2.0}},
    ]
    assert compare.median_each(runs) == {
        "rate": 2.0,
        "warehouse": {"native": 0.5, "scripted:full": 1.25},
    }


def test_refuses_to_compare_across_a_benchmark_edit(tmp_path, monkeypatch, capsys):
    def git(*args):
        subprocess.run(["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@t",
                        *args], check=True, capture_output=True)

    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text("old\n")
    (tmp_path / "BENCHMARK.json").write_text("{}\n")
    (tmp_path / "program.py").write_text("old\n")
    git("init", "-q")
    git("add", ".")
    git("commit", "-q", "-m", "base")
    monkeypatch.setattr(compare, "ROOT", tmp_path)
    (tmp_path / "program.py").write_text("new\n")
    assert compare._benchmark_edits("HEAD") == []

    (tmp_path / "perfbench" / "run.py").write_text("new\n")
    (tmp_path / "perfbench" / "extra.py").write_text("new\n")
    assert compare._benchmark_edits("HEAD") == ["perfbench/run.py", "perfbench/extra.py"]
    assert compare.main(["--base", "HEAD", "--tag", "t"]) == 1
    assert "perfbench/run.py, perfbench/extra.py; nothing written" in capsys.readouterr().err
    assert not (tmp_path / "bench").exists()
