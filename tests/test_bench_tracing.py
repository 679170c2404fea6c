"""The benchmark's traced-run instrumentation, on two one-round matches.

`perfbench/tracing.py` patches the program's classes and module bindings by
name, so a rename in the program breaks it; this plays it end to end.
"""

import importlib.util
import json
from pathlib import Path

from rulebots.agents import ACTION_NATIVE_SIGNATURES, minds
from rulebots.logic import Engine, KnowledgeBase
from rulebots.match import ControllerSpec, MatchConfig, run_match
from rulebots.match import match as match_module
from rulebots.sim import WorldState

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("bench_tracing", ROOT / "perfbench" / "tracing.py")
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)

FULL_STACK = ControllerSpec("scripted", ("baseline", "cs_rules", "warehouse_tactics"))


def test_tracing_measures_every_layer_and_restores_the_program():
    patched = [(minds.Mind, "tick_agent"), (WorldState, "step"),
               (KnowledgeBase, "register_native"), (Engine, "prove")]
    originals = [vars(owner)[name] for owner, name in patched]
    build_match = match_module.build_match
    tracer = tracing.Tracer()
    with tracing.Patcher() as patcher:
        tracing.install(tracer, patcher)
        results = [
            run_match(MatchConfig("warehouse", seed=1, rounds=1, ct=FULL_STACK, t=FULL_STACK)),
            run_match(MatchConfig("airplane", seed=1, rounds=1)),
        ]
    ticks = sum(r.outcome.tick for result in results for r in result.rounds)
    metrics = tracing.layer_metrics(tracer, ticks, tracer.span_calls("match.build_match"), 1.0)

    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert len(per_layer) == 51
    assert sorted(metrics) == sorted(m["name"] for m in per_layer)
    native_calls = metrics["agents.perception.native_calls"][0]
    assert native_calls > 0
    assert native_calls == sum(
        metrics[f"agents.perception.{name}_calls"][0] for name in tracing.PERCEPTION_NAMES
    )
    action_calls = metrics["agents.actions.native_calls"][0]
    assert action_calls > 0
    assert action_calls == sum(
        tracer.counts[f"agents.actions.{name}_calls"]
        for name in dict.fromkeys(n for n, _ in ACTION_NATIVE_SIGNATURES)
    )
    assert [vars(owner)[name] for owner, name in patched] == originals
    assert match_module.build_match is build_match
