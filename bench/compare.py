"""Compare the benchmark between a base revision and this checkout.

    python3 bench/compare.py --base REV --tag NAME

Run it from anywhere inside a source checkout; standard library only.
The base revision is exported with ``git archive`` into a temporary
directory, which is removed afterwards, so nothing is left registered in
the repository.  The change is this checkout's working tree.

0. ``perfbench/`` and ``BENCHMARK.json`` must be the same on both sides,
   or nothing is written: a gain measured with an edited benchmark is a
   benchmark edit, not a gain.
1. Both sides play the six reference pairings (native, scripted
   ``baseline`` and the full stack, on ``warehouse`` and ``airplane``, 12
   rounds at seed 1).  Their trace files, which carry every event and
   each round's digest, must be byte-identical, or nothing is written:
   timings of two programs that behave differently are not compared.
2. Each side's ``perfbench/reference.py`` measures the mean CPU time per
   tick of the six pairings at seed 0 over 12 rounds, in a process of
   its own, three times with the sides alternated; the median of each
   pairing is kept, and each scripted pairing's ratio to native on its
   map, the paper's known extra cost, goes beside it.
3. For each workload of ``BENCHMARK.json``, pairs 1 to 10 run
   ``perfbench/run.py`` for the benchmark's run length, at the pair's
   number as the seed, on both sides: base first on odd pairs, change
   first on even ones.
4. Each side makes three traced runs per workload at seed 1, the sides
   alternated, and keeps the median of each per-layer metric: one traced
   run's timings are too noisy to show a layer's change.  Every per-layer
   metric of unit ``count`` whose medians differ between the sides is
   listed, and printed, as ``counts_differ``: a change meant to do the
   same work faster lists none.
5. ``bench/BENCH_<tag>.json`` gets, per workload and end-to-end metric,
   every pair's values, both medians, the base's quartiles, the change's
   win count and whether the gain holds: at least nine wins in ten, and a
   median gain larger than the base's interquartile range.  The traced
   runs' per-layer metrics go beside them.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FULL_STACK = "scripted:baseline,cs_rules,warehouse_tactics"
PAIRINGS = [
    (map_name, controller)
    for map_name in ("warehouse", "airplane")
    for controller in ("native", "scripted:baseline", FULL_STACK)
]
SEEDS = range(1, 11)
REPEATS = 3  # runs per side of each traced workload and of the cost per tick
BENCHMARK = ("perfbench", "BENCHMARK.json")
# Prints {map: {pairing: mean ms per tick}} from perfbench/reference.py.
COST_PER_TICK = (
    "import json, sys\n"
    "sys.path.insert(0, 'perfbench')\n"
    "from reference import PAIRINGS, per_tick\n"
    "print(json.dumps({m: {label: per_tick(m, side)[1] for label, side in PAIRINGS.items()}\n"
    "                  for m in ('warehouse', 'airplane')}))\n"
)


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    """Paired runs of one metric: medians, the parent's quartiles, wins, the verdict.

    A pair is won when the change reads strictly better; ties count for
    neither side.  The gain holds when the change wins at least nine
    tenths of the pairs and its median beats the parent's by more than
    the parent's interquartile range.
    """
    sign = 1 if better == "higher" else -1
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    parent_median, change_median = statistics.median(parent), statistics.median(change)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    return {
        "parent": parent,
        "change": change,
        "parent_median": parent_median,
        "change_median": change_median,
        "parent_quartiles": [q1, q3],
        "wins": wins,
        "pairs": len(parent),
        "gain_holds": 10 * wins >= 9 * len(parent)
        and sign * (change_median - parent_median) > q3 - q1,
    }


def counts_differ(per_layer: list[dict], traced: dict[str, dict]) -> list[str]:
    """The per-layer count metrics whose traced medians differ between the sides."""
    return [m["name"] for m in per_layer if m["unit"] == "count"
            and traced["parent"].get(m["name"]) != traced["change"].get(m["name"])]


def extra_cost(means: dict[str, dict[str, float]]) -> dict:
    """Each pairing's mean ms per tick on each map, and each scripted
    pairing's ratio to the native pairing on the same map."""
    return {
        map_name: {
            label: {"mean_ms": ms} if label == "native"
            else {"mean_ms": ms, "x_native": ms / row["native"]}
            for label, ms in row.items()
        }
        for map_name, row in means.items()
    }


def median_each(runs: list[dict]) -> dict:
    """The median of each number across runs of the same shape, dicts nested or not."""
    first = runs[0]
    return {
        k: median_each([r[k] for r in runs]) if isinstance(first[k], dict)
        else statistics.median(r[k] for r in runs)
        for k in first
    }


def _alternated(sides: dict[str, Path], measure) -> dict[str, list]:
    """``REPEATS`` results of ``measure(side)`` for each side; the sides take turns to go first."""
    results: dict[str, list] = {name: [] for name in sides}
    for r in range(REPEATS):
        for name in (list(sides) if r % 2 == 0 else list(sides)[::-1]):
            results[name].append(measure(sides[name]))
    return results


def _cost_per_tick(side: Path) -> dict:
    done = subprocess.run([sys.executable, "-c", COST_PER_TICK], cwd=side, check=True,
                          capture_output=True, text=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], check=True, capture_output=True, text=True
    ).stdout.strip()


def _benchmark_edits(rev: str) -> list[str]:
    """Paths of the benchmark that the working tree changes or adds against ``rev``."""
    changed = _git("diff", "--name-only", rev, "--", *BENCHMARK).splitlines()
    added = _git("ls-files", "--others", "--exclude-standard", "--", *BENCHMARK).splitlines()
    return changed + added


def _export(rev: str, dest: Path) -> None:
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev], check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest)


def _trace_hashes(side: Path, out: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(side / "src"))
    hashes = {}
    for map_name, controller in PAIRINGS:
        where = out / map_name / controller.replace(":", "-").replace(",", "+")
        subprocess.run(
            [sys.executable, "-m", "rulebots.match.cli", "run", "--map", map_name,
             "--rounds", "12", "--seed", "1", "--ct", controller, "--t", controller,
             "--out", str(where)],
            cwd=side, env=env, check=True, capture_output=True,
        )
        data = (where / "match0.trace").read_bytes()
        hashes[f"{map_name} {controller}"] = hashlib.sha256(data).hexdigest()
    return hashes


def _bench(side: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` run; a traced run plays a fixed amount of work and ignores ``seconds``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=side, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"error: {' '.join(cmd)} in {side} exited {done.returncode}:\n"
                         f"{done.stdout}{done.stderr}")
    result = json.loads(lines[-1])
    return {
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--tag", required=True, help="names the output bench/BENCH_<tag>.json")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    base_rev = _git("rev-parse", args.base)
    edits = _benchmark_edits(base_rev)
    if edits:
        print(f"error: the benchmark differs from {args.base} in: {', '.join(edits)}; "
              "nothing written", file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    dirty = " + working tree" if _git("status", "--porcelain") else ""
    report = {
        "base": base_rev,
        "change": _git("rev-parse", "HEAD") + dirty,
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version()},
        "seconds": seconds,
        "seeds": list(SEEDS),
    }
    tmp = Path(tempfile.mkdtemp(prefix="rulebots-compare-"))
    try:
        base = tmp / "base"
        _export(base_rev, base)
        sides = {"parent": base, "change": ROOT}
        hashes = {name: _trace_hashes(side, tmp / "traces" / name) for name, side in sides.items()}
        if hashes["parent"] != hashes["change"]:
            differ = [k for k in hashes["parent"] if hashes["parent"][k] != hashes["change"].get(k)]
            print(f"error: traces differ from {args.base} on: {', '.join(differ)}; nothing written",
                  file=sys.stderr)
            return 1
        report["trace_sha256"] = hashes["change"]
        costs = _alternated(sides, _cost_per_tick)
        report["cost_per_tick"] = {name: extra_cost(median_each(c)) for name, c in costs.items()}
        report["workloads"] = {}
        for workload in (w["name"] for w in spec["workloads"]):
            runs = {"parent": [], "change": []}
            for seed in SEEDS:
                order = ("parent", "change") if seed % 2 else ("change", "parent")
                for name in order:
                    runs[name].append(_bench(sides[name], workload, seed, seconds, 0))
                print(f"{workload} pair {seed}/{len(SEEDS)}: "
                      + ", ".join(f"{n} {runs[n][-1]['metrics']['rate_per_s']:.1f}/s" for n in order),
                      file=sys.stderr)
            # a traced run ignores the run length; 1 is a placeholder
            traced = {n: median_each(t) for n, t in _alternated(
                sides, lambda side: _bench(side, workload, 1, 1, 1)["metrics"]).items()}
            differ = counts_differ(spec["per_layer"], traced)
            print(f"{workload} counts differ: {', '.join(differ) or 'none'}", file=sys.stderr)
            report["workloads"][workload] = {
                "attempted": {n: [r["attempted"] for r in runs[n]] for n in runs},
                "failed": {n: [r["failed"] for r in runs[n]] for n in runs},
                "end_to_end": {
                    m["name"]: summarize([r["metrics"][m["name"]] for r in runs["parent"]],
                                         [r["metrics"][m["name"]] for r in runs["change"]],
                                         m["better"])
                    for m in spec["end_to_end"]
                },
                "traced_seed_1": traced,
                "counts_differ": differ,
            }
    finally:
        shutil.rmtree(tmp)
    out = ROOT / "bench" / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
