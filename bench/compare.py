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
2. For each workload of ``BENCHMARK.json``, pairs 1 to 10 run
   ``perfbench/run.py`` for the benchmark's run length, at the pair's
   number as the seed, on both sides: base first on odd pairs, change
   first on even ones.
3. Each side makes one traced run per workload at seed 1.
4. ``bench/BENCH_<tag>.json`` gets, per workload and end-to-end metric,
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
BENCHMARK = ("perfbench", "BENCHMARK.json")


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
            report["workloads"][workload] = {
                "attempted": {n: [r["attempted"] for r in runs[n]] for n in runs},
                "failed": {n: [r["failed"] for r in runs[n]] for n in runs},
                "end_to_end": {
                    m["name"]: summarize([r["metrics"][m["name"]] for r in runs["parent"]],
                                         [r["metrics"][m["name"]] for r in runs["change"]],
                                         m["better"])
                    for m in spec["end_to_end"]
                },
                # a traced run ignores the run length; 1 is a placeholder
                "traced_seed_1": {n: _bench(sides[n], workload, 1, 1, 1)["metrics"] for n in runs},
            }
    finally:
        shutil.rmtree(tmp)
    out = ROOT / "bench" / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
