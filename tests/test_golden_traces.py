"""Trace files of the six reference pairings, pinned by their sha256.

A trace holds every world event and each round's state digest, so any
change of behaviour changes its hash.  A change that means to alter
behaviour updates these hashes and says why; any other change keeps them.
A mixed match must also write the same trace under any hash seed.
The parse of every bundled program is pinned the same way, so a clause
that no pairing reaches is still covered.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rulebots.agents.minds import RUNTIME_PRELUDE
from rulebots.logic import read_program, term_str
from rulebots.match import cli
from rulebots.rules import load_package

FULL_STACK = "scripted:baseline,cs_rules,warehouse_tactics"

GOLDEN = {
    ("warehouse", "native"): "2c450d82e94cde1b0a99cb67cf839ec8ef66efed42f105396780fed19e29cd25",
    ("warehouse", "scripted:baseline"): "870a17529014da63767c4a74904f8fe6bd8ecc56b01843a67f2a51997d7b485f",
    ("warehouse", FULL_STACK): "062e08a45cb324268f3960db8b7ba76ff8db14839e9c8e04c9a63a8b69064d4d",
    ("airplane", "native"): "31d5db04eb40f6a3699da42e71ec49337169d920e1edb43f0d2cb13b17eba2c5",
    ("airplane", "scripted:baseline"): "5ee39ca1412e4f281bec002a2c7f31abeb611070d3b0826c9582788df8d3666b",
    ("airplane", FULL_STACK): "2edbb598019a474eb80969ec891153f1388b9db486ac6e426de11bd25996c3ad",
}

# sha256 of "head :- body" per clause, over the prelude and the bundled packages.
GOLDEN_PARSE = "97c36b8ce49a47b5ccce32ca3317adf8c1685c251e93fe9a658981f3cd528d62"
BUNDLED_PACKAGES = ("baseline", "cs_rules", "warehouse_tactics")


@pytest.mark.parametrize(("map_name", "controller"), sorted(GOLDEN))
def test_trace_matches_golden_hash(tmp_path, map_name, controller):
    argv = ["run", "--map", map_name, "--rounds", "12", "--seed", "1",
            "--ct", controller, "--t", controller, "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    digest = hashlib.sha256((tmp_path / "match0.trace").read_bytes()).hexdigest()
    assert digest == GOLDEN[(map_name, controller)]


def test_trace_does_not_depend_on_hash_seed(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    traces = []
    for hash_seed in ("0", "1"):
        out = tmp_path / hash_seed
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(src))
        subprocess.run(
            [sys.executable, "-m", "rulebots.match.cli", "run", "--map", "airplane",
             "--rounds", "12", "--seed", "1", "--ct", FULL_STACK, "--t", "native",
             "--out", str(out)],
            env=env, check=True, capture_output=True, timeout=120,
        )
        traces.append((out / "match0.trace").read_bytes())
    assert traces[0] == traces[1]


def test_bundled_programs_parse_to_pinned_clauses():
    texts = [RUNTIME_PRELUDE, *(load_package(name).text for name in BUNDLED_PACKAGES)]
    clauses = [clause for text in texts for clause in read_program(text)]
    lines = "".join(f"{term_str(head)} :- {term_str(body)}\n" for head, body in clauses)
    assert len(clauses) == 60
    assert hashlib.sha256(lines.encode()).hexdigest() == GOLDEN_PARSE
