"""Static checks over a rule package stack.

Catches the mistakes that otherwise surface mid-match: calls to
predicates nobody defines, calls at the wrong arity, and asserts to
predicates never declared dynamic.  The first two are errors, the last
is a warning because asserting before calling still works.
"""

from __future__ import annotations

from rulebots.logic.terms import Struct, Term, functor_key
from rulebots.logic.database import BUILTINS, compile_program
from rulebots.agents.actions import ACTION_NATIVES
from rulebots.agents.minds import RUNTIME_PRELUDE
from rulebots.agents.perception import PERCEPTION_NATIVES
from rulebots.rules.manifest import LEVELS, PackageError, RulePackage

# What every mind defines before any package: its natives and the prelude.
NATIVE_SIGNATURES = frozenset(
    [*ACTION_NATIVES, *PERCEPTION_NATIVES, *(t.key for t in compile_program(RUNTIME_PRELUDE))]
)

_CONTROL_BOTH = {(",", 2), (";", 2), ("->", 2)}
_CONTROL_ONE = {("\\+", 1), ("call", 1)}
_CLAUSE_REFS = {("assert", 1), ("asserta", 1), ("assertz", 1), ("retract", 1)}


def _walk_body(body: Term, called: set, asserted: set) -> None:
    key = functor_key(body)
    if key in _CONTROL_BOTH:
        _walk_body(body.args[0], called, asserted)
        _walk_body(body.args[1], called, asserted)
        return
    if key in _CONTROL_ONE:
        _walk_body(body.args[0], called, asserted)
        return
    if key == ("findall", 3):
        _walk_body(body.args[1], called, asserted)
        return
    if key in _CLAUSE_REFS:
        clause = body.args[0]
        head = clause
        if isinstance(clause, Struct) and clause.name == ":-" and len(clause.args) == 2:
            head = clause.args[0]
        head_key = functor_key(head)
        if head_key is not None:
            asserted.add(head_key)
        return
    if key is not None:
        called.add(key)


def validate_stack(packages: list[RulePackage]) -> tuple[list[str], list[str]]:
    """Return (errors, warnings) for the stack as a whole."""
    errors: list[str] = []
    warnings: list[str] = []

    if not packages:
        return (["stack is empty"], [])
    if packages[0].level != "game":
        errors.append(f"first package {packages[0].name} must be game level")
    if sum(1 for p in packages if p.level == "game") > 1:
        errors.append("stack has more than one game-level package")
    ranks = [LEVELS.index(p.level) for p in packages]
    if ranks != sorted(ranks):
        errors.append("package levels must be ordered game, map_type, map_specific")

    defined: dict[tuple[str, int], str] = {}
    dynamics: set = set()
    parsed: dict[str, tuple] = {}
    for pkg in packages:
        dynamics.update(pkg.dynamics)
        try:
            clauses = compile_program(pkg.text)
        except Exception as exc:
            errors.append(f"package {pkg.name}: {exc}")
            continue
        parsed[pkg.name] = clauses
        for clause in clauses:
            defined.setdefault(clause.key, pkg.name)

    for pkg in packages:
        for entry in pkg.entries:
            if entry not in defined and entry not in dynamics:
                errors.append(
                    f"package {pkg.name}: entry {entry[0]}/{entry[1]} is not defined"
                )
        if pkg.level == "game" and ("do_reasoning", 1) not in pkg.entries:
            errors.append(f"game package {pkg.name} must declare entry do_reasoning/1")

    known = set(defined) | dynamics | BUILTINS.keys() | NATIVE_SIGNATURES
    names_known = {name for name, _ in known}

    for pkg in packages:
        called: set = set()
        asserted: set = set()
        for clause in parsed.get(pkg.name, ()):
            _walk_body(clause.source_body, called, asserted)
        for key in sorted(called):
            if key in known:
                continue
            name, arity = key
            if name in names_known:
                other = sorted(a for n, a in known if n == name)
                errors.append(
                    f"package {pkg.name}: {name}/{arity} called but {name} "
                    f"exists with arity {', '.join(map(str, other))}"
                )
            else:
                errors.append(f"package {pkg.name}: call to undefined {name}/{arity}")
        for key in sorted(asserted):
            if key not in dynamics:
                warnings.append(
                    f"package {pkg.name}: asserts {key[0]}/{key[1]} which is not "
                    "declared dynamic"
                )

    return (errors, warnings)
