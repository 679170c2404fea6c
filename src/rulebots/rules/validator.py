"""Static checks over a rule package stack.

Catches the mistakes that otherwise surface mid-match: calls to
predicates nobody defines, calls at the wrong arity, clauses and dynamic
declarations a mind's store refuses, and asserts to predicates never
declared dynamic.  All but the last are errors; the last is a warning
because asserting before calling still works.
"""

from __future__ import annotations

from collections import Counter

from rulebots.logic.terms import functor_key
from rulebots.logic.database import BUILTINS, compile_program
from rulebots.logic.errors import NotPermittedError, TermTypeError
from rulebots.logic.reader import split_clause
from rulebots.agents.actions import ACTION_NATIVES, LAUNCHERS, option_goals
from rulebots.agents.minds import RUNTIME_PRELUDE, stack_template
from rulebots.agents.perception import PERCEPTION_NATIVES
from rulebots.rules.manifest import LEVELS, RulePackage

# What every mind defines before any package: its natives and the prelude.
NATIVE_SIGNATURES = frozenset(
    [*ACTION_NATIVES, *PERCEPTION_NATIVES, *(t.key for t in compile_program(RUNTIME_PRELUDE))]
)

# A mind's store before any package, its natives bound to nothing, so the
# store's own `check_writable` refuses what a mind would.
_MIND_STORE = stack_template(())


def _run(*positions):
    return lambda args: [args[i] for i in positions]


def _options(args):
    """The goals of a launcher's options term, its last argument."""
    return [goal for goal in option_goals(args[-1]) if goal is not None]


# Each construct that runs some of its arguments as goals, to those
# arguments: every control construct but `!`, the prelude's `and/2`, and
# each action launcher at the arity that takes options.
GOAL_ARGS = {
    (",", 2): _run(0, 1), (";", 2): _run(0, 1), ("->", 2): _run(0, 1),
    ("\\+", 1): _run(0), ("call", 1): _run(0), ("findall", 3): _run(1),
    ("and", 2): _run(0, 1),
    **{(f"action_{kind}", 2 + len(checks)): _options for kind, (checks, opts) in LAUNCHERS.items() if opts},
}
_CLAUSE_REFS = {("assert", 1), ("asserta", 1), ("assertz", 1), ("retract", 1)}


def _walk(clauses, called: set, asserted: set, faults: list) -> None:
    """Add the keys the clauses' bodies call, the heads they assert or
    retract, and the message of each options term a launcher refuses."""
    stack = [clause.source_body for clause in clauses]
    while stack:
        goal = stack.pop()
        key = functor_key(goal)
        goals_of = GOAL_ARGS.get(key)
        if goals_of is not None:
            try:
                stack.extend(goals_of(goal.args))
            except TermTypeError as exc:
                faults.append(str(exc))
        elif key in _CLAUSE_REFS:
            head_key = functor_key(split_clause(goal.args[0])[0])
            if head_key is not None:
                asserted.add(head_key)
        elif key is not None:
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
    counts = Counter(p.name for p in packages)
    errors.extend(f"package {name} is listed more than once" for name, n in counts.items() if n > 1)

    defined: dict[tuple[str, int], str] = {}
    dynamics: set = set()
    parsed: list[tuple] = []  # each package's clauses, () if it does not parse
    for pkg in packages:
        dynamics.update(pkg.dynamics)
        try:
            clauses = compile_program(pkg.text)
        except Exception as exc:
            errors.append(f"package {pkg.name}: {exc}")
            parsed.append(())
            continue
        parsed.append(clauses)
        for clause in clauses:
            defined.setdefault(clause.key, pkg.name)
        try:
            for key in pkg.dynamics:
                _MIND_STORE.check_writable(key, "declare dynamic")
            for clause in clauses:
                _MIND_STORE.check_writable(clause.key, "define")
        except NotPermittedError as exc:
            errors.append(f"package {pkg.name}: {exc}")

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

    for pkg, clauses in zip(packages, parsed):
        called: set = set()
        asserted: set = set()
        faults: list = []
        _walk(clauses, called, asserted, faults)
        errors.extend(f"package {pkg.name}: {fault}" for fault in faults)
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
