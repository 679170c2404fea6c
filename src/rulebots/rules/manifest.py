"""Rule package manifests.

A package is a rule file plus a small `.mf` manifest naming it, placing
it on a layer (game, map_type, map_specific), listing its entry points
and declaring its dynamic predicates.  Stacks load most general first;
later layers refine earlier ones only through declared hook predicates.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from importlib import resources

LEVELS = ("game", "map_type", "map_specific")
_ASSETS = resources.files("rulebots") / "rules" / "assets"


class PackageError(Exception):
    pass


@dataclass(frozen=True)
class RulePackage:
    name: str
    level: str
    text: str
    entries: tuple[tuple[str, int], ...]
    dynamics: tuple[tuple[str, int], ...]


def _parse_indicator(token: str, where: str) -> tuple[str, int]:
    name, sep, arity = token.rpartition("/")
    if not sep or not name:
        raise PackageError(f"{where}: expected name/arity, got {token!r}")
    try:
        n = int(arity)
    except ValueError:
        raise PackageError(f"{where}: bad arity in {token!r}") from None
    if n < 0:
        raise PackageError(f"{where}: negative arity in {token!r}")
    return (name, n)


def parse_manifest(text: str, read_rule_file) -> RulePackage:
    """Build a package from manifest text; `read_rule_file(relpath)` must
    return the referenced rule source."""
    name = None
    level = None
    rule_text = None
    entries: list[tuple[str, int]] = []
    dynamics: list[tuple[str, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"manifest line {lineno}"
        parts = line.split(None, 1)
        if len(parts) != 2:
            raise PackageError(f"{where}: expected '<key> <value>'")
        key, value = parts[0], parts[1].strip()
        if key == "package":
            name = value
        elif key == "level":
            if value not in LEVELS:
                raise PackageError(f"{where}: unknown level {value!r}")
            level = value
        elif key == "file":
            rule_text = read_rule_file(value)
        elif key == "entry":
            entries.append(_parse_indicator(value, where))
        elif key == "dynamic":
            dynamics.append(_parse_indicator(value, where))
        else:
            raise PackageError(f"{where}: unknown key {key!r}")
    if name is None:
        raise PackageError("manifest has no package record")
    if level is None:
        raise PackageError(f"package {name}: manifest has no level record")
    if rule_text is None:
        raise PackageError(f"package {name}: manifest has no file record")
    return RulePackage(name, level, rule_text, tuple(entries), tuple(dynamics))


def load_package(spec: str) -> RulePackage:
    """Load a package from a `.mf` path or a bundled package name."""
    if os.path.exists(spec) or spec.endswith(".mf"):
        base = os.path.dirname(os.path.abspath(spec))
        with open(spec, "r", encoding="utf-8") as fh:
            text = fh.read()

        def read_rel(rel: str) -> str:
            with open(os.path.join(base, rel), "r", encoding="utf-8") as rf:
                return rf.read()

        return parse_manifest(text, read_rel)

    try:
        text = (_ASSETS / f"{spec}.mf").read_text(encoding="utf-8")
    except (FileNotFoundError, OSError):
        raise PackageError(f"no such package: {spec!r}") from None
    return parse_manifest(text, lambda rel: (_ASSETS / rel).read_text(encoding="utf-8"))


# Both sides of a match, and every match of an experiment, validate the
# same packages; the bound only keeps a host that loads many one-off
# stacks from growing the cache without limit.
@functools.lru_cache(maxsize=8)
def _stack_errors(packages: tuple[RulePackage, ...]) -> tuple[str, ...]:
    from rulebots.rules.validator import validate_stack

    return tuple(validate_stack(packages)[0])


def load_stack(specs) -> list[RulePackage]:
    """Load and validate an ordered package stack.

    The stack must start with exactly one game-level package and stay in
    non-decreasing level order.  Validation errors raise; warnings are
    dropped here (the validate command surfaces them).  Every file is read
    on each call; each distinct stack is validated once per process.
    """
    packages = [load_package(s) for s in specs]
    errors = _stack_errors(tuple(packages))
    if errors:
        raise PackageError("; ".join(errors))
    return packages
