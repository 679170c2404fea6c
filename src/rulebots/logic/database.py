"""Clause store with a logical update view.

Every clause carries a birth generation and an optional death generation.
A resolution stream captures the store's generation when it starts and
only ever sees clauses alive at that point, so asserts and retracts made
while a stream is open never change what that stream yields.

The store counts its open streams.  A dead clause stays in its list while
any stream is open, since that stream's snapshot may still see it; once
the last one closes, no later snapshot can, and every predicate that lost
a clause meanwhile has its list rebuilt without the dead ones.  Clause
lists are copy-on-write apart from `append`: a rebuild or an `asserta`
makes a new list, so an enumeration already running keeps the list it
started on, and a clause appended after its snapshot is skipped as unborn.

A clause is compiled once into an immutable `ClauseTemplate`, and a
program text once per process, so stores that consult the same text
share its templates; a `StoredClause` adds only its store's lifetime.
"""

from __future__ import annotations

import functools

from rulebots.logic.errors import NotPermittedError, TermTypeError
from rulebots.logic.reader import read_program
from rulebots.logic.terms import TRUE, Atom, Struct, Term, Var, functor_key

# Control constructs and builtins, keyed by (name, arity).  The solver
# fills this table when it is imported, and `rulebots.logic` imports the
# solver before any store is used or any clause compiled.  These names
# are owned by the solver: they can be neither defined by clauses nor
# shadowed by natives.
BUILTINS: dict[tuple[str, int], object] = {}


class ClauseTemplate:
    """A clause compiled once, shared by every store that holds it.

    Each variable becomes a frame slot: a plain int counting from 0 in
    first-occurrence order, head first.  A compound holding slots becomes
    a (name, args) tuple; a ground subterm is the parsed term itself,
    shared and never copied.  `head` holds the head's argument patterns,
    `body` the whole body, and `goals` the body split along the right
    spine of ','/2, empty for a fact (a body of plain `true`).  Each goal
    whose functor is known here is `(argument patterns, (name, arity),
    opcode)`, the opcode its `BUILTINS` entry or None, so a call finds
    both without building a key; a variable goal stays its slot and an
    integer goal itself, both checked when called.
    `plain` says the head's arguments are distinct variables, so its
    patterns are the slots `0..n-1` and a goal's arguments can start the
    frame as they are, followed by `pad`.  `source_body` keeps the parsed
    body for static checks.
    """

    __slots__ = ("key", "head", "body", "goals", "slots", "plain", "pad", "source_body")

    def __init__(self, head: Term, body: Term):
        slots: dict[int, int] = {}
        self.key = functor_key(head)
        self.source_body = body
        self.head = tuple(_pattern(a, slots) for a in head.args) if type(head) is Struct else ()
        self.body = _pattern(body, slots)
        goals = []
        while type(body) is Struct and body.name == "," and len(body.args) == 2:
            goals.append(_goal(body.args[0], slots))
            body = body.args[1]
        if goals or body != TRUE:
            goals.append(_goal(body, slots))
        self.goals = tuple(goals)
        self.slots = len(slots)
        self.plain = self.head == tuple(range(len(self.head)))
        self.pad = (None,) * (self.slots - len(self.head))


def _pattern(t: Term, slots: dict[int, int]):
    """A term as a template: slot numbers for variables, ground parts shared.

    A variable or an atomic term, such as each argument of an asserted
    `val(K, V)` fact, converts at once.  A compound is walked over an
    explicit stack, variables numbered in first-occurrence order, so a
    long list needs no interpreter stack.
    """
    k = type(t)
    if k is Var:
        slot = slots.get(t.id)
        if slot is None:
            slot = slots[t.id] = len(slots)
        return slot
    if k is not Struct:
        return t
    done: list = []
    todo: list = [t]
    while todo:
        x = todo.pop()
        k = type(x)
        if k is tuple:  # (compound, where its argument patterns start in `done`)
            x, start = x
            args = tuple(done[start:])
            del done[start:]
            done.append(x if all(p is a for p, a in zip(args, x.args)) else (x.name, args))
        elif k is Struct:
            todo.append((x, len(done)))
            todo.extend(reversed(x.args))
        else:
            done.append(_pattern(x, slots))
    return done[0]


def _goal(t: Term, slots: dict[int, int]):
    """A body goal's pattern, with its key and opcode when its functor is known."""
    p = _pattern(t, slots)
    k = type(p)
    if k is tuple:
        name, args = p
    elif k is Struct:
        name, args = p.name, p.args
    elif k is Atom:
        name, args = p.name, ()
    else:
        return p
    key = (name, len(args))
    return args, key, BUILTINS.get(key)


# A match consults four texts (the prelude and up to three packages) into
# every mind, and the package validator reads the same compilations; the
# bound only keeps hosts that consult many one-off texts, such as the REPL,
# from growing the cache without limit.
@functools.lru_cache(maxsize=32)
def compile_program(text: str) -> tuple[ClauseTemplate, ...]:
    """Parse and compile a program text; repeated texts share one compilation."""
    return tuple(ClauseTemplate(head, body) for head, body in read_program(text))


class StoredClause:
    """One store's copy of a clause: its lifetime plus the shared template."""

    __slots__ = ("template", "birth", "death")

    def __init__(self, template: ClauseTemplate, birth: int):
        self.template = template
        self.birth = birth
        self.death: int | None = None

    def alive_at(self, generation: int) -> bool:
        return self.birth <= generation and (self.death is None or self.death > generation)


class _Predicate:
    __slots__ = ("clauses",)

    def __init__(self):
        self.clauses: list[StoredClause] = []

    def drop_dead(self):
        self.clauses = [c for c in self.clauses if c.death is None]


class NativePredicate:
    __slots__ = ("handler", "nondet")

    def __init__(self, handler, nondet: bool):
        self.handler = handler
        self.nondet = nondet


class KnowledgeBase:
    """Predicate table: stored clauses, dynamic declarations and natives.

    `natives` maps each registered native's key to it; the solver reads it
    on every call, and only `register_native` writes it.
    """

    def __init__(self):
        self._preds: dict[tuple[str, int], _Predicate] = {}
        self.natives: dict[tuple[str, int], NativePredicate] = {}
        self.generation = 0
        self._open_streams = 0
        self._dirty: set[_Predicate] = set()

    # -- interning ---------------------------------------------------------

    def lookup(self, key: tuple[str, int]) -> _Predicate | None:
        return self._preds.get(key)

    # -- updates -----------------------------------------------------------

    def _bump(self) -> int:
        self.generation += 1
        return self.generation

    def open_stream(self):
        self._open_streams += 1

    def close_stream(self):
        self._open_streams -= 1
        if not self._open_streams and self._dirty:
            for pred in self._dirty:
                pred.drop_dead()
            self._dirty.clear()

    def _lost_clauses(self, pred: _Predicate):
        """Free `pred`'s dead clauses now, or when the last open stream closes."""
        if self._open_streams:
            self._dirty.add(pred)
        else:
            pred.drop_dead()

    def check_writable(self, key: tuple[str, int], what: str):
        if key in BUILTINS:
            raise NotPermittedError(f"cannot {what} reserved predicate {key[0]}/{key[1]}")
        if key in self.natives:
            raise NotPermittedError(f"cannot {what} native predicate {key[0]}/{key[1]}")

    def add_clause(self, head: Term, body: Term, front: bool = False) -> StoredClause:
        key = functor_key(head)
        if key is None:
            raise TermTypeError("callable clause head", head)
        self.check_writable(key, "define")
        return self._store(ClauseTemplate(head, body), front)

    def _store(self, template: ClauseTemplate, front: bool) -> StoredClause:
        pred = self._preds.get(template.key)
        if pred is None:
            pred = _Predicate()
            self._preds[template.key] = pred
        clause = StoredClause(template, self._bump())
        if front:
            pred.clauses = [clause, *pred.clauses]
        else:
            pred.clauses.append(clause)
        return clause

    def kill_clause(self, clause: StoredClause):
        clause.death = self._bump()
        self._lost_clauses(self._preds[clause.template.key])

    def declare_dynamic(self, name: str, arity: int):
        key = (name, arity)
        self.check_writable(key, "declare dynamic")
        if key not in self._preds:
            self._preds[key] = _Predicate()

    def register_native(self, name: str, arity: int, handler, nondet: bool = False):
        key = (name, arity)
        if key in BUILTINS:
            raise NotPermittedError(f"cannot register native over reserved {name}/{arity}")
        if key in self.natives:
            raise NotPermittedError(f"native {name}/{arity} already registered")
        if key in self._preds and any(c.death is None for c in self._preds[key].clauses):
            raise NotPermittedError(f"cannot register native over defined predicate {name}/{arity}")
        self.natives[key] = NativePredicate(handler, nondet)

    # -- loading -----------------------------------------------------------

    def consult(self, text: str) -> list[StoredClause]:
        """Add a program's clauses.  Parsing and the permission checks come
        first, so an error leaves the store untouched.  Each distinct text
        is parsed and compiled once per process; every store that consults
        it shares the compiled templates."""
        templates = compile_program(text)
        for template in templates:
            self.check_writable(template.key, "define")
        return [self._store(template, False) for template in templates]

    def retract_all(self, name: str, arity: int):
        """Kill every live clause of a predicate (keeps the declaration)."""
        pred = self._preds.get((name, arity))
        if pred is None:
            return
        for c in pred.clauses:
            if c.death is None:
                c.death = self._bump()
        self._lost_clauses(pred)
