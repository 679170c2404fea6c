"""A small reference interpreter of README's rules, the differential test's oracle.

It imports only the term classes, the reader and the errors.  A goal is a
recursive generator of substitutions, each a new dict; a clause is renamed
apart each time it is tried; backtracking into a cut raises `_Cut`, which the
clause, `call/1`, an if-then-else condition, `\\+` and `findall/3` stop.
Clauses keep birth and death generations and are never freed.  Terms and
proofs use Python's stack: this is for small programs.
"""

from rulebots.logic.errors import (BudgetExceededError, EvaluationError, ExistenceError,
                                   InstantiationError, NotPermittedError, TermTypeError)
from rulebots.logic.reader import read_program, split_clause
from rulebots.logic.terms import (INT_MAX, INT_MIN, Atom, Int, Struct, Var, collect_vars, fresh_var,
                                  functor_key, make_list)


class _Cut(Exception):
    """Resolution backtracked into a cut."""


def walk(t, s):
    while type(t) is Var and t.id in s:
        t = s[t.id]
    return t


def resolve(t, s, fresh=None, named=True):
    """`t` under `s`; with a `fresh` map, unbound variables renamed, keeping names if `named`."""
    t = walk(t, s)
    if type(t) is Struct:
        return Struct(t.name, tuple(resolve(a, s, fresh, named) for a in t.args))
    if type(t) is Var and fresh is not None:
        if t.id not in fresh:
            fresh[t.id] = fresh_var(t.name if named else None)
        return fresh[t.id]
    return t


def unify(xs, ys, s):
    """`s` extended to unify two tuples of terms, or None.  The tuples pair
    off first to last, a compound's arguments last to first.  Of two unbound
    variables the left one is bound to the right one."""
    todo = list(zip(xs, ys))[::-1]
    while todo:
        x, y = todo.pop()
        x, y = walk(x, s), walk(y, s)
        if type(y) is Var and type(x) is not Var:
            x, y = y, x
        if type(x) is Var:
            if x != y:
                if x in collect_vars(resolve(y, s)):  # the occurs check
                    return None
                s = {**s, x.id: y}
        elif type(x) is Struct and type(y) is Struct and functor_key(x) == functor_key(y):
            todo.extend(zip(x.args, y.args))
        elif x != y:
            return None
    return s


_ARITH = {
    ("+", 2): int.__add__, ("-", 2): int.__sub__, ("*", 2): int.__mul__,
    ("//", 2): int.__floordiv__, ("mod", 2): int.__mod__, ("min", 2): min,
    ("max", 2): max, ("-", 1): int.__neg__, ("abs", 1): abs,
}


def evaluate(t, s) -> int:
    """An integer expression's value, its operands evaluated left to right."""
    t = walk(t, s)
    if type(t) is Int:
        return t.value
    if type(t) is Var:
        raise InstantiationError("unbound variable in arithmetic expression")
    if type(t) is Atom:
        raise TermTypeError("arithmetic expression", t.name)
    values = [evaluate(a, s) for a in t.args] if len(t.args) <= 2 else None
    fn = _ARITH.get(functor_key(t))
    if fn is None:
        raise TermTypeError("arithmetic function", f"{t.name}/{len(t.args)}")
    try:
        v = fn(*values)
    except ZeroDivisionError:
        raise EvaluationError(("division" if t.name == "//" else "mod") + " by zero") from None
    if not INT_MIN <= v <= INT_MAX:
        raise EvaluationError("integer overflow (64-bit range)")
    return v


# Builtins that succeed at most once: (ref, args, substitution, depth) -> new substitution or None.
TESTS = {
    ("true", 0): lambda ref, a, s, d: s,
    ("fail", 0): lambda ref, a, s, d: None,
    ("=", 2): lambda ref, a, s, d: unify(a[:1], a[1:], s),
    ("\\=", 2): lambda ref, a, s, d: s if unify(a[:1], a[1:], s) is None else None,
    ("==", 2): lambda ref, a, s, d: s if resolve(a[0], s) == resolve(a[1], s) else None,
    ("\\==", 2): lambda ref, a, s, d: s if resolve(a[0], s) != resolve(a[1], s) else None,
    ("var", 1): lambda ref, a, s, d: s if type(walk(a[0], s)) is Var else None,
    ("is", 2): lambda ref, a, s, d: unify(a[:1], (Int(evaluate(a[1], s)),), s),
    **{(name, 2): lambda ref, a, s, d, op=op: s if op(evaluate(a[0], s), evaluate(a[1], s)) else None
       for name, op in [("<", int.__lt__), (">", int.__gt__), ("=<", int.__le__),
                        (">=", int.__ge__), ("=:=", int.__eq__), ("=\\=", int.__ne__)]},
    ("\\+", 1): lambda ref, a, s, d: s if next(ref.opaque(a[0], s, d + 1), None) is None else None,
    ("findall", 3): lambda ref, a, s, d: unify(
        a[2:], (make_list([resolve(a[0], s1, {}) for s1 in ref.opaque(a[1], s, d + 1)]),), s),
    ("assert", 1): lambda ref, a, s, d: ref.assert_clause(a[0], s, front=False),
    ("assertz", 1): lambda ref, a, s, d: ref.assert_clause(a[0], s, front=False),
    ("asserta", 1): lambda ref, a, s, d: ref.assert_clause(a[0], s, front=True),
    ("retract", 1): lambda ref, a, s, d: ref.retract(a[0], s),
}
CONTROL = {(",", 2), (";", 2), ("->", 2), ("!", 0), ("call", 1)}


class _Clause:
    """A stored clause: its head's arguments, then its body, in `parts`."""
    __slots__ = ("parts", "birth", "death")

    def __init__(self, head, body, birth: int):
        self.parts = (*getattr(head, "args", ()), body)
        self.parts = self.renamed()  # kept nameless, so its text names no query variable
        self.birth, self.death = birth, None

    def renamed(self):  # `parts` over new nameless variables
        fresh: dict = {}
        return tuple(resolve(t, {}, fresh, False) for t in self.parts)


class Reference:
    """A store of clauses and natives, and resolution over it."""

    def __init__(self, max_steps: int = 100_000, max_depth: int = 2_000):
        self.preds, self.natives = {}, {}  # (name, arity) to clauses, and to (handler, nondet)
        self.generation = self.steps = self.snap = 0
        self.max_steps, self.max_depth = max_steps, max_depth

    def check_writable(self, head, what: str):
        """`head`'s key, if clauses with that head may be stored or removed."""
        key = functor_key(head)
        if key is None:
            raise TermTypeError("callable clause head", head)
        if key in TESTS or key in CONTROL:
            raise NotPermittedError(f"cannot {what} reserved predicate {key[0]}/{key[1]}")
        return key

    def declare_dynamic(self, name: str, arity: int):
        self.preds.setdefault((name, arity), [])

    def register_native(self, name: str, arity: int, handler, nondet: bool = False):
        self.natives[(name, arity)] = (handler, nondet)

    def consult(self, text: str):
        for head, body in read_program(text):
            self.add(head, body)

    def add(self, head, body, front: bool = False):
        key = self.check_writable(head, "define")
        self.generation += 1
        clauses = self.preds.setdefault(key, [])
        clauses.insert(0 if front else len(clauses), _Clause(head, body, self.generation))

    def assert_clause(self, t, s, front: bool):
        t = walk(t, s)
        if type(t) is Var:
            raise InstantiationError("unbound variable in assert")
        self.add(*split_clause(resolve(t, s)), front=front)
        return s

    def retract(self, t, s):
        """Kill the first unifying clause of those live and born by the query's start."""
        t = walk(t, s)
        if type(t) is Var:
            raise InstantiationError("unbound variable in retract")
        head, body = split_clause(t)
        for clause in self.preds.get(self.check_writable(head, "retract from"), []):
            if clause.death is None and clause.birth <= self.snap:
                s1 = unify(clause.renamed(), (*getattr(head, "args", ()), body), s)
                if s1 is not None:
                    self.generation = clause.death = self.generation + 1
                    return s1

    def solve(self, goal, names: dict):
        """A query's answers, one {name: term} each; `steps` counts its steps."""
        self.steps, self.snap = 0, self.generation
        return ({n: resolve(v, s) for n, v in names.items()} for s in self.opaque(goal, {}, 0))

    def opaque(self, goal, s, depth):
        """`prove`, with a cut in `goal` kept inside it."""
        try:
            yield from self.prove(goal, s, depth)
        except _Cut:
            pass

    def prove(self, goal, s, depth):
        """Each substitution extending `s` that proves `goal`, entered as one step at `depth`."""
        self.steps += 1
        if self.steps > self.max_steps:
            raise BudgetExceededError(f"resolution step budget exceeded ({self.max_steps})")
        if depth > self.max_depth:
            raise BudgetExceededError(f"resolution depth limit exceeded ({self.max_depth})")
        goal = walk(goal, s)
        if type(goal) is Var:
            raise InstantiationError("unbound variable as goal")
        if type(goal) is Int:
            raise TermTypeError("callable goal", goal.value)
        key, args = functor_key(goal), getattr(goal, "args", ())
        if key == (",", 2):
            for s1 in self.prove(args[0], s, depth):
                yield from self.prove(args[1], s1, depth)
        elif key == (";", 2) and functor_key(walk(args[0], s)) != ("->", 2):
            yield from self.prove(args[0], s, depth)
            yield from self.prove(args[1], s, depth)
        elif key in ((";", 2), ("->", 2)):  # if-then-else, and if-then
            cond, then = getattr(walk(args[0], s), "args", ()) if key[0] == ";" else args
            s1 = next(self.opaque(cond, s, depth + 1), None)
            if s1 is not None:
                yield from self.prove(then, s1, depth)
            elif key[0] == ";":
                yield from self.prove(args[1], s, depth)
        elif key == ("!", 0):
            yield s
            raise _Cut
        elif key == ("call", 1):
            g = walk(args[0], s)
            if type(g) is Var:
                raise InstantiationError("unbound variable in call/1")
            if type(g) is Int:
                raise TermTypeError("callable goal", g.value)
            yield from self.opaque(g, s, depth + 1)
        elif key in TESTS:
            s = TESTS[key](self, args, s, depth)
            if s is not None:
                yield s
        elif key in self.natives:
            handler, nondet = self.natives[key]
            answers = handler(*[resolve(a, s) for a in args]) or []
            for answer in answers if nondet else answers[:1]:
                s1 = s if answer is None else unify(args, answer, s)
                if s1 is not None:
                    yield s1
        elif key in self.preds:
            visible = [c for c in self.preds[key]
                       if c.birth <= self.snap and (c.death is None or c.death > self.snap)]
            try:
                for clause in visible:
                    parts = clause.renamed()  # unify pairs the head's arguments only
                    s1 = unify(parts, args, s)
                    if s1 is not None:
                        yield from self.prove(parts[-1], s1, depth + 1)
            except _Cut:
                pass
        else:
            raise ExistenceError(*key)
