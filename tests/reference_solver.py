"""The generator solver, kept as the oracle for the differential test.

This is the engine's resolution as it was before the choicepoint loop:
mutually recursive generators over a shared binding store with a trail,
one cut flag per clause activation.  It shares the clause store
(`database.KnowledgeBase`), the clause templates and the error types with
the engine, but owns its builtin table, so importing it changes nothing
the engine sees.  Keep it as it is: it is the accepted behaviour.
"""

from __future__ import annotations

import operator
import sys

from rulebots.logic.database import KnowledgeBase, NativePredicate
from rulebots.logic.errors import (
    BudgetExceededError,
    EvaluationError,
    ExistenceError,
    InstantiationError,
    TermTypeError,
)
from rulebots.logic.reader import read_term, split_clause
from rulebots.logic.terms import (
    INT_MAX,
    INT_MIN,
    Atom,
    Int,
    Struct,
    Term,
    Var,
    collect_vars,
    fresh_var,
    functor_key,
    make_list,
    term_str,
)

# The reference's own table: `database.BUILTINS` belongs to the solver under test.
BUILTINS: dict[tuple[str, int], tuple] = {}

DEFAULT_MAX_STEPS = 100_000
DEFAULT_MAX_DEPTH = 2_000


class _CutFlag:
    __slots__ = ("cut",)

    def __init__(self):
        self.cut = False


class _Machine:
    __slots__ = ("kb", "bind", "trail", "snap", "steps", "max_steps", "max_depth", "out")

    def __init__(self, kb: KnowledgeBase, max_steps: int, max_depth: int, out):
        self.kb = kb
        self.bind: dict[int, Term] = {}
        self.trail: list[int] = []
        self.snap = kb.generation
        self.steps = 0
        self.max_steps = max_steps
        self.max_depth = max_depth
        self.out = out

    # -- bindings ----------------------------------------------------------

    def deref(self, t: Term) -> Term:
        bind = self.bind
        while type(t) is Var:
            nxt = bind.get(t.id)
            if nxt is None:
                return t
            t = nxt
        return t

    def undo(self, mark: int):
        trail = self.trail
        bind = self.bind
        while len(trail) > mark:
            del bind[trail.pop()]

    def _occurs(self, vid: int, t: Term) -> bool:
        stack = [t]
        while stack:
            x = self.deref(stack.pop())
            k = type(x)
            if k is Var:
                if x.id == vid:
                    return True
            elif k is Struct:
                stack.extend(x.args)
        return False

    def unify(self, a: Term, b: Term) -> bool:
        stack = [(a, b)]
        bind = self.bind
        trail = self.trail
        while stack:
            x, y = stack.pop()
            x = self.deref(x)
            y = self.deref(y)
            if x is y:
                continue
            kx = type(x)
            ky = type(y)
            if kx is Var:
                if ky is Var:
                    if x.id == y.id:
                        continue
                    bind[x.id] = y
                    trail.append(x.id)
                elif self._occurs(x.id, y):
                    return False
                else:
                    bind[x.id] = y
                    trail.append(x.id)
            elif ky is Var:
                if self._occurs(y.id, x):
                    return False
                bind[y.id] = x
                trail.append(y.id)
            elif kx is Atom:
                if ky is not Atom or x.name != y.name:
                    return False
            elif kx is Int:
                if ky is not Int or x.value != y.value:
                    return False
            else:  # Struct
                if ky is not Struct or x.name != y.name or len(x.args) != len(y.args):
                    return False
                stack.extend(zip(x.args, y.args))
        return True

    def resolve(self, t: Term) -> Term:
        """Deep-substitute current bindings; unbound variables stay."""
        t = self.deref(t)
        if type(t) is not Struct:
            return t
        return Struct(t.name, tuple(self.resolve(a) for a in t.args))

    def reify_copy(self, t: Term) -> Term:
        """Deep copy under current bindings with unbound vars renamed fresh."""
        return self._copy(t, {})

    def _copy(self, x: Term, mapping: dict[int, Var]) -> Term:
        x = self.deref(x)
        k = type(x)
        if k is Var:
            v = mapping.get(x.id)
            if v is None:
                v = fresh_var(x.name)
                mapping[x.id] = v
            return v
        if k is Struct:
            return Struct(x.name, tuple([self._copy(a, mapping) for a in x.args]))
        return x

    def term_equal(self, a: Term, b: Term) -> bool:
        stack = [(a, b)]
        while stack:
            x, y = stack.pop()
            x = self.deref(x)
            y = self.deref(y)
            if x is y:
                continue
            kx = type(x)
            if kx is not type(y):
                return False
            if kx is Var:
                if x.id != y.id:
                    return False
            elif kx is Atom:
                if x.name != y.name:
                    return False
            elif kx is Int:
                if x.value != y.value:
                    return False
            else:
                if x.name != y.name or len(x.args) != len(y.args):
                    return False
                stack.extend(zip(x.args, y.args))
        return True

    # -- arithmetic --------------------------------------------------------

    def eval_arith(self, t: Term) -> int:
        t = self.deref(t)
        k = type(t)
        if k is Int:
            return t.value
        if k is Var:
            raise InstantiationError("unbound variable in arithmetic expression")
        if k is Atom:
            raise TermTypeError("arithmetic expression", t.name)
        name = t.name
        n = len(t.args)
        if n == 2:
            l = self.eval_arith(t.args[0])
            r = self.eval_arith(t.args[1])
            if name == "+":
                v = l + r
            elif name == "-":
                v = l - r
            elif name == "*":
                v = l * r
            elif name == "//":
                if r == 0:
                    raise EvaluationError("division by zero")
                v = l // r
            elif name == "mod":
                if r == 0:
                    raise EvaluationError("mod by zero")
                v = l % r
            elif name == "min":
                v = min(l, r)
            elif name == "max":
                v = max(l, r)
            else:
                raise TermTypeError("arithmetic function", f"{name}/{n}")
        elif n == 1:
            a = self.eval_arith(t.args[0])
            if name == "-":
                v = -a
            elif name == "abs":
                v = abs(a)
            else:
                raise TermTypeError("arithmetic function", f"{name}/{n}")
        else:
            raise TermTypeError("arithmetic function", f"{name}/{n}")
        if v < INT_MIN or v > INT_MAX:
            raise EvaluationError("integer overflow (64-bit range)")
        return v

    # -- resolution --------------------------------------------------------

    def count_step(self, depth: int):
        """One resolution step at `depth`: a goal entered, a ','/2 node
        entered or a fact's `true`."""
        self.steps += 1
        if self.steps > self.max_steps:
            raise BudgetExceededError(f"resolution step budget exceeded ({self.max_steps})")
        if depth > self.max_depth:
            raise BudgetExceededError(f"resolution depth limit exceeded ({self.max_depth})")

    def match(self, p, t: Term, frame: list) -> bool:
        """Unify a clause-template pattern with a goal term.

        The first occurrence of a slot takes the goal's subterm as it is:
        no new variable, no trail entry.  A later occurrence unifies with
        what the slot holds, occurs-check included.
        """
        k = type(p)
        if k is int:
            got = frame[p]
            if got is None:
                frame[p] = t
                return True
            return self.unify(got, t)
        t = self.deref(t)
        kt = type(t)
        if kt is Var:
            if k is tuple:
                p = self.build(p, frame)
                if self._occurs(t.id, p):
                    return False
            self.bind[t.id] = p
            self.trail.append(t.id)
            return True
        if k is tuple:
            name, args = p
            if kt is not Struct or t.name != name or len(t.args) != len(args):
                return False
            return self.match_args(args, t.args, frame)
        if k is Atom:
            return kt is Atom and t.name == p.name
        if k is Int:
            return kt is Int and t.value == p.value
        return self.unify(p, t)

    def match_args(self, patterns: tuple, args: tuple, frame: list) -> bool:
        for p, a in zip(patterns, args):
            if not self.match(p, a, frame):
                return False
        return True

    def build(self, p, frame: list) -> Term:
        """Instantiate a pattern from the frame; an empty slot gets a fresh variable."""
        k = type(p)
        if k is int:
            v = frame[p]
            if v is None:
                v = frame[p] = fresh_var()
            return v
        if k is tuple:
            return Struct(p[0], tuple([self.build(a, frame) for a in p[1]]))
        return p

    def solve(self, goal: Term, depth: int, cut: _CutFlag):
        self.count_step(depth)
        g = self.deref(goal)
        k = type(g)
        if k is Var:
            raise InstantiationError("unbound variable as goal")
        if k is Int:
            raise TermTypeError("callable goal", g.value)
        if k is Atom:
            name, args, arity = g.name, (), 0
        else:
            name, args, arity = g.name, g.args, len(g.args)
        builtin = BUILTINS.get((name, arity))
        if builtin is not None:
            run, control = builtin
            if control:
                yield from run(self, args, depth, cut)
            else:
                mark = len(self.trail)
                if run(self, args, depth):
                    yield
                self.undo(mark)
            return
        native = self.kb.native((name, arity))
        if native is not None:
            yield from self.call_native(native, args)
            return
        pred = self.kb.lookup((name, arity))
        if pred is None:
            raise ExistenceError(name, arity)
        snap = self.snap
        local = _CutFlag()
        trail = self.trail
        depth += 1
        for clause in pred.clauses:
            if not clause.alive_at(snap):
                continue
            if local.cut:
                return
            mark = len(trail)
            template = clause.template
            frame = [None] * template.slots
            if self.match_args(template.head, args, frame):
                goals = template.goals
                if not goals:  # a fact; its body `true` costs one step
                    self.count_step(depth)
                    yield
                elif len(goals) == 1:
                    yield from self.solve(self.build(goals[0], frame), depth, local)
                else:
                    yield from self.solve_body(goals, 0, frame, depth, local)
            self.undo(mark)
            if local.cut:
                return

    def solve_body(self, goals: tuple, i: int, frame: list, depth: int, cut: _CutFlag):
        """Goals i.. of a clause body, run as the right-nested conjunction
        they were read from: one step for each ','/2 node entered."""
        self.count_step(depth)
        last = len(goals) - 1
        for _ in self.solve(self.build(goals[i], frame), depth, cut):
            if i + 1 == last:
                yield from self.solve(self.build(goals[last], frame), depth, cut)
            else:
                yield from self.solve_body(goals, i + 1, frame, depth, cut)
            if cut.cut:
                return

    def call_native(self, native: NativePredicate, args: tuple):
        resolved = tuple(self.resolve(a) for a in args)
        answers = native.handler(*resolved)
        if answers is None:
            return
        mark = len(self.trail)
        for ans in answers:
            ok = True
            if ans is not None:
                for orig, new in zip(args, ans):
                    if not self.unify(orig, new):
                        ok = False
                        break
            if ok:
                yield
            self.undo(mark)
            if not native.nondet:
                return

    def solve_once(self, goal: Term, depth: int) -> bool:
        """First solution, bindings kept.  Caller owns the trail mark."""
        for _ in self.solve(goal, depth, _CutFlag()):
            return True
        return False


# -- control constructs and builtins --------------------------------------


def _bi_conj(m: _Machine, args, depth, cut):
    a, b = args
    for _ in m.solve(a, depth, cut):
        yield from m.solve(b, depth, cut)
        if cut.cut:
            return


def _bi_disj(m: _Machine, args, depth, cut):
    a, b = args
    ad = m.deref(a)
    if type(ad) is Struct and ad.name == "->" and len(ad.args) == 2:
        cond, then = ad.args
        mark = len(m.trail)
        if m.solve_once(cond, depth + 1):
            yield from m.solve(then, depth, cut)
            m.undo(mark)
        else:
            m.undo(mark)
            yield from m.solve(b, depth, cut)
        return
    mark = len(m.trail)
    yield from m.solve(a, depth, cut)
    if cut.cut:
        return
    m.undo(mark)
    yield from m.solve(b, depth, cut)


def _bi_ite(m: _Machine, args, depth, cut):
    cond, then = args
    mark = len(m.trail)
    if m.solve_once(cond, depth + 1):
        yield from m.solve(then, depth, cut)
    m.undo(mark)


def _bi_cut(m: _Machine, args, depth, cut):
    yield
    cut.cut = True


def _bi_call(m: _Machine, args, depth, cut):
    (g,) = args
    gd = m.deref(g)
    if type(gd) is Var:
        raise InstantiationError("unbound variable in call/1")
    if type(gd) is Int:
        raise TermTypeError("callable goal", gd.value)
    yield from m.solve(gd, depth + 1, _CutFlag())


def _bi_not_unify(m: _Machine, args, depth) -> bool:
    # a failed unification can leave bindings behind; drop them before succeeding
    mark = len(m.trail)
    ok = m.unify(*args)
    m.undo(mark)
    return not ok


def _cmp(op):
    return lambda m, args, depth: op(m.eval_arith(args[0]), m.eval_arith(args[1]))


def _bi_naf(m: _Machine, args, depth) -> bool:
    # a goal cut after binding can fail with its bindings still trailed
    mark = len(m.trail)
    found = m.solve_once(args[0], depth + 1)
    m.undo(mark)
    return not found


def _bi_findall(m: _Machine, args, depth) -> bool:
    template, goal, out = args
    # a cut in the goal leaves its last answer's bindings trailed; drop them
    mark = len(m.trail)
    results = [m.reify_copy(template) for _ in m.solve(goal, depth + 1, _CutFlag())]
    m.undo(mark)
    return m.unify(out, make_list(results))


def _assert(front: bool):
    def test(m: _Machine, args, depth) -> bool:
        td = m.deref(args[0])
        if type(td) is Var:
            raise InstantiationError("unbound variable in assert")
        head, body = split_clause(m.resolve(td))
        m.kb.add_clause(head, body, front=front)
        return True

    return test


def _bi_retract(m: _Machine, args, depth) -> bool:
    """Remove the first clause that unifies.  Only clauses born at or before
    the query's snapshot and still live are candidates: a clause the query
    cannot see is never removed, and an earlier removal is always seen."""
    td = m.deref(args[0])
    if type(td) is Var:
        raise InstantiationError("unbound variable in retract")
    phead, pbody = split_clause(td)
    key = functor_key(phead)
    if key is None:
        raise TermTypeError("callable clause head", phead)
    m.kb.check_writable(key, "retract from")
    pred = m.kb.lookup(key)
    if pred is None:
        return False
    pargs = phead.args if type(phead) is Struct else ()
    for clause in pred.clauses:
        if clause.death is not None or clause.birth > m.snap:
            continue
        template = clause.template
        frame = [None] * template.slots
        mark = len(m.trail)
        if m.match_args(template.head, pargs, frame) and m.match(template.body, pbody, frame):
            m.kb.kill_clause(clause)
            return True
        m.undo(mark)
    return False


def _bi_write(m: _Machine, args, depth) -> bool:
    m.out(term_str(m.resolve(args[0])))
    return True


def _bi_nl(m: _Machine, args, depth) -> bool:
    m.out("\n")
    return True


# The one list of the names the solver owns; the store refuses to define,
# declare or register any of them.  Each entry is (run, control).
BUILTINS.update(
    {
        (",", 2): (_bi_conj, True),
        (";", 2): (_bi_disj, True),
        ("->", 2): (_bi_ite, True),
        ("!", 0): (_bi_cut, True),
        ("call", 1): (_bi_call, True),
        ("true", 0): (lambda m, args, depth: True, False),
        ("fail", 0): (lambda m, args, depth: False, False),
        ("\\+", 1): (_bi_naf, False),
        ("=", 2): (lambda m, args, depth: m.unify(*args), False),
        ("\\=", 2): (_bi_not_unify, False),
        ("==", 2): (lambda m, args, depth: m.term_equal(*args), False),
        ("\\==", 2): (lambda m, args, depth: not m.term_equal(*args), False),
        ("is", 2): (lambda m, args, depth: m.unify(args[0], Int(m.eval_arith(args[1]))), False),
        ("<", 2): (_cmp(operator.lt), False),
        (">", 2): (_cmp(operator.gt), False),
        ("=<", 2): (_cmp(operator.le), False),
        (">=", 2): (_cmp(operator.ge), False),
        ("=:=", 2): (_cmp(operator.eq), False),
        ("=\\=", 2): (_cmp(operator.ne), False),
        ("findall", 3): (_bi_findall, False),
        ("assert", 1): (_assert(front=False), False),
        ("assertz", 1): (_assert(front=False), False),
        ("asserta", 1): (_assert(front=True), False),
        ("retract", 1): (_bi_retract, False),
        ("var", 1): (lambda m, args, depth: type(m.deref(args[0])) is Var, False),
        ("nonvar", 1): (lambda m, args, depth: type(m.deref(args[0])) is not Var, False),
        ("atom", 1): (lambda m, args, depth: type(m.deref(args[0])) is Atom, False),
        ("number", 1): (lambda m, args, depth: type(m.deref(args[0])) is Int, False),
        ("write", 1): (_bi_write, False),
        ("nl", 0): (_bi_nl, False),
    }
)


class SolutionStream:
    """Resumable enumeration of one query's solutions.

    The stream is open, and holds its snapshot's dead clauses in the
    store, from its creation until it is exhausted, raises, is closed or
    is dropped.
    """

    def __init__(self, machine: _Machine, goal: Term, names: dict[str, Var]):
        self._machine = machine
        self._names = names
        self._gen = machine.solve(goal, 0, _CutFlag())
        machine.kb.open_stream()
        self._done = False

    def close(self) -> None:
        """Give up the remaining solutions."""
        if not self._done:
            self._done = True
            self._machine.kb.close_stream()

    __del__ = close

    def next_solution(self) -> dict[str, Term] | None:
        if self._done:
            return None
        try:
            next(self._gen)
        except StopIteration:
            self.close()
            return None
        except RecursionError:
            self.close()
            raise BudgetExceededError("interpreter recursion limit hit during resolution")
        except BaseException:
            self.close()
            raise
        m = self._machine
        return {name: m.resolve(var) for name, var in self._names.items()}

    def __iter__(self):
        while True:
            sol = self.next_solution()
            if sol is None:
                return
            yield sol

    def all(self) -> list[dict[str, Term]]:
        return list(self)


class Engine:
    """A knowledge base plus resolution configuration."""

    def __init__(
        self,
        kb: KnowledgeBase | None = None,
        max_steps: int = DEFAULT_MAX_STEPS,
        max_depth: int = DEFAULT_MAX_DEPTH,
        output=None,
    ):
        self.kb = kb if kb is not None else KnowledgeBase()
        self.max_steps = max_steps
        self.max_depth = max_depth
        self.output = output if output is not None else lambda s: sys.stdout.write(s)

    def _machine(self) -> _Machine:
        return _Machine(self.kb, self.max_steps, self.max_depth, self.output)

    def consult(self, text: str):
        return self.kb.consult(text)

    def solve(self, goal: Term, names: dict[str, Var] | None = None) -> SolutionStream:
        if names is None:
            names = {}
            for v in collect_vars(goal):
                if v.name and v.name != "_" and v.name not in names:
                    names[v.name] = v
        return SolutionStream(self._machine(), goal, names)

    def run(self, text: str) -> list[dict[str, Term]]:
        """Parse a query and return all solutions as name -> term dicts."""
        goal, varmap = read_term(text)
        names = {n: v for n, v in varmap.items() if not n.startswith("_")}
        return SolutionStream(self._machine(), goal, names).all()

    def prove(self, goal: Term) -> bool:
        """True iff the goal has at least one solution."""
        stream = SolutionStream(self._machine(), goal, {})
        return stream.next_solution() is not None

