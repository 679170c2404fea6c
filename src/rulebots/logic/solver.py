"""Depth-first resolution with backtracking, in one loop.

`_Machine.run` walks a continuation of body nodes against a stack of
choicepoints, over a binding store with a trail, and never recurses.  A
node `(goals, i, frame, depth, barrier, next)` runs goal `i` of `goals`
at proof depth `depth`; a cut there truncates the choicepoint stack to
`barrier`.  A clause body is one node over the goals of its compiled
template (see `database.ClauseTemplate`).  A compiled goal, `(arg
patterns, key, opcode)`, carries its `(name, arity)` key and its
`BUILTINS` opcode, or None, both fixed when its clause was compiled; the
call builds only its arguments from `frame`, a slot or a constant inline
and a compound through `build`.  A goal that arrives as a term (a query,
a variable goal, or the argument of `call/1` or of a control construct)
has its key built and looked up in `BUILTINS` when it runs.  A call
then tries the builtins, the store's natives and its predicates, in that
order; a native gets its arguments dereferenced, each compound resolved.
A head of distinct variables starts its frame with the call's arguments
as they are; any other head is unified with them pattern by pattern.  A
marker node, whose `goals` is an int, commits an if-then-else, refutes a
`\\+` or collects a `findall` answer.

A choicepoint starts with a trail mark and holds the remaining clauses of
a predicate, the remaining answers of a nondet native, the other branch
of a `;`, if-then-else or `\\+`, or a finished `findall`.  One routine
enters a predicate's next matching clause, on the call and on
backtracking alike, and leaves a choicepoint only if clauses remain after
it, so a lone clause pushes none.  Tests, deterministic natives and
natives with a single answer answer inline.  `call/1`, an if-then-else
condition, `\\+` and `findall` run their goal one level deeper behind a
barrier of their own, so a cut there stays inside.

Every builtin is declared once, in `BUILTINS`, which this module fills
and the store reads, to refuse writes to those names and to give each
compiled goal its opcode: an opcode for each of the seven control
constructs, a plain test for every other builtin.

`run` returns at each solution and leaves its choicepoints on the
machine; a stream resumes it from a `_REFUTE` marker, and `Engine.prove`
runs it once.  A stream snapshots the store generation when it starts;
changes made while it is open are invisible to it, and the store keeps
the clauses it may still see until it closes.  A query is bounded by
`max_depth` and `max_steps`; no proof, copy, unification or evaluation
uses Python's stack.  `_Machine.match` and `_Machine.build` still do: they
recurse on a clause pattern's nesting, so calling a stored term with
variables nested 500 or more deep raises a bare `RecursionError` until
they work over explicit stacks (ROADMAP item 5).
"""

from __future__ import annotations

import operator
import sys

from rulebots.logic.database import BUILTINS, KnowledgeBase
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
    fresh_var,
    functor_key,
    make_list,
    term_str,
)

DEFAULT_MAX_STEPS = 100_000
DEFAULT_MAX_DEPTH = 2_000

# Opcodes of the control constructs in `BUILTINS`, then of the marker nodes.
CONJ, DISJ, ITE, CUT, CALL, NAF, FINDALL = range(7)
_COMMIT, _REFUTE, _COLLECT = range(7, 10)
# Choicepoint kinds; each choicepoint is (kind, trail mark, ...).
_CLAUSES, _ANSWERS, _BRANCH, _FOUND = range(4)


# The arithmetic functions, by (name, arity).
_ARITH = {
    ("+", 2): operator.add, ("-", 2): operator.sub, ("*", 2): operator.mul,
    ("//", 2): operator.floordiv, ("mod", 2): operator.mod,
    ("min", 2): min, ("max", 2): max, ("-", 1): operator.neg, ("abs", 1): abs,
}


def _apply(key: tuple[str, int], operands) -> int:
    fn = _ARITH.get(key)
    if fn is None:
        raise TermTypeError("arithmetic function", f"{key[0]}/{key[1]}")
    try:
        v = fn(*operands)
    except ZeroDivisionError:
        raise EvaluationError(("division" if key[0] == "//" else "mod") + " by zero") from None
    if v < INT_MIN or v > INT_MAX:
        raise EvaluationError("integer overflow (64-bit range)")
    return v


class _Machine:
    __slots__ = ("kb", "bind", "trail", "cps", "snap", "steps", "max_steps", "max_depth", "out", "log")

    def __init__(self, kb: KnowledgeBase, max_steps: int, max_depth: int, out, log=None):
        self.kb = kb
        self.bind: dict[int, Term] = {}
        self.trail: list[int] = []
        self.cps: list[tuple] = []
        self.snap = kb.generation
        self.steps = 0
        self.max_steps = max_steps
        self.max_depth = max_depth
        self.out = out
        self.log = log

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
                elif ky is Struct and self._occurs(x.id, y):  # only a compound can hold x
                    return False
                bind[x.id] = y
                trail.append(x.id)
            elif ky is Var:
                if kx is Struct and self._occurs(y.id, x):
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

    def resolve(self, t: Term, fresh: dict[int, Var] | None = None) -> Term:
        """Deep-substitute current bindings.  Unbound variables stay, or,
        given a `fresh` map, each is renamed to one new variable kept there."""
        deref = self.deref
        t = deref(t)
        if fresh is None and type(t) is not Struct:
            return t
        done: list[Term] = []
        todo = [t]
        while todo:
            x = todo.pop()
            if type(x) is tuple:  # (name, arity) once its arguments are done
                name, n = x
                cut = len(done) - n
                x = Struct(name, tuple(done[cut:]))
                del done[cut:]
            else:
                x = deref(x)
                k = type(x)
                if k is Struct:
                    todo.append((x.name, len(x.args)))
                    todo.extend(reversed(x.args))
                    continue
                if k is Var and fresh is not None:
                    if x.id not in fresh:
                        fresh[x.id] = fresh_var(x.name)
                    x = fresh[x.id]
            done.append(x)
        return done[0]

    def term_equal(self, a: Term, b: Term) -> bool:
        """Structural identity: the terms unify without binding a variable."""
        mark = len(self.trail)
        same = self.unify(a, b) and len(self.trail) == mark
        self.undo(mark)
        return same

    # -- arithmetic --------------------------------------------------------

    def eval_arith(self, t: Term) -> int:
        """Evaluate an integer expression over an explicit stack, operands
        left to right; an integer, or one operator over two integers, needs
        no stack."""
        t = self.deref(t)
        if type(t) is Int:
            return t.value
        if type(t) is Struct and len(t.args) == 2:
            l, r = self.deref(t.args[0]), self.deref(t.args[1])
            if type(l) is Int and type(r) is Int:
                return _apply((t.name, 2), (l.value, r.value))
        todo: list = [t]
        vals: list[int] = []
        while todo:
            x = todo.pop()
            if type(x) is tuple:  # (name, arity) once its operands are evaluated
                vals[-x[1]:] = [_apply(x, vals[-x[1]:])]
                continue
            x = self.deref(x)
            k = type(x)
            if k is Int:
                vals.append(x.value)
            elif k is Var:
                raise InstantiationError("unbound variable in arithmetic expression")
            elif k is Atom:
                raise TermTypeError("arithmetic expression", x.name)
            elif len(x.args) in (1, 2):
                todo.append((x.name, len(x.args)))
                todo.extend(reversed(x.args))
            else:
                raise TermTypeError("arithmetic function", f"{x.name}/{len(x.args)}")
        return vals[0]

    # -- resolution --------------------------------------------------------

    def _over_limit(self, steps: int, depth: int) -> BudgetExceededError:
        """The error of a step that passed the step budget or the depth limit."""
        if steps > self.max_steps:
            return BudgetExceededError(f"resolution step budget exceeded ({self.max_steps})")
        return BudgetExceededError(f"resolution depth limit exceeded ({self.max_depth})")

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

    def take_answer(self, args: tuple, answer) -> bool:
        """Unify a native's answer: one term per argument, or None for plain success."""
        if answer is not None:
            for orig, new in zip(args, answer):
                if not self.unify(orig, new):
                    return False
        return True

    def run(self, node) -> bool:
        """Run `node` and its continuation to the next solution.  True at a
        solution, its bindings in place and its choicepoints left on `cps`
        for a later run from a `_REFUTE` marker; False once none is left.

        A step is a goal entered, a ','/2 node entered or a fact's `true`;
        the count lives in a local while the loop runs and goes back to
        `steps` however the run ends."""
        trail, cps, snap, log, bind = self.trail, self.cps, self.snap, self.log, self.bind
        deref, build, resolve, take_answer = self.deref, self.build, self.resolve, self.take_answer
        native_of, lookup = self.kb.natives.get, self.kb.lookup
        steps, max_steps, max_depth = self.steps, self.max_steps, self.max_depth
        clauses = None
        try:
            while True:
                if node is None:  # the continuation is empty: a solution
                    return True
                goals, i, frame, depth, barrier, node = node
                if type(goals) is tuple:
                    if i + 1 < len(goals):  # a clause body's ','/2 node
                        steps += 1
                        if steps > max_steps or depth > max_depth:
                            raise self._over_limit(steps, depth)
                        node = (goals, i + 1, frame, depth, barrier, node)
                    steps += 1
                    if steps > max_steps or depth > max_depth:
                        raise self._over_limit(steps, depth)
                    g = goals[i]
                    if type(g) is tuple:  # a compiled call: build only its arguments
                        patterns, key, op = g
                        args = []
                        for p in patterns:
                            k = type(p)
                            if k is int:
                                a = frame[p]
                                if a is None:
                                    a = frame[p] = fresh_var()
                            elif k is tuple:
                                a = build(p, frame)
                            else:
                                a = p
                            args.append(a)
                        args = tuple(args)
                    else:
                        g = deref(g if frame is None else build(g, frame))
                        k = type(g)
                        if k is Var:
                            raise InstantiationError("unbound variable as goal")
                        if k is Int:
                            raise TermTypeError("callable goal", g.value)
                        args = g.args if k is Struct else ()
                        key = (g.name, len(args))
                        op = BUILTINS.get(key)
                    if op is None:
                        native = native_of(key)
                        if native is None:
                            pred = lookup(key)
                            if pred is None:
                                raise ExistenceError(*key)
                            clauses, j, mark, depth = pred.clauses, 0, len(trail), depth + 1
                        else:
                            called = []
                            for a in args:
                                while type(a) is Var:
                                    b = bind.get(a.id)
                                    if b is None:
                                        break
                                    a = b
                                if type(a) is Struct:
                                    a = resolve(a)
                                called.append(a)
                            called = tuple(called)
                            answers = native.handler(*called)
                            if log is not None:
                                log.append((key, called, answers))
                            if not answers:  # a handler gives None or a list of answers
                                pass
                            elif native.nondet and len(answers) > 1:
                                cps.append((_ANSWERS, len(trail), iter(answers), args, node))
                            elif take_answer(args, answers[0]):
                                continue
                    elif type(op) is not int:
                        if op(self, args):
                            continue
                    elif op == CONJ:
                        node = ((args[1],), 0, None, depth, barrier, node)
                        node = ((args[0],), 0, None, depth, barrier, node)
                        continue
                    elif op == CUT:
                        del cps[barrier:]
                        continue
                    elif op == CALL:
                        g = deref(args[0])
                        if type(g) is Var:
                            raise InstantiationError("unbound variable in call/1")
                        if type(g) is Int:
                            raise TermTypeError("callable goal", g.value)
                        node = ((g,), 0, None, depth + 1, len(cps), node)
                        continue
                    elif op == NAF:
                        h = len(cps)
                        cps.append((_BRANCH, len(trail), node))
                        node = ((args[0],), 0, None, depth + 1, h + 1, (_REFUTE, h, None, 0, 0, None))
                        continue
                    elif op == FINDALL:
                        h = len(cps)
                        found: list[Term] = []
                        cps.append((_FOUND, len(trail), found, args[2], node))
                        collect = (_COLLECT, 0, (found, args[0]), 0, 0, None)
                        node = ((args[1],), 0, None, depth + 1, h + 1, collect)
                        continue
                    else:
                        h = len(cps)
                        if op == DISJ:
                            cps.append((_BRANCH, len(trail), ((args[1],), 0, None, depth, barrier, node)))
                            c = deref(args[0])
                            if not (type(c) is Struct and c.name == "->" and len(c.args) == 2):
                                node = ((c,), 0, None, depth, barrier, node)
                                continue
                            args = c.args
                        then = ((args[1],), 0, None, depth, barrier, node)
                        node = ((args[0],), 0, None, depth + 1, len(cps), (_COMMIT, h, None, 0, 0, then))
                        continue
                elif goals == _COLLECT:
                    frame[0].append(resolve(frame[1], {}))
                else:
                    del cps[i:]
                    if goals == _COMMIT:
                        continue
                while True:
                    if clauses is None:  # no call to enter: resume the newest choicepoint
                        if not cps:
                            return False
                        cp = cps.pop()
                        if len(trail) > cp[1]:
                            self.undo(cp[1])
                        kind = cp[0]
                        if kind == _CLAUSES:
                            _, mark, clauses, j, args, depth, node = cp
                        elif kind == _ANSWERS:
                            _, mark, answers, args, node = cp
                            for answer in answers:
                                if take_answer(args, answer):
                                    cps.append(cp)
                                    break
                                self.undo(mark)
                            else:
                                continue
                            break
                        elif kind == _BRANCH:
                            node = cp[2]
                            break
                        else:
                            _, mark, found, out, node = cp
                            if self.unify(out, make_list(found)):
                                break
                            continue
                    # enter the first clause from `j` that is alive and whose head
                    # matches, leaving a choicepoint only if clauses remain after it
                    n = len(clauses)
                    while j < n:
                        clause = clauses[j]
                        j += 1
                        if clause.alive_at(snap):
                            template = clause.template
                            if template.plain:
                                frame = [*args, *template.pad]
                                break
                            frame = [None] * template.slots
                            if self.match_args(template.head, args, frame):
                                break
                            self.undo(mark)
                    else:
                        clauses = None
                        continue
                    barrier = len(cps)
                    if j < n:
                        cps.append((_CLAUSES, mark, clauses, j, args, depth, node))
                    clauses = None
                    if template.goals:
                        node = (template.goals, 0, frame, depth, barrier, node)
                    else:  # a fact's body `true` is one step
                        steps += 1
                        if steps > max_steps or depth > max_depth:
                            raise self._over_limit(steps, depth)
                    break
        finally:
            self.steps = steps


# -- builtins --------------------------------------------------------------


def _bi_not_unify(m: _Machine, args) -> bool:
    # a failed unification can leave bindings behind; drop them before succeeding
    mark = len(m.trail)
    ok = m.unify(*args)
    m.undo(mark)
    return not ok


def _cmp(op):
    return lambda m, args: op(m.eval_arith(args[0]), m.eval_arith(args[1]))


def _assert(front: bool):
    def test(m: _Machine, args) -> bool:
        td = m.deref(args[0])
        if type(td) is Var:
            raise InstantiationError("unbound variable in assert")
        head, body = split_clause(m.resolve(td))
        m.kb.add_clause(head, body, front=front)
        return True

    return test


def _bi_retract(m: _Machine, args) -> bool:
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


def _write(m: _Machine, key: tuple[str, int], text: str) -> bool:
    if m.log is not None:  # output is an effect: a logged proof that writes is never reused
        m.log.append((key, (), None))
    m.out(text)
    return True


# The one list of the names the solver owns; the store refuses to define,
# declare or register any of them.  A control construct maps to its
# opcode, every other builtin to its test.
BUILTINS.update(
    {
        (",", 2): CONJ,
        (";", 2): DISJ,
        ("->", 2): ITE,
        ("!", 0): CUT,
        ("call", 1): CALL,
        ("\\+", 1): NAF,
        ("findall", 3): FINDALL,
        ("true", 0): lambda m, args: True,
        ("fail", 0): lambda m, args: False,
        ("=", 2): lambda m, args: m.unify(*args),
        ("\\=", 2): _bi_not_unify,
        ("==", 2): lambda m, args: m.term_equal(*args),
        ("\\==", 2): lambda m, args: not m.term_equal(*args),
        ("is", 2): lambda m, args: m.unify(args[0], Int(m.eval_arith(args[1]))),
        ("<", 2): _cmp(operator.lt),
        (">", 2): _cmp(operator.gt),
        ("=<", 2): _cmp(operator.le),
        (">=", 2): _cmp(operator.ge),
        ("=:=", 2): _cmp(operator.eq),
        ("=\\=", 2): _cmp(operator.ne),
        ("assert", 1): _assert(front=False),
        ("assertz", 1): _assert(front=False),
        ("asserta", 1): _assert(front=True),
        ("retract", 1): _bi_retract,
        ("var", 1): lambda m, args: type(m.deref(args[0])) is Var,
        ("nonvar", 1): lambda m, args: type(m.deref(args[0])) is not Var,
        ("atom", 1): lambda m, args: type(m.deref(args[0])) is Atom,
        ("number", 1): lambda m, args: type(m.deref(args[0])) is Int,
        ("write", 1): lambda m, args: _write(m, ("write", 1), term_str(m.resolve(args[0]))),
        ("nl", 0): lambda m, args: _write(m, ("nl", 0), "\n"),
    }
)


class SolutionStream:
    """Resumable enumeration of one query's solutions.

    The stream is open, and holds its snapshot's dead clauses in the
    store, from its creation until it is exhausted, raises, is closed or
    is dropped.  Its choicepoints stay on its machine between solutions.
    """

    def __init__(self, machine: _Machine, goal: Term, names: dict[str, Var]):
        self._machine = machine
        self._names = names
        self._node = ((goal,), 0, None, 0, 0, None)
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
        machine = self._machine
        # the first run starts the query; each later one refutes the last solution
        node, self._node = self._node or (_REFUTE, len(machine.cps), None, 0, 0, None), None
        try:
            if machine.run(node):
                resolve = machine.resolve
                return {name: resolve(var) for name, var in self._names.items()}
        except BaseException:
            self.close()
            raise
        self.close()
        return None

    def __iter__(self):
        while True:
            sol = self.next_solution()
            if sol is None:
                return
            yield sol

    def all(self) -> list[dict[str, Term]]:
        return list(self)


class Engine:
    """A knowledge base plus resolution configuration.

    While `log` is a list, each machine started appends to it every native
    call it makes, as `(key, resolved arguments, answer list)`, and every
    `write/1` or `nl/0`, as `(key, (), None)`.
    """

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
        self.log: list | None = None

    def _machine(self) -> _Machine:
        return _Machine(self.kb, self.max_steps, self.max_depth, self.output, self.log)

    def consult(self, text: str):
        return self.kb.consult(text)

    def solve(self, goal: Term, names: dict[str, Var]) -> SolutionStream:
        return SolutionStream(self._machine(), goal, names)

    def run(self, text: str) -> list[dict[str, Term]]:
        """Parse a query and return all solutions as name -> term dicts."""
        goal, varmap = read_term(text)
        names = {n: v for n, v in varmap.items() if not n.startswith("_")}
        return SolutionStream(self._machine(), goal, names).all()

    def prove(self, goal: Term) -> bool:
        """True iff the goal has at least one solution."""
        self.kb.open_stream()
        try:
            return self._machine().run(((goal,), 0, None, 0, 0, None))
        finally:
            self.kb.close_stream()


def unify_terms(a: Term, b: Term) -> dict[int, Term] | None:
    """Most general unifier of two terms as an id -> term map, or None."""
    m = _Machine(KnowledgeBase(), DEFAULT_MAX_STEPS, DEFAULT_MAX_DEPTH, lambda s: None)
    if not m.unify(a, b):
        return None
    return {vid: m.resolve(Var(vid)) for vid in m.bind}
