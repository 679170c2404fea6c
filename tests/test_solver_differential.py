"""The engine against an independent reference interpreter, on generated programs.

`reference_engine` interprets README's rules and shares no code with the
engine.  Each example is a small program over a fixed signature: facts
`f/2`, a dynamic `d/1`, rules `p/1` and `q/1` whose bodies mix conjunction,
disjunction, if-then-else, negation, cut, `call/1`, `findall/3`,
arithmetic, comparisons and updates of `d/1`, a rule `r/2` whose heads
repeat or fix an argument or not, a rule `s/1` of exactly one clause, and
a nondet native `nat/2` with 0, 1 or 2 answers.  A few queries run in turn
on both, and after each they must agree on the answers as text (fresh
`_G<n>` variables renumbered), the error's type and message, the steps at
exit, and the live store: its generation, and each live clause's key,
birth and text with variables numbered by first occurrence.
"""

import ast
import re
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings, strategies as st

import reference_engine
from rulebots.logic import Atom, Engine, Int, KnowledgeBase, LogicError, Struct, Var, read_term, term_str

MAX_STEPS = 2000
MAX_DEPTH = 60

CONSTS = st.sampled_from(["0", "1", "2", "a", "b"])
VARS = st.sampled_from(["X", "Y", "Z"])
ARGS = st.one_of(VARS, CONSTS)


def _fmt(pattern: str, n: int):
    return st.tuples(*[ARGS] * n).map(lambda args: pattern.format(*args))


LEAVES = st.one_of(
    _fmt("f({}, {})", 2),
    _fmt("d({})", 1),
    _fmt("p({})", 1),
    _fmt("q({})", 1),
    _fmt("r({}, {})", 2),
    _fmt("s({})", 1),
    _fmt("nat({}, {})", 2),
    _fmt("{} is {} + 1", 2),
    _fmt("{} < {}", 2),
    _fmt("{} =< {}", 2),
    _fmt("{} = {}", 2),
    _fmt("{} == {}", 2),
    _fmt("{} \\= {}", 2),
    _fmt("assertz(d({}))", 1),
    _fmt("asserta(d({}))", 1),
    _fmt("retract(d({}))", 1),
    VARS.map(lambda v: f"call({v})"),
    st.sampled_from(["!", "true", "fail", "call(1)"]),
)


def _extend(goals):
    return st.one_of(
        st.tuples(goals, goals).map(lambda g: f"({g[0]}, {g[1]})"),
        st.tuples(goals, goals).map(lambda g: f"({g[0]} ; {g[1]})"),
        st.tuples(goals, goals).map(lambda g: f"({g[0]} -> {g[1]})"),
        st.tuples(goals, goals, goals).map(lambda g: f"(({g[0]} -> {g[1]}) ; {g[2]})"),
        goals.map(lambda g: f"\\+ ({g})"),
        goals.map(lambda g: f"call(({g}))"),
        st.tuples(VARS, goals, VARS).map(lambda g: f"findall({g[0]}, ({g[1]}), {g[2]})"),
    )


GOALS = st.recursive(LEAVES, _extend, max_leaves=6)


def _clauses(name: str):
    clause = st.tuples(ARGS, GOALS).map(lambda c: f"{name}({c[0]}) :- {c[1]}.")
    return st.lists(clause, min_size=1, max_size=3)


# the one clause of s/1 often ends in a cut, which must stay inside it
S_CLAUSE = st.tuples(ARGS, GOALS, st.sampled_from(["", ", !"])).map(
    lambda c: f"s({c[0]}) :- {c[1]}{c[2]}."
)
# distinct variables, the same two swapped, a repeated one and a constant
R_HEADS = st.sampled_from(["r(X, Y)", "r(Y, X)", "r(X, X)", "r(a, Y)"])
R_CLAUSE = st.tuples(R_HEADS, GOALS).map(lambda c: f"{c[0]} :- {c[1]}.")

PROGRAMS = st.tuples(
    st.lists(st.tuples(CONSTS, CONSTS).map(lambda a: f"f({a[0]}, {a[1]})."), max_size=4),
    st.lists(CONSTS.map(lambda a: f"d({a})."), max_size=3),
    _clauses("p"),
    _clauses("q"),
    st.lists(R_CLAUSE, min_size=1, max_size=3),
    st.lists(S_CLAUSE, min_size=1, max_size=1),
).map(lambda parts: "\n".join(line for part in parts for line in part))

QUERIES = st.lists(
    st.one_of(st.sampled_from(["p(X)", "q(X)", "d(X)", "r(X, Y)", "f(X, Y), s(Y)"]), GOALS),
    min_size=1,
    max_size=3,
)


def _nat(n, m):
    """`m` counts up from 0 to below `n`, for at most two answers; an atom
    answers once, as itself; an unbound `n` has no answer."""
    if type(n) is Atom:
        return [(n, n)]
    return [(n, Int(i)) for i in range(min(n.value, 2))] if type(n) is Int else []


def _engines(program: str):
    """The engine and the reference, each with `d/1`, `nat/2` and the program."""
    kb = KnowledgeBase()
    ref = reference_engine.Reference(max_steps=MAX_STEPS, max_depth=MAX_DEPTH)
    for store in (kb, ref):
        store.declare_dynamic("d", 1)
        store.register_native("nat", 2, _nat, nondet=True)
    engine = Engine(kb, max_steps=MAX_STEPS, max_depth=MAX_DEPTH, output=lambda s: None)
    engine.consult(program)
    ref.consult(program)
    return engine, ref


def _unnamed(text: str) -> str:
    """Number fresh variables by first appearance; their ids differ between engines."""
    ids: dict[str, str] = {}
    return re.sub(r"_G\d+", lambda m: ids.setdefault(m.group(), f"_V{len(ids)}"), text)


def _outcome(engine, query: str):
    """The answers as text, the error raised, if any, and the steps at exit."""
    goal, varmap = read_term(query)
    names = {n: v for n, v in varmap.items() if not n.startswith("_")}
    stream = engine.solve(goal, names)
    answers, error = [], None
    try:
        for sol in stream:
            answers.append(_unnamed(" ".join(f"{n}={term_str(t)}" for n, t in sorted(sol.items()))))
    except LogicError as exc:
        error = (type(exc).__name__, str(exc))
    return answers, error, getattr(stream, "_machine", engine).steps  # the reference counts on itself


def _clause_text(key, head_args, body) -> str:
    """A stored clause as text, its nameless variables numbered by first appearance."""
    head = Struct(key[0], tuple(head_args)) if key[1] else Atom(key[0])
    return _unnamed(term_str(Struct(":-", (head, body))))


def _term(p):
    """A clause template's pattern as a term, slot `n` as the variable `_G<n>`."""
    if type(p) is int:
        return Var(p)
    return Struct(p[0], tuple(map(_term, p[1]))) if type(p) is tuple else p


def _live_stores(engine, ref):
    """Each store's generation, and each live clause's key, birth and text."""
    kb = engine.kb
    got = [(key, c.birth, _clause_text(key, map(_term, c.template.head), _term(c.template.body)))
           for key, pred in sorted(kb._preds.items()) for c in pred.clauses if c.death is None]
    want = [(key, c.birth, _clause_text(key, c.parts[:-1], c.parts[-1]))
            for key, clauses in sorted(ref.preds.items()) for c in clauses if c.death is None]
    return (kb.generation, got), (ref.generation, want)


# A program on which a cut in call/1, a repeated head variable, a lone clause
# under a choicepoint, the update view and one-answer natives each decide an answer.
SCENES = "d(0). d(1). p(X) :- call(!), X = 1. p(2). q(_) :- fail. r(X, X) :- true. s(_) :- true, !."


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(PROGRAMS, QUERIES)
@example(SCENES, ["p(X)", "r(X, Y)", "(X = 0 ; X = 1), s(_)", "d(X), asserta(d(Y))"])
@example(SCENES, ["assertz(d(c)), retract(d(c))", "(X = a ; X = 1 ; X = 2), nat(X, Y)"])
def test_solver_agrees_with_the_reference_engine(program, queries):
    engine, reference = _engines(program)
    for query in queries:
        assert _outcome(engine, query) == _outcome(reference, query), (program, query)
        got, want = _live_stores(engine, reference)
        assert got == want, (program, query)


def test_reference_imports_only_terms_reader_and_errors():
    """The oracle shares no code with the engine: it imports from the term
    classes, the reader and the error types only, not even from the
    `rulebots.logic` package root, and names no part of the engine."""
    nodes = list(ast.walk(ast.parse(Path(reference_engine.__file__).read_text())))
    modules = {a.name for n in nodes if isinstance(n, ast.Import) for a in n.names}
    modules |= {"." * n.level + (n.module or "") for n in nodes if isinstance(n, ast.ImportFrom)}
    assert modules == {"rulebots.logic.terms", "rulebots.logic.reader", "rulebots.logic.errors"}, modules
    names = {n.id for n in nodes if isinstance(n, ast.Name)}
    names |= {n.attr for n in nodes if isinstance(n, ast.Attribute)}
    assert not names & {"solver", "database", "Engine", "KnowledgeBase", "unify_terms", "__import__"}
