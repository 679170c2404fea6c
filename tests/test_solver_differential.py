"""The solver against its accepted predecessor, on generated programs.

`reference_solver` is the generator solver the choicepoint loop replaced.
Each example is a small program over a fixed signature: facts `f/2`, a
dynamic `d/1`, rules `p/1` and `q/1` whose bodies mix conjunction,
disjunction, if-then-else, negation, cut, `call/1`, `findall/3`,
arithmetic, comparisons and updates of `d/1`, a rule `r/2` whose heads
repeat or fix an argument or not, a rule `s/1` of exactly one clause, and
a nondet native `nat/2` with 0, 1 or 2 answers.  A few queries run in
turn on two fresh engines, one per solver, and after each the two must
agree on the answers, the error raised, the steps counted at exit and the
live clauses left in the store.
"""

import re

from hypothesis import HealthCheck, given, settings, strategies as st

import reference_solver
from rulebots.logic import Atom, Engine, Int, KnowledgeBase, LogicError, read_term, term_str

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


def _engine(engine_class, program: str):
    kb = KnowledgeBase()
    kb.declare_dynamic("d", 1)
    kb.register_native("nat", 2, _nat, nondet=True)
    e = engine_class(kb, max_steps=MAX_STEPS, max_depth=MAX_DEPTH, output=lambda s: None)
    e.consult(program)
    return e


def _unnamed(text: str) -> str:
    """Number fresh variables by first appearance; their ids differ between engines."""
    ids: dict[str, str] = {}
    return re.sub(r"_G\d+", lambda m: ids.setdefault(m.group(), f"_V{len(ids)}"), text)


def _outcome(engine, query: str):
    goal, varmap = read_term(query)
    names = {n: v for n, v in varmap.items() if not n.startswith("_")}
    stream = engine.solve(goal, names)
    answers, error = [], None
    try:
        for sol in stream:
            answers.append(_unnamed(" ".join(f"{n}={term_str(t)}" for n, t in sorted(sol.items()))))
    except LogicError as exc:
        error = (type(exc).__name__, str(exc))
    return answers, error, stream._machine.steps


def _live_store(engine):
    kb = engine.kb
    return kb.generation, [
        (key, c.birth, repr(c.template.head), repr(c.template.body))
        for key, pred in sorted(kb._preds.items())
        for c in pred.clauses
        if c.death is None
    ]


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(PROGRAMS, QUERIES)
def test_solver_agrees_with_the_generator_solver(program, queries):
    engine = _engine(Engine, program)
    reference = _engine(reference_solver.Engine, program)
    for query in queries:
        assert _outcome(engine, query) == _outcome(reference, query), (program, query)
        assert _live_store(engine) == _live_store(reference), (program, query)


def test_reference_keeps_its_own_builtin_table():
    from rulebots.logic.database import BUILTINS

    assert reference_solver.BUILTINS is not BUILTINS
    assert reference_solver.BUILTINS.keys() == BUILTINS.keys()
