"""Resolution behavior: search order, cut, dynamics, natives, budgets."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import rulebots.logic
from rulebots.logic import (
    Atom,
    BudgetExceededError,
    Engine,
    EvaluationError,
    ExistenceError,
    InstantiationError,
    Int,
    KnowledgeBase,
    NotPermittedError,
    ParseError,
    Struct,
    TermTypeError,
    fresh_var,
    term_str,
)
from rulebots.logic.database import BUILTINS


def engine(program: str = "") -> Engine:
    e = Engine(output=lambda s: None)
    if program:
        e.consult(program)
    return e


def values(solutions, name):
    return [sol[name] for sol in solutions]


def test_clause_order_is_solution_order():
    e = engine("p(1). p(2). p(3).")
    assert values(e.run("p(X)"), "X") == [Int(1), Int(2), Int(3)]


def test_depth_first_conjunction():
    e = engine("p(1). p(2). q(a). q(b).")
    sols = e.run("p(X), q(Y)")
    pairs = [(s["X"].value, s["Y"].name) for s in sols]
    assert pairs == [(1, "a"), (1, "b"), (2, "a"), (2, "b")]


def test_cut_commits_to_first_clause():
    e = engine("p(1) :- !. p(2).")
    assert values(e.run("p(X)"), "X") == [Int(1)]


def test_cut_confined_to_clause_activation():
    # the cut inside q does not prune p's alternatives
    e = engine("q(1) :- !. q(2). p(X) :- q(X). p(9).")
    assert values(e.run("p(X)"), "X") == [Int(1), Int(9)]


def test_cut_inside_call_is_local():
    e = engine("q(1) :- !. q(2).")
    assert values(e.run("call(q(X))"), "X") == [Int(1)]


def test_negation_as_failure():
    e = engine("p(1).")
    assert e.run("\\+ p(2)") == [{}]
    assert e.run("\\+ p(1)") == []


def test_if_then_else_takes_first_condition_solution():
    e = engine("c(1). c(2).")
    sols = e.run("(c(X) -> Y = X ; Y = none)")
    assert [(s["X"].value, s["Y"].value) for s in sols] == [(1, 1)]


def test_if_then_else_falls_through():
    e = engine("t(1).")
    sols = e.run("(t(9) -> Y = hit ; Y = miss)")
    assert values(sols, "Y") == [Atom("miss")]


def test_assertz_appends_and_asserta_prepends():
    e = engine()
    e.kb.declare_dynamic("d", 1)
    e.run("assertz(d(1))")
    e.run("assertz(d(2))")
    e.run("asserta(d(0))")
    assert values(e.run("d(X)"), "X") == [Int(0), Int(1), Int(2)]


def test_logical_update_view_snapshots_enumeration():
    # a clause asserted while d/1 is being enumerated stays invisible
    # to that enumeration
    e = engine()
    e.kb.declare_dynamic("d", 1)
    e.run("assertz(d(1))")
    sols = e.run("d(X), assertz(d(2))")
    assert values(sols, "X") == [Int(1)]
    assert values(e.run("d(X)"), "X") == [Int(1), Int(2)]


def test_retract_is_semidet():
    e = engine()
    e.kb.declare_dynamic("d", 1)
    e.run("assertz(d(1))")
    e.run("assertz(d(2))")
    assert len(e.run("retract(d(_))")) == 1
    assert values(e.run("d(X)"), "X") == [Int(2)]


def test_retracted_clause_stays_visible_to_open_enumeration():
    e = engine()
    e.kb.declare_dynamic("d", 1)
    for n in (1, 2, 3):
        e.run(f"assertz(d({n}))")
    # d(3) goes away while X=1, yet the open enumeration still reaches it
    sols = e.run("d(X), (X =:= 1 -> retract(d(3)) ; true)")
    assert values(sols, "X") == [Int(1), Int(2), Int(3)]
    assert values(e.run("d(X)"), "X") == [Int(1), Int(2)]


def test_second_retract_activation_sees_the_removal():
    e = engine()
    e.kb.declare_dynamic("d", 1)
    for n in (1, 2, 3):
        e.run(f"assertz(d({n}))")
    # the retract in the conjunction only succeeds once: later activations
    # run against a fresh snapshot where d(3) is already gone
    sols = e.run("d(X), retract(d(3))")
    assert values(sols, "X") == [Int(1)]


def test_dynamic_with_no_clauses_fails_quietly():
    e = engine()
    e.kb.declare_dynamic("d", 2)
    assert e.run("d(X, Y)") == []


def test_undefined_predicate_raises():
    with pytest.raises(ExistenceError):
        engine().run("no_such_thing(1)")


def test_findall_collects_all_solutions():
    e = engine("p(1). p(2). p(3).")
    sols = e.run("findall(X, p(X), L)")
    assert len(sols) == 1
    from rulebots.logic import iter_list

    items, _ = iter_list(sols[0]["L"])
    assert items == [Int(1), Int(2), Int(3)]


def test_findall_empty_goal_gives_empty_list():
    e = engine("p(1).")
    sols = e.run("findall(X, p(9), L)")
    assert sols[0]["L"] == Atom("[]")


def test_findall_does_not_bind_goal_vars():
    e = engine("p(1). p(2).")
    sols = e.run("findall(X, p(X), _L), X = after")
    assert values(sols, "X") == [Atom("after")]


def test_arithmetic_comparisons():
    e = engine()
    assert e.run("3 > 2") == [{}]
    assert e.run("2 > 3") == []
    assert e.run("2 >= 2") == [{}]
    assert e.run("2 =< 2") == [{}]
    assert e.run("1 =:= 1") == [{}]
    assert e.run("1 =\\= 2") == [{}]


def test_structural_equality_does_not_evaluate():
    e = engine()
    assert e.run("1 + 2 == 1 + 2") == [{}]
    assert e.run("1 + 2 == 3") == []
    assert e.run("1 + 2 \\== 3") == [{}]


def test_arith_errors():
    e = engine()
    with pytest.raises(EvaluationError):
        e.run("X is 1 // 0")
    with pytest.raises(InstantiationError):
        e.run("X is Y + 1")
    with pytest.raises(TermTypeError):
        e.run("X is foo + 1")
    with pytest.raises(EvaluationError):
        e.run("X is 9223372036854775807 + 1")


def test_type_test_builtins():
    e = engine()
    sols = e.run("var(X)")
    assert len(sols) == 1
    from rulebots.logic import Var

    assert isinstance(sols[0]["X"], Var)
    assert e.run("var(foo)") == []
    assert e.run("nonvar(f(a))") == [{}]
    assert e.run("atom(foo)") == [{}]
    assert e.run("atom(1)") == []
    assert e.run("number(1)") == [{}]
    assert e.run("number(foo)") == []


def test_consulted_predicates_are_extensible():
    # only reserved and native keys are write-protected
    e = engine("p(1).")
    e.run("assertz(p(2))")
    assert values(e.run("p(X)"), "X") == [Int(1), Int(2)]


def test_reserved_predicates_cannot_be_redefined():
    e = engine()
    with pytest.raises(NotPermittedError):
        e.consult("call(X) :- X.")


def _write_paths(kb: KnowledgeBase, key):
    """Every way a program or its host can write to the predicate `key`."""
    name, arity = key
    head = Struct(name, tuple(fresh_var() for _ in range(arity))) if arity else Atom(name)
    e = Engine(kb, output=lambda s: None)
    return {
        "consult": lambda: kb.consult(f"({term_str(head)}) :- true."),
        "assertz": lambda: e.prove(Struct("assertz", (head,))),
        "retract": lambda: e.prove(Struct("retract", (head,))),
        "declare_dynamic": lambda: kb.declare_dynamic(name, arity),
        "register_native": lambda: kb.register_native(name, arity, lambda *args: [None]),
    }


@pytest.mark.parametrize("key", sorted(BUILTINS), ids=lambda key: f"{key[0]}/{key[1]}")
def test_every_reserved_key_is_protected_on_every_write_path(key):
    kb = KnowledgeBase()
    for write in _write_paths(kb, key).values():
        with pytest.raises(NotPermittedError, match="reserved"):
            write()
    assert kb.lookup(key) is None


def test_a_native_key_is_protected_from_rule_writes():
    kb = KnowledgeBase()
    kb.register_native("owned", 1, lambda x: [None])
    paths = _write_paths(kb, ("owned", 1))
    for path in ("consult", "assertz", "retract"):
        with pytest.raises(NotPermittedError, match="native"):
            paths[path]()
    assert kb.lookup(("owned", 1)) is None


def test_reserved_keys_are_filled_by_importing_the_store_alone():
    # the solver fills the store's reserved-name table as it is imported
    code = (
        "import rulebots.logic.database as db\n"
        "try:\n"
        "    db.KnowledgeBase().consult('call(X) :- X.')\n"
        "except db.NotPermittedError as exc:\n"
        "    print(exc)\n"
    )
    src = Path(rulebots.logic.__file__).parents[2]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout == "cannot define reserved predicate call/1\n"


def test_step_budget_stops_runaway_recursion():
    e = Engine(max_steps=2000, output=lambda s: None)
    e.consult("loop :- loop.")
    with pytest.raises(BudgetExceededError):
        e.run("loop")


# -- depth ----------------------------------------------------------------

DEEP = (
    "cnt(0) :- !. cnt(N) :- M is N-1, cnt(M). "
    "mk(0, []) :- !. mk(N, [N|T]) :- M is N-1, mk(M, T). "
    "mkexp(0, 0) :- !. mkexp(N, E + 1) :- M is N-1, mkexp(M, E)."
)


def test_default_depth_limit_is_the_one_reached():
    e = engine(DEEP)
    assert e.run("cnt(1900)") == [{}]
    with pytest.raises(BudgetExceededError, match="depth limit exceeded \\(2000\\)"):
        e.run("cnt(2100)")


def test_deep_proofs_and_terms_need_no_interpreter_stack():
    # the solver, the evaluator and the writer keep their own stacks: a tiny
    # recursion limit changes nothing
    code = (
        "import sys\n"
        "from rulebots.logic import Engine\n"
        "out = []\n"
        "e = Engine(output=out.append)\n"
        f"e.consult({DEEP!r})\n"
        "sys.setrecursionlimit(250)\n"
        "print(len(e.run('cnt(1900)')), len(e.run('mk(1500, L), findall(L, true, [C])')))\n"
        "print(e.run('mkexp(1500, _E), X is _E')[0]['X'].value)\n"
        "print(e.run('mkexp(1500, _E), write(_E)'), out[0][:9], len(out[0]))\n"
    )
    src = Path(rulebots.logic.__file__).parents[2]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout == "1 1\n1500\n[{}] 0 + 1 + 1 6001\n"


def test_error_in_findall_goal_closes_the_stream():
    e = engine("d(1). d(2).")
    goal, names = rulebots.logic.read_term("findall(X, (d(X), Y is X + foo), L)")
    stream = e.solve(goal, names)
    with pytest.raises(TermTypeError):
        stream.next_solution()
    # no stream is left open, so the retracted clause is freed at once
    assert e.run("retract(d(1))") == [{}]
    assert len(e.kb.lookup(("d", 1)).clauses) == 1
    assert stream.next_solution() is None


def test_native_det_takes_first_answer():
    kb = KnowledgeBase()
    kb.register_native("pick", 1, lambda x: [(Int(1),), (Int(2),)])
    e = Engine(kb, output=lambda s: None)
    assert values(e.run("pick(X)"), "X") == [Int(1)]


def test_native_nondet_enumerates():
    kb = KnowledgeBase()
    kb.register_native("pick", 1, lambda x: [(Int(1),), (Int(2),)], nondet=True)
    e = Engine(kb, output=lambda s: None)
    assert values(e.run("pick(X)"), "X") == [Int(1), Int(2)]


def test_native_answers_unify_against_all_args():
    kb = KnowledgeBase()
    kb.register_native("pair", 2, lambda a, b: [(Int(1), Int(2))], nondet=True)
    e = Engine(kb, output=lambda s: None)
    assert e.run("pair(1, X)")[0]["X"] == Int(2)
    assert e.run("pair(2, X)") == []


@pytest.mark.parametrize(
    "answers, query, solutions",
    [
        ([(Atom("a"), Atom("b"))], "twice(X, X)", []),
        ([(Atom("a"), Atom("a"))], "twice(X, X)", [Atom("a")]),
        ([(Atom("a"), Atom("a"))], "X = b, twice(X, X)", []),
        ([(Int(1), Int(2)), (Int(2), Int(2))], "twice(X, X)", [Int(2)]),
    ],
    ids=["differing", "equal", "bound-before", "nondet-undone"],
)
def test_native_answer_binds_a_repeated_variable_once(answers, query, solutions):
    kb = KnowledgeBase()
    kb.register_native("twice", 2, lambda a, b: answers, nondet=len(answers) > 1)
    e = Engine(kb, output=lambda s: None)
    assert values(e.run(query), "X") == solutions


def test_native_none_means_failure_and_plain_success():
    kb = KnowledgeBase()
    kb.register_native("nope", 0, lambda: None)
    kb.register_native("yep", 0, lambda: [None])
    e = Engine(kb, output=lambda s: None)
    assert e.run("nope") == []
    assert e.run("yep") == [{}]


def test_solution_stream_is_resumable():
    e = engine("p(1). p(2).")
    from rulebots.logic import read_term

    goal, names = read_term("p(X)")
    stream = e.solve(goal, names)
    first = stream.next_solution()
    assert first["X"] == Int(1)
    second = stream.next_solution()
    assert second["X"] == Int(2)
    assert stream.next_solution() is None


# -- step accounting ------------------------------------------------------

MEMBER = "mem(X, [X|_]). mem(X, [_|T]) :- mem(X, T)."

# (program, query, solutions, steps to enumerate every solution).  One step
# per goal entered, per ','/2 node entered and per fact's `true`.  The
# counts decide which queries a step budget stops, so a solver change
# must leave them exactly as they are.
STEP_COUNTS = [
    (MEMBER, "mem(X, [1,2,3])", 3, 7),
    (MEMBER + " first(X) :- mem(X, [5,6,7]), !.", "first(X)", 1, 5),
    ("mx(X, Y, X) :- X >= Y, !. mx(_, Y, Y).", "mx(3, 5, M)", 1, 4),
    ("e(a, b). e(a, c). e(b, d).", "e(a, X), e(X, Y)", 1, 7),
    ("n(1). n(2).", "findall(_I, (n(_), findall(_B, n(_B), _I)), L)", 1, 13),
    ("c(1). c(2).", "(c(X) -> R = X ; R = none)", 1, 4),
    ("p(1).", "\\+ \\+ p(X), X = 7", 1, 6),
    ("d(1). d(1).", "retract(d(1)), retract(d(1)), \\+ retract(d(1))", 1, 6),
    ("cnt(0) :- !. cnt(N) :- M is N-1, cnt(M).", "cnt(40)", 1, 122),
    ("reach(X, X). reach(X, Z) :- edg(X, Y), reach(Y, Z). "
     "edg(a, b). edg(b, c). edg(c, d).", "reach(a, Z)", 4, 19),
    ("app([], L, L). app([H|T], L, [H|R]) :- app(T, L, R).", "app(X, Y, [1,2,3])", 4, 8),
]


@pytest.mark.parametrize("program,query,solutions,steps", STEP_COUNTS,
                         ids=[q for _, q, _, _ in STEP_COUNTS])
def test_step_counts_are_pinned(program, query, solutions, steps):
    exact = Engine(max_steps=steps, output=lambda s: None)
    exact.consult(program)
    assert len(exact.run(query)) == solutions
    short = Engine(max_steps=steps - 1, output=lambda s: None)
    short.consult(program)
    with pytest.raises(BudgetExceededError):
        short.run(query)


# -- compiled programs shared between engines -----------------------------

SHARED = "s(1). s(2). twice(X, Y) :- s(X), Y is X * 2."


def test_engines_consulting_one_text_keep_separate_stores():
    a, b = engine(SHARED), engine(SHARED)
    a.run("assertz(s(3))")
    b.run("retract(s(1))")
    assert values(a.run("s(X)"), "X") == [Int(1), Int(2), Int(3)]
    assert values(b.run("s(X)"), "X") == [Int(2)]
    assert values(a.run("twice(_, Y)"), "Y") == [Int(2), Int(4), Int(6)]
    assert values(engine(SHARED).run("s(X)"), "X") == [Int(1), Int(2)]


def test_syntax_error_leaves_store_untouched_after_shared_consult():
    engine(SHARED)
    e = engine(SHARED)
    for _ in range(2):  # a failed parse is never cached
        with pytest.raises(ParseError):
            e.consult("s(9). s(")
    assert values(e.run("s(X)"), "X") == [Int(1), Int(2)]


def test_shared_text_still_checks_each_engines_natives():
    engine("owned(1). other(2).")
    kb = KnowledgeBase()
    kb.register_native("owned", 1, lambda x: [None])
    e = Engine(kb, output=lambda s: None)
    with pytest.raises(NotPermittedError):
        e.consult("owned(1). other(2).")
    with pytest.raises(ExistenceError):
        e.run("other(X)")
    for _ in range(2):
        with pytest.raises(NotPermittedError):
            engine().consult("call(X) :- X.")


# -- how a call is dispatched -----------------------------------------------


def test_native_over_a_fully_retracted_predicate_answers_the_call():
    e = engine("tag(1). tag(2). asks(X) :- tag(X).")
    e.run("retract(tag(_)), retract(tag(_))")
    e.kb.register_native("tag", 1, lambda x: [(Int(7),)])
    assert values(e.run("tag(X)"), "X") == [Int(7)]
    assert values(e.run("asks(X)"), "X") == [Int(7)]
    assert values(e.run("call(tag(X))"), "X") == [Int(7)]


def _steps(e: Engine, query: str) -> int:
    """The fewest steps that enumerate every solution of `query`."""
    lo, hi = 1, 1000
    while lo < hi:
        e.max_steps = mid = (lo + hi) // 2
        try:
            e.run(query)
            hi = mid
        except BudgetExceededError:
            lo = mid + 1
    return lo


# Builtin bodies over t/2's arguments: tests, unification, arithmetic and
# each control construct, in solutions and in failure.
BUILTIN_BODIES = [
    "X is 2 * 3 + 1, Y = X",
    "X = f(Y), Y = 1",
    "X = 1, Y = 2, X < Y",
    "X = 3, Y = 2, X =< Y",
    "X == Y",
    "X = a, X \\== Y",
    "X \\= a, Y = b",
    "(X = 1 ; X = 2), Y is X * 10",
    "(X = 1 ; X = 2), !, Y = X",
    "(X = 1 -> Y = yes ; Y = no)",
    "(fail -> Y = yes ; Y = no), X = Y",
    "\\+ X = a, Y = free",
    "findall(Z, (Z = 1 ; Z = 2), X), Y = done",
    "var(X), atom(a), number(3), nonvar(f(Y)), Y = 0",
    "true, X = Y",
    "fail",
]


def _answers(e: Engine) -> list[str]:
    """t/2's answers as text, unbound variables numbered by first appearance."""
    texts = []
    for s in e.run("t(X, Y)"):
        ids: dict[str, str] = {}
        text = term_str(Struct("t", (s["X"], s["Y"])))
        texts.append(re.sub(r"_G\d+", lambda m: ids.setdefault(m.group(), f"_V{len(ids)}"), text))
    return texts


@pytest.mark.parametrize("body", BUILTIN_BODIES)
def test_a_builtin_acts_alike_compiled_called_and_asserted(body):
    compiled = engine(f"t(X, Y) :- {body}.")
    called = engine(f"t(X, Y) :- call(({body})).")
    asserted = engine()
    asserted.run(f"assertz((t(X, Y) :- {body}))")
    assert _answers(called) == _answers(asserted) == _answers(compiled)
    steps = _steps(compiled, "t(X, Y)")
    assert _steps(asserted, "t(X, Y)") == steps
    assert _steps(called, "t(X, Y)") == steps + 1  # the call/1 goal is one more step


@pytest.mark.parametrize(
    "program,query",
    [
        ("", "nothing_here(1)"),
        ("p(X) :- nothing_here(X).", "p(1)"),
        ("p(X) :- X = 1, nothing_here(X).", "p(_)"),
        ("", "call(nothing_here(1))"),
        ("p(G) :- G.", "p(nothing_here(1))"),
        ("", "assertz((p(X) :- nothing_here(X)))"),
        ("", "findall(X, nothing_here(X), _)"),
    ],
)
def test_an_unknown_predicate_raises_existence_error(program, query):
    e = engine(program)
    if query.startswith("assertz"):  # the asserted clause is called by a later query
        e.run(query)
        query = "p(1)"
    with pytest.raises(ExistenceError, match="nothing_here/1"):
        e.run(query)


def test_the_occurs_check_holds_in_a_head_match():
    e = engine("p(X, f(X)). q(X, X).")
    assert e.run("p(Y, Y)") == []
    assert e.run("q(Y, f(Y))") == []
    assert e.run("q(f(Y), Y)") == []
    e.run("assertz(r(X, g(X)))")
    assert e.run("r(Y, Y)") == []
    assert e.run("Y = g(Y)") == []
    assert e.run("p(a, f(a)), q(3, 3), r(b, g(b))") == [{}]
