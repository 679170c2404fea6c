"""Table-driven interpreter conformance: hand-enumerated query answers.

Each case is (name, program, query, expected).  Expected is either a list
of solutions, one name -> rendered-term dict per solution in order, or an
exception type.  Answers were worked out by hand from the resolution
rules; nothing here is generated by the engine under test.  The rows in
`REFERENCE_CASES` also check the differential test's reference interpreter.
"""

import time

import pytest

from reference_engine import Reference
from rulebots.logic import (
    BudgetExceededError,
    Engine,
    EvaluationError,
    ExistenceError,
    InstantiationError,
    NotPermittedError,
    TermTypeError,
    read_term,
    term_str,
)

MEMBER = "mem(X, [X|_]). mem(X, [_|T]) :- mem(X, T)."
COUNTDOWN = "cnt(0) :- !. cnt(N) :- M is N-1, cnt(M)."
MAKE_LIST = "mk(0, []) :- !. mk(N, [N|T]) :- M is N-1, mk(M, T)."
MAKE_SUM = "mkexp(0, 0) :- !. mkexp(N, E + 1) :- M is N-1, mkexp(M, E)."
DOWN_FROM_1500 = "[" + ",".join(str(n) for n in range(1500, 0, -1)) + "]"

CASES = [
    # -- unification --------------------------------------------------
    ("unify_var", "", "X = 1", [{"X": "1"}]),
    ("unify_struct", "", "f(X, b) = f(a, Y)", [{"X": "a", "Y": "b"}]),
    ("unify_functor_mismatch", "", "f(X) = g(X)", []),
    ("unify_shared_var_conflict", "", "f(X, X) = f(1, 2)", []),
    ("occurs_check_direct", "", "X = f(X)", []),
    ("occurs_check_via_alias", "", "f(X, g(X)) = f(Y, Y)", []),
    ("unify_list_split", "", "[H|T] = [1,2,3]", [{"H": "1", "T": "[2,3]"}]),
    # the head's slot takes the query variable itself, so an answer left
    # unbound resolves to that variable
    ("unbound_answer_is_the_query_variable", "p(_).", "p(X)", [{"X": "X"}]),
    ("not_unify_holds", "", "1 \\= 2", [{}]),
    ("not_unify_fails_when_unifiable", "", "f(A, B) \\= f(1, 2)", []),
    # -- backtracking order -------------------------------------------
    ("facts_in_clause_order", "p(1). p(2). p(3).", "p(X)",
     [{"X": "1"}, {"X": "2"}, {"X": "3"}]),
    ("conjunction_cross_product", "p(1). p(2). q(a). q(b).", "p(X), q(Y)",
     [{"X": "1", "Y": "a"}, {"X": "1", "Y": "b"},
      {"X": "2", "Y": "a"}, {"X": "2", "Y": "b"}]),
    ("join_through_shared_var", "e(a, b). e(a, c). e(b, d).", "e(a, X), e(X, Y)",
     [{"X": "b", "Y": "d"}]),
    ("member_enumerates", MEMBER, "mem(X, [1,2,3])",
     [{"X": "1"}, {"X": "2"}, {"X": "3"}]),
    ("member_proves_twice", MEMBER, "mem(2, [1,2,3,2])", [{}, {}]),
    ("disjunction_left_first", "", "(X = l ; X = r)", [{"X": "l"}, {"X": "r"}]),
    # -- cut ----------------------------------------------------------
    ("cut_prunes_clauses", "p(1) :- !. p(2).", "p(X)", [{"X": "1"}]),
    ("cut_max_first_clause", "mx(X, Y, X) :- X >= Y, !. mx(_, Y, Y).",
     "mx(5, 3, M)", [{"M": "5"}]),
    ("cut_max_second_clause", "mx(X, Y, X) :- X >= Y, !. mx(_, Y, Y).",
     "mx(3, 5, M)", [{"M": "5"}]),
    ("cut_confined_to_callee", "q(1) :- !. q(2). p(X) :- q(X). p(9).",
     "p(X)", [{"X": "1"}, {"X": "9"}]),
    ("cut_stops_alternatives_once", MEMBER + " first(X) :- mem(X, [5,6,7]), !.",
     "first(X)", [{"X": "5"}]),
    ("cut_local_to_findall_goal", MEMBER,
     "findall(_X, (mem(_X, [1,2]), !), L)", [{"L": "[1]"}]),
    # a cut inside findall's or \+'s goal must not leave its bindings behind
    ("cut_in_findall_goal_leaves_template_free", MEMBER,
     "findall(X, (mem(X, [1,2]), !), L), X = free", [{"L": "[1]", "X": "free"}]),
    ("cut_in_called_findall_goal_leaves_template_free", "",
     "findall(X, call((X = 1, !)), L), X = free", [{"L": "[1]", "X": "free"}]),
    ("cut_failing_naf_goal_leaves_var_free", "",
     "\\+ (X = 1, !, fail ; true), X = 2", [{"X": "2"}]),
    # a cut in an if-then-else condition is local to it; one in the
    # then-branch or in a branch of ';' cuts the clause
    ("cut_in_ite_condition_is_local", "c(1). c(2). t(X) :- ((c(X), !) -> true ; true). t(9).",
     "t(X)", [{"X": "1"}, {"X": "9"}]),
    ("cut_in_then_branch_cuts_clause", "t(X) :- (true -> ! ; true), X = 1. t(2).",
     "t(X)", [{"X": "1"}]),
    ("cut_in_else_branch_cuts_clause", "t(X) :- (fail -> true ; !), X = 1. t(2).",
     "t(X)", [{"X": "1"}]),
    ("cut_in_disjunction_cuts_clause", "t(X) :- (X = 1, ! ; X = 2). t(3).",
     "t(X)", [{"X": "1"}]),
    # -- negation as failure ------------------------------------------
    ("naf_of_fail", "", "\\+ fail", [{}]),
    ("naf_provable_goal_fails", "p(1).", "\\+ p(1)", []),
    ("naf_unprovable_goal_holds", "p(1).", "\\+ p(2)", [{}]),
    ("naf_with_free_var_fails", "q(a).", "\\+ q(X)", []),
    ("double_negation_leaves_var_free", "p(1).", "\\+ \\+ p(X), X = 7",
     [{"X": "7"}]),
    # -- if-then-else -------------------------------------------------
    ("ite_then", "", "(1 =:= 1 -> R = yes ; R = no)", [{"R": "yes"}]),
    ("ite_else", "", "(1 =:= 2 -> R = yes ; R = no)", [{"R": "no"}]),
    ("ite_commits_condition", "c(1). c(2).", "(c(X) -> R = X ; R = none)",
     [{"R": "1", "X": "1"}]),
    ("ite_then_branch_backtracks", "b(10). b(20).", "(true -> b(X) ; fail)",
     [{"X": "10"}, {"X": "20"}]),
    ("bare_if_then_fails_without_else", "", "(fail -> R = yes)", []),
    # -- assert/retract and the update view ---------------------------
    # the running query resolves against the store as of its start:
    # its own asserts stay invisible, its retracts stay visible
    ("asserts_invisible_to_running_query", "d(0).",
     "assertz(d(1)), d(X)", [{"X": "0"}]),
    ("retract_keeps_clause_visible_in_query", "d(1). d(2).",
     "retract(d(1)), d(X)", [{"X": "1"}, {"X": "2"}]),
    ("retract_is_semidet", "d(1).",
     "retract(d(1)), \\+ retract(d(1))", [{}]),
    ("retract_removes_one_copy_per_call", "d(1). d(1).",
     "retract(d(1)), retract(d(1)), \\+ retract(d(1))", [{}]),
    ("retract_unmatched_fails", "d(1).", "retract(d(2))", []),
    # retract only removes clauses born at or before the query's snapshot
    # and still live: never one the query cannot see
    ("retract_skips_clause_asserted_by_query", "d(0).",
     "assertz(d(1)), retract(d(1))", []),
    ("retract_takes_clause_born_before_query", "d(0).",
     "assertz(d(0)), retract(d(0)), \\+ retract(d(0))", [{}]),
    # a clause added in front of a predicate under enumeration neither
    # shows up in it nor makes it yield an earlier clause again
    ("asserta_unseen_by_running_enumeration", "p(1). p(2).",
     "findall(_X, (p(_X), asserta(p(9))), L)", [{"L": "[1,2]"}]),
    ("asserta_each_answer_still_reaches_the_last", "p(1). p(2).",
     "p(X), asserta(p(0)), X == 2", [{"X": "2"}]),
    ("assertz_unseen_by_running_enumeration", "p(1). p(2).",
     "findall(_X, (p(_X), assertz(p(9))), L)", [{"L": "[1,2]"}]),
    # -- findall ------------------------------------------------------
    ("findall_collects_in_order", "p(3). p(1). p(2).", "findall(_V, p(_V), L)",
     [{"L": "[3,1,2]"}]),
    ("findall_empty", "p(1).", "findall(_V, p(9), L)", [{"L": "[]"}]),
    ("findall_structured_template", "pr(1, a). pr(2, b).",
     "findall(f(_X, _Y), pr(_X, _Y), L)", [{"L": "[f(1,a),f(2,b)]"}]),
    ("findall_nested", "n(1). n(2).",
     "findall(_I, (n(_), findall(_B, n(_B), _I)), L)",
     [{"L": "[[1,2],[1,2]]"}]),
    ("findall_leaves_template_free", "p(1). p(2).",
     "findall(X, p(X), _L), X = free", [{"X": "free"}]),
    # -- arithmetic ---------------------------------------------------
    ("arith_precedence", "", "X is 2 + 3 * 4", [{"X": "14"}]),
    ("arith_parens", "", "X is (2 + 3) * 4", [{"X": "20"}]),
    ("arith_mod_follows_divisor_sign", "", "X is -7 mod 3", [{"X": "2"}]),
    ("arith_floor_division", "", "X is -7 // 2", [{"X": "-4"}]),
    ("arith_min_max_abs", "", "X is min(3, max(1, 2)) + abs(-5)", [{"X": "7"}]),
    ("arith_comparison_chain", "",
     "3 > 2, 2 >= 2, 1 =< 1, 1 < 2, 5 =:= 5, 4 =\\= 5", [{}]),
    ("structural_eq_does_not_evaluate", "", "1 + 2 == 3", []),
    # -- errors -------------------------------------------------------
    ("error_undefined_predicate", "", "no_such(1)", ExistenceError),
    ("error_unbound_arith", "", "X is Y + 1", InstantiationError),
    ("error_division_by_zero", "", "X is 1 // 0", EvaluationError),
    ("error_atom_in_arith", "", "X is foo + 1", TermTypeError),
    ("error_int64_overflow", "", "X is 9223372036854775807 + 1", EvaluationError),
    ("error_assert_reserved", "", "assertz(true)", NotPermittedError),
    ("error_call_unbound", "", "call(X)", InstantiationError),
    ("error_call_integer", "", "call(1)", TermTypeError),
]
# The differential test's reference interpreter runs every row above; those below need deep stacks.
REFERENCE_CASES = list(CASES)
CASES += [
    # -- depth: proofs and terms deeper than Python's own stack -------
    ("depth_1900_within_default_limit", COUNTDOWN, "cnt(1900)", [{}]),
    ("depth_2100_past_default_limit", COUNTDOWN, "cnt(2100)", BudgetExceededError),
    ("deep_list_answer", MAKE_LIST, "mk(1500, L)", [{"L": DOWN_FROM_1500}]),
    ("findall_copies_deep_list", MAKE_LIST, "mk(1500, _L), findall(_L, true, [C])",
     [{"C": DOWN_FROM_1500}]),
    # ((0 + 1) + 1) + ... nests 1,500 deep on its left
    ("arith_on_deep_expression", MAKE_SUM, "mkexp(1500, _E), X is _E", [{"X": "1500"}]),
    ("write_deep_expression", MAKE_SUM, "mkexp(1500, _E), write(_E)", [{}]),
    # a long ground list in a consulted or asserted clause needs no interpreter stack
    ("consult_fact_holding_deep_list", f"saved({DOWN_FROM_1500}).", "saved(L)",
     [{"L": DOWN_FROM_1500}]),
    ("assert_call_retract_deep_list_clause", f"{MAKE_LIST} saved({DOWN_FROM_1500}).",
     "mk(1500, _L), assertz(saved(_L)), saved(_L), retract(saved(_L)), \\+ retract(saved(_L))",
     [{}]),
]


def run_case(program, query, engine=None):
    """`query`'s answers as text, on `engine` or a fresh `Engine`, after consulting `program`."""
    e = engine or Engine(max_steps=200_000, output=lambda s: None)
    if program:
        e.consult(program)
    goal, varmap = read_term(query)
    names = {n: v for n, v in varmap.items() if not n.startswith("_")}
    return [{name: term_str(term) for name, term in sol.items()} for sol in e.solve(goal, names)]


@pytest.mark.parametrize("name,program,query,expected",
                         CASES, ids=[c[0] for c in CASES])
def test_conformance_case(name, program, query, expected, engine=None):
    if isinstance(expected, type):
        with pytest.raises(expected):
            run_case(program, query, engine)
    else:
        assert run_case(program, query, engine) == expected


@pytest.mark.parametrize("name,program,query,expected",
                         REFERENCE_CASES, ids=[c[0] for c in REFERENCE_CASES])
def test_reference_conformance_case(name, program, query, expected):
    test_conformance_case(name, program, query, expected, Reference())


def test_budget_case_counts_too():
    e = Engine(max_steps=2000, output=lambda s: None)
    e.consult("loop :- loop.")
    with pytest.raises(BudgetExceededError):
        e.run("loop")


def test_suite_size_and_speed():
    assert len(CASES) + 1 >= 40
    start = time.perf_counter()
    for _, program, query, expected in CASES:
        if isinstance(expected, type):
            try:
                run_case(program, query)
            except expected:
                pass
        else:
            run_case(program, query)
    assert time.perf_counter() - start < 5.0
