"""Unification, occurs check and binding application."""

from hypothesis import given, strategies as st

from rulebots.logic import (
    Atom,
    Int,
    Struct,
    collect_vars,
    fresh_var,
    read_term,
    unify_terms,
)
from rulebots.logic.terms import Term, Var


def apply_bindings(t: Term, bindings: dict[int, Term]) -> Term:
    """Deep-substitute an id -> term map produced by unify_terms."""
    k = type(t)
    if k is Var:
        got = bindings.get(t.id)
        return t if got is None else apply_bindings(got, bindings)
    if k is Struct:
        return Struct(t.name, tuple(apply_bindings(a, bindings) for a in t.args))
    return t


def u(a_text, b_text):
    a, names_a = read_term(a_text)
    b, names_b = read_term(b_text)
    return a, b, unify_terms(a, b), names_a, names_b


def test_atoms_unify_with_themselves():
    _, _, result, _, _ = u("foo", "foo")
    assert result == {}


def test_mismatched_atoms_fail():
    assert u("foo", "bar")[2] is None
    assert u("f(1)", "f(2)")[2] is None
    assert u("f(1)", "g(1)")[2] is None
    assert u("f(1)", "f(1,2)")[2] is None


def test_variable_binding():
    a, b, result, names, _ = u("f(X, 2)", "f(1, Y)")
    assert result is not None
    assert apply_bindings(a, result) == apply_bindings(b, result)


def test_shared_variable_propagates():
    a, b, result, names, _ = u("f(X, X)", "f(1, Y)")
    assert result is not None
    assert apply_bindings(names["X"], result) == Int(1)


def test_occurs_check_rejects_cyclic_binding():
    t, names = read_term("f(X)")
    assert unify_terms(names["X"], t) is None
    # X = Y and X = g(Y) cannot both hold with the occurs check on
    pair, _ = read_term("p(f(X,X), f(Y,g(Y)))")
    assert unify_terms(pair.args[0], pair.args[1]) is None


def test_var_var_aliasing():
    a, b, result, names_a, names_b = u("f(X)", "f(Y)")
    assert result is not None
    bound_a = apply_bindings(names_a["X"], result)
    bound_b = apply_bindings(names_b["Y"], result)
    assert bound_a == bound_b


# -- randomized ground-term properties ------------------------------------

ground_terms = st.recursive(
    st.one_of(
        st.integers(-5, 5).map(Int),
        st.sampled_from("abc").map(Atom),
    ),
    lambda children: st.builds(
        lambda name, args: Struct(name, tuple(args)),
        st.sampled_from("fg"),
        st.lists(children, min_size=1, max_size=3),
    ),
    max_leaves=8,
)


@given(ground_terms)
def test_ground_term_unifies_with_itself(t):
    assert unify_terms(t, t) == {}


@given(ground_terms, ground_terms)
def test_ground_unification_is_equality(a, b):
    result = unify_terms(a, b)
    assert (result == {}) == (a == b)
    assert result in ({}, None)


@given(ground_terms)
def test_variable_against_ground_binds(t):
    v = fresh_var("V")
    result = unify_terms(v, t)
    assert result is not None
    assert apply_bindings(v, result) == t


def _poke_holes(t, rng, depth=0):
    """Replace random subterms with fresh variables."""
    if rng.randrange(4) == 0 and depth > 0:
        return fresh_var()
    if isinstance(t, Struct):
        return Struct(t.name, tuple(_poke_holes(a, rng, depth + 1) for a in t.args))
    return t


@given(ground_terms, st.randoms(use_true_random=False))
def test_unifier_reconstructs_ground_term(t, rng):
    template = _poke_holes(t, rng)
    result = unify_terms(template, t)
    assert result is not None
    assert apply_bindings(template, result) == t
    # every template variable ends up ground
    for v in collect_vars(template):
        assert not collect_vars(apply_bindings(v, result))
