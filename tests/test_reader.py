"""Edinburgh-syntax reader: tokens, operators, clauses."""

import sys

import pytest
from hypothesis import given, settings, strategies as st

from rulebots.logic import (
    Atom,
    Engine,
    Int,
    KnowledgeBase,
    ParseError,
    Struct,
    make_list,
    read_program,
    read_term,
    term_str,
)
from rulebots.logic.terms import INFIX_OPS, INT_MAX, INT_MIN, PREFIX_OPS


def parse(text):
    term, _ = read_term(text)
    return term


def test_plain_structures():
    assert parse("foo") == Atom("foo")
    assert parse("foo(bar, 3)") == Struct("foo", (Atom("bar"), Int(3)))
    assert parse("f(g(h(1)))") == Struct("f", (Struct("g", (Struct("h", (Int(1),)),)),))


def test_variables_share_by_name():
    term, names = read_term("f(X, Y, X)")
    assert term.args[0] is term.args[2]
    assert term.args[0] is not term.args[1]
    assert set(names) == {"X", "Y"}


def test_anonymous_vars_are_distinct():
    term, names = read_term("f(_, _)")
    assert term.args[0] is not term.args[1]
    assert "_" not in names


def test_negative_integers():
    assert parse("-42") == Int(-42)
    assert parse("f(-1)") == Struct("f", (Int(-1),))


def test_quoted_atoms():
    assert parse("'hello world'") == Atom("hello world")
    assert parse("'it''s'") == Atom("it's")
    assert parse("'a''b'") == Atom("a'b")


def test_symbol_atom_before_a_dot_inside_arguments():
    assert parse("f(=.)") == Struct("f", (Atom("=."),))


def test_comments_are_skipped():
    prog = read_program("a. % trailing\n% full line\nb.")
    assert [head for head, _ in prog] == [Atom("a"), Atom("b")]


def test_lists():
    assert parse("[]") == Atom("[]")
    assert parse("[1,2]") == make_list([Int(1), Int(2)])
    inner, _ = read_term("[1|T]")
    assert inner.name == "."
    assert inner.args[0] == Int(1)


def test_operator_precedence():
    # X is 1 + 2 * 3 parses as 1 + (2 * 3)
    t = parse("X is 1 + 2 * 3")
    rhs = t.args[1]
    assert rhs.name == "+"
    assert rhs.args[1].name == "*"


def test_left_associative_arithmetic():
    t = parse("X is 1 - 2 - 3")
    rhs = t.args[1]
    assert rhs == Struct("-", (Struct("-", (Int(1), Int(2))), Int(3)))


def test_conjunction_is_right_associative():
    t = parse("a, b, c")
    assert t.name == ","
    assert t.args[0] == Atom("a")
    assert t.args[1].name == ","


def test_if_then_else_shape():
    t = parse("(c -> t ; e)")
    assert t.name == ";"
    assert t.args[0].name == "->"


def test_clause_splitting():
    prog = read_program("head(X) :- body(X), more.\nfact.\n")
    assert len(prog) == 2
    head, body = prog[0]
    assert head == Struct("head", (head.args[0],))
    assert body.name == ","
    _, fact_body = prog[1]
    assert fact_body == Atom("true")


def test_round_trip_through_writer():
    for text in ["f(a,b)", "[1,2,3]", "a :- b,c", "X is 1 + 2", "\\+ g(X)", "'{}'", "'.'", "'=.'", "-(1)"]:
        term, _ = read_term(text)
        again, _ = read_term(term_str(term))
        # compare with variables normalized away by rendering both
        assert term_str(again) == term_str(term)


OPERATOR_ATOMS = sorted({*INFIX_OPS, *PREFIX_OPS})
AWKWARD_ATOMS = ["a", "[]", "!", ";", "{}", ".", "'", "Abc", "", "=.", "a b", "\\"]


def _compounds(children):
    return st.one_of(
        st.builds(lambda op, l, r: Struct(op, (l, r)), st.sampled_from(sorted(INFIX_OPS)), children, children),
        st.builds(lambda op, x: Struct(op, (x,)), st.sampled_from(sorted(PREFIX_OPS)), children),
        st.builds(lambda name, args: Struct(name, tuple(args)),
                  st.sampled_from(["f", "-", "."]), st.lists(children, min_size=1, max_size=3)),
        st.lists(children, max_size=3).map(make_list),
    )


GROUND_TERMS = st.recursive(
    st.one_of(
        st.sampled_from(OPERATOR_ATOMS + AWKWARD_ATOMS).map(Atom),
        st.sampled_from([0, 1, -1, INT_MAX, INT_MIN]).map(Int),
    ),
    _compounds,
    max_leaves=8,
)


@settings(max_examples=2000, deadline=None)
@given(GROUND_TERMS)
def test_written_terms_read_back(term):
    # operator atoms as operands, such as =(-, 1), must come back as written
    assert read_term(term_str(term))[0] == term


@pytest.mark.parametrize(
    "bad",
    [
        "f(",
        "f(a,)",
        ")",
        "f(a) g(b)",
        "1 2",
        "'unterminated",
        "",
        "f(²)",
        pytest.param("f(" + "1" * 5000 + ")", id="f(5000 ones)"),
        pytest.param("9" * 4301, id="4301 nines"),
        "9223372036854775808",
        "-9223372036854775809",
        pytest.param("-" + "1" * 5000, id="-5000 ones"),
    ],
)
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        read_term(bad)


def test_leading_zeros_keep_a_long_digit_run_in_range():
    # a long run is out of range only by its significant digits
    assert read_term("007")[0] == Int(7)
    assert read_term("0" * 5000 + "42")[0] == Int(42)
    assert read_term("0" * 30 + str(INT_MAX))[0] == Int(INT_MAX)
    assert read_term("-" + "0" * 30 + str(-INT_MIN))[0] == Int(INT_MIN)
    assert read_term("0" * 20)[0] == Int(0)
    assert read_term("-" + "0" * 5000)[0] == Int(0)
    assert read_term("\u0660" * 20)[0] == Int(0)  # Arabic-Indic zeros
    with pytest.raises(ParseError, match="out of 64-bit range"):
        read_program("p(" + "0" * 30 + str(INT_MAX + 1) + ").")


DEPTH = sys.getrecursionlimit()
TOO_DEEP = {
    "arguments": "p :- f(" + "f(" * DEPTH + "a" + ")" * DEPTH + ").",
    "lists": "p :- f(" + "[" * DEPTH + "]" * DEPTH + ").",
    "conjuncts": "p :- " + ", ".join(["a"] * 2 * DEPTH) + ".",
}


@pytest.mark.parametrize("shape", sorted(TOO_DEEP))
def test_nesting_past_the_recursion_limit_is_a_parse_error(shape):
    engine = Engine(KnowledgeBase(), output=lambda s: None)
    for read in (read_term, read_program, engine.consult):
        with pytest.raises(ParseError) as info:
            read(TOO_DEEP[shape])
        assert str(info.value).startswith("term nested too deep at line 1, column ")
    engine.consult("q(f([[a]])).")
    assert engine.run("q(f([[a]]))") == [{}]


def test_program_requires_terminating_dot():
    with pytest.raises(ParseError):
        read_program("a :- b")


@pytest.mark.parametrize(
    ("text", "message", "line", "col", "read"),
    [
        ("'abc", "unterminated quoted atom", 1, 1, read_program),
        ("'a\\qb'", "bad escape in quoted atom", 1, 1, read_program),
        ("'a\nb'", "newline in quoted atom", 1, 1, read_program),
        ("x.\r\n y ` z", "unexpected character '`'", 2, 4, read_program),
        ("a :- b % no dot", "expected '.' at end of clause", 1, 8, read_program),
        ("a :- b.\n  c :- #d.", "expected '.' at end of clause", 2, 9, read_program),
        ("foo (a)", "unexpected trailing input", 1, 5, read_term),
        pytest.param("f(\n  " + "1" * 5000 + ")", "integer literal out of 64-bit range", 2, 3,
                     read_term, id="5000-digit literal"),
        pytest.param("p(" + "0" * 5000 + "1.", "expected ',' or ')' in argument list", 1, 5004,
                     read_program, id="5000 leading zeros"),
    ],
)
def test_parse_error_positions(text, message, line, col, read):
    with pytest.raises(ParseError) as info:
        read(text)
    assert str(info.value).split(" at line")[0] == message
    assert (info.value.line, info.value.col) == (line, col)
