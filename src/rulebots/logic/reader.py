"""Edinburgh-syntax reader: tokenizer plus a precedence-climbing parser.

Accepts the operator set in terms.INFIX_OPS / terms.PREFIX_OPS, list
sugar, quoted atoms and % line comments.  Operators are fixed; there is
no op/3 directive.
"""

from __future__ import annotations

from rulebots.logic.errors import ParseError
from rulebots.logic.terms import (
    INFIX_OPS,
    INT_MAX,
    INT_MIN,
    NIL,
    PREFIX_OPS,
    SYMBOL_CHARS,
    TRUE,
    Atom,
    Int,
    Struct,
    Term,
    Var,
    fresh_var,
    make_list,
)

_ESCAPES = {"\\": "\\", "'": "'", "n": "\n", "t": "\t"}
_INT_DIGITS = len(str(INT_MAX))
_SOLO_CHARS = {**dict.fromkeys("()[]|,", "punct"), "!": "atom", ";": "atom"}


class _Token:
    __slots__ = ("kind", "value", "line", "col", "glued")

    def __init__(self, kind, value, line, col, glued):
        self.kind = kind  # atom | var | int | punct | end | eof
        self.value = value
        self.line = line
        self.col = col
        self.glued = glued  # no layout between this token and the previous one

    def __repr__(self):
        return f"_Token({self.kind}, {self.value!r}, {self.line}:{self.col})"


def _parse_error(text: str, msg: str, line: int, col: int) -> ParseError:
    lines = text.splitlines()
    return ParseError(msg, line, col, lines[line - 1].strip() if line <= len(lines) else "")


def _scan_quoted(text: str, i: int, line: int, col: int) -> tuple[str, int]:
    """Read the quoted atom whose opening quote is text[i]: (name, end)."""
    buf = []
    j = i + 1
    while j < len(text) and text[j] != "\n":
        ch = text[j]
        if ch == "\\":
            esc = _ESCAPES.get(text[j + 1 : j + 2])
            if esc is None:
                raise _parse_error(text, "bad escape in quoted atom", line, col)
            buf.append(esc)
            j += 2
        elif ch != "'":
            buf.append(ch)
            j += 1
        elif text[j + 1 : j + 2] == "'":
            buf.append("'")
            j += 2
        else:
            return "".join(buf), j + 1
    msg = "newline in quoted atom" if j < len(text) else "unterminated quoted atom"
    raise _parse_error(text, msg, line, col)


def _int_literal(digits: str) -> int:
    """A digit run's value.  A run with more significant digits than
    INT_MAX reads as INT_MAX + 2, which the parser refuses as out of range
    with or without a minus sign; `int` itself refuses a run of more than
    4,300 digits."""
    if len(digits) > _INT_DIGITS:
        # drop leading zeros, keeping the last digit of a run of zeros
        digits = digits[next((k for k, d in enumerate(digits) if int(d)), len(digits) - 1):]
        if len(digits) > _INT_DIGITS:
            return INT_MAX + 2
    return int(digits)


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    n = len(text)
    i = line_start = 0
    line = 1
    glued = False
    while i < n:
        c = text[i]
        if c in " \t\r\n":
            if c == "\n":
                line += 1
                line_start = i + 1
            i += 1
            glued = False
            continue
        if c == "%":
            j = text.find("\n", i)
            if j < 0:
                break  # the eof token takes the comment's column
            i = j
            continue
        col = i - line_start + 1
        if c in _SOLO_CHARS:
            kind, value, j = _SOLO_CHARS[c], c, i + 1
        elif c.isdecimal():
            j = i + 1
            while j < n and text[j].isdecimal():
                j += 1
            kind, value = "int", _int_literal(text[i:j])
        elif c.isalpha() or c == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            kind = "var" if c == "_" or c.isupper() else "atom"
            value = text[i:j]
        elif c == "'":
            kind = "atom"
            value, j = _scan_quoted(text, i, line, col)
        elif c in SYMBOL_CHARS:
            # A dot before layout, a comment or the end of the text ("" is in
            # every string) ends the clause, even inside a symbol run.
            j = i
            while j < n and text[j] in SYMBOL_CHARS and not (
                text[j] == "." and text[j + 1 : j + 2] in " \t\r\n%"
            ):
                j += 1
            if j == i:
                kind, value, j = "end", ".", i + 1
            else:
                kind, value = "atom", text[i:j]
        else:
            raise _parse_error(text, f"unexpected character {c!r}", line, col)
        tokens.append(_Token(kind, value, line, col, glued))
        glued = kind != "end"
        i = j
    tokens.append(_Token("eof", None, line, i - line_start + 1, False))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.varmap: dict[str, Var] = {}

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def fail(self, msg: str, tok: _Token):
        raise _parse_error(self.text, msg, tok.line, tok.col)

    def expect_punct(self, which: str):
        t = self.next()
        if t.kind != "punct" or t.value != which:
            self.fail(f"expected {which!r}", t)

    def reset_vars(self):
        self.varmap = {}

    def _mkvar(self, name: str) -> Var:
        if name == "_":
            return fresh_var("_")
        v = self.varmap.get(name)
        if v is None:
            v = fresh_var(name)
            self.varmap[name] = v
        return v

    def parse_whole(self) -> Term:
        """One whole term.  Nesting deeper than the interpreter's recursion
        limit allows is a ParseError at the token the parser had reached,
        raised once the stack has unwound so that it chains no traceback."""
        try:
            return self.parse(1200)
        except RecursionError:
            pass
        self.fail("term nested too deep", self.peek())

    def _starts_term(self, t: _Token) -> bool:
        if t.kind in ("int", "var", "atom"):
            return True
        return t.kind == "punct" and t.value in ("(", "[")

    def parse(self, max_prio: int) -> Term:
        left, left_prio = self.parse_primary(max_prio)
        while True:
            t = self.peek()
            opname = None
            if t.kind == "atom" and t.value in INFIX_OPS:
                opname = t.value
            elif t.kind == "punct" and t.value == ",":
                opname = ","
            if opname is None:
                return left
            prio, typ = INFIX_OPS[opname]
            if prio > max_prio:
                return left
            left_allow = prio if typ == "yfx" else prio - 1
            if left_prio > left_allow:
                return left
            self.next()
            right_allow = prio if typ == "xfy" else prio - 1
            right = self.parse(right_allow)
            left = Struct(opname, (left, right))
            left_prio = prio

    def parse_primary(self, max_prio: int) -> tuple[Term, int]:
        t = self.next()
        if t.kind == "int":
            if t.value > INT_MAX:
                self.fail("integer literal out of 64-bit range", t)
            return Int(t.value), 0
        if t.kind == "var":
            return self._mkvar(t.value), 0
        if t.kind == "punct":
            if t.value == "(":
                inner = self.parse(1200)
                self.expect_punct(")")
                return inner, 0
            if t.value == "[":
                return self.parse_list(), 0
            self.fail(f"unexpected {t.value!r}", t)
        if t.kind == "atom":
            name = t.value
            nxt = self.peek()
            if nxt.kind == "punct" and nxt.value == "(" and nxt.glued:
                self.next()
                args = [self.parse(999)]
                while True:
                    p = self.next()
                    if p.kind == "punct" and p.value == ",":
                        args.append(self.parse(999))
                        continue
                    if p.kind == "punct" and p.value == ")":
                        break
                    self.fail("expected ',' or ')' in argument list", p)
                return Struct(name, tuple(args)), 0
            if name in PREFIX_OPS and self._starts_term(nxt):
                prio, typ = PREFIX_OPS[name]
                if prio <= max_prio:
                    if name == "-" and nxt.kind == "int":
                        self.next()
                        if -nxt.value < INT_MIN:
                            self.fail("integer literal out of 64-bit range", nxt)
                        return Int(-nxt.value), 0
                    arg_allow = prio if typ == "fy" else prio - 1
                    arg = self.parse(arg_allow)
                    return Struct(name, (arg,)), prio
            return Atom(name), 0
        self.fail("unexpected end of input" if t.kind == "eof" else f"unexpected {t.value!r}", t)

    def parse_list(self) -> Term:
        t = self.peek()
        if t.kind == "punct" and t.value == "]":
            self.next()
            return NIL
        items = [self.parse(999)]
        while True:
            p = self.next()
            if p.kind == "punct" and p.value == ",":
                items.append(self.parse(999))
                continue
            if p.kind == "punct" and p.value == "|":
                tail = self.parse(999)
                self.expect_punct("]")
                return make_list(items, tail)
            if p.kind == "punct" and p.value == "]":
                return make_list(items)
            self.fail("expected ',', '|' or ']' in list", p)


def read_term(text: str) -> tuple[Term, dict[str, Var]]:
    """Parse one term.  Returns the term and the named-variable map."""
    p = _Parser(text)
    term = p.parse_whole()
    t = p.peek()
    if t.kind == "end":
        p.next()
        t = p.peek()
    if t.kind != "eof":
        p.fail("unexpected trailing input", t)
    return term, dict(p.varmap)


def split_clause(term: Term) -> tuple[Term, Term]:
    """Split a read term into (head, body); a fact gets body true."""
    if type(term) is Struct and term.name == ":-" and len(term.args) == 2:
        return term.args[0], term.args[1]
    return term, TRUE


def read_program(text: str) -> list[tuple[Term, Term]]:
    """Parse a clause sequence.  Returns (head, body) pairs in source order."""
    p = _Parser(text)
    clauses: list[tuple[Term, Term]] = []
    while True:
        t = p.peek()
        if t.kind == "eof":
            return clauses
        p.reset_vars()
        term = p.parse_whole()
        endtok = p.next()
        if endtok.kind != "end":
            p.fail("expected '.' at end of clause", endtok)
        head, body = split_clause(term)
        if type(head) not in (Atom, Struct):
            p.fail("clause head must be an atom or compound", t)
        clauses.append((head, body))
