"""Term representation and the term writer.

Four concrete kinds: atoms, integers, variables and compounds.  Terms are
immutable; variable identity is the numeric id, and bindings live outside
the term in the solver's binding store.
"""

from __future__ import annotations

import itertools

# One process-wide id stream.  Ids only need to be unique; renaming and
# queries draw from the same stream so they can never collide in one
# binding store.
_var_ids = itertools.count(1)


def fresh_var(name: str | None = None) -> "Var":
    return Var(next(_var_ids), name)


class Term:
    __slots__ = ()


class Atom(Term):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self):
        return f"Atom({self.name!r})"

    def __eq__(self, other):
        return type(other) is Atom and other.name == self.name

    def __hash__(self):
        return hash(("atom", self.name))


class Int(Term):
    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value

    def __repr__(self):
        return f"Int({self.value})"

    def __eq__(self, other):
        return type(other) is Int and other.value == self.value

    def __hash__(self):
        return hash(("int", self.value))


class Var(Term):
    __slots__ = ("id", "name")

    def __init__(self, vid: int, name: str | None = None):
        self.id = vid
        self.name = name

    def __repr__(self):
        return f"Var({self.id}, {self.name!r})"

    # identity semantics: two Var objects are the same variable iff ids match
    def __eq__(self, other):
        return type(other) is Var and other.id == self.id

    def __hash__(self):
        return hash(("var", self.id))


class Struct(Term):
    __slots__ = ("name", "args")

    def __init__(self, name: str, args: tuple):
        self.name = name
        self.args = args

    def __repr__(self):
        return f"Struct({self.name!r}, {self.args!r})"

    def __eq__(self, other):
        return type(other) is Struct and other.name == self.name and other.args == self.args

    def __hash__(self):
        return hash(("struct", self.name, self.args))


TRUE = Atom("true")
NIL = Atom("[]")

# 64-bit signed integer domain for arithmetic and literals.
INT_MIN = -(2**63)
INT_MAX = 2**63 - 1

# Operator tables shared by the reader and the writer.
# type is one of xfx / xfy / yfx for infix, fy / fx for prefix.
INFIX_OPS: dict[str, tuple[int, str]] = {
    ":-": (1200, "xfx"),
    ";": (1100, "xfy"),
    "->": (1050, "xfy"),
    ",": (1000, "xfy"),
    "=": (700, "xfx"),
    "\\=": (700, "xfx"),
    "==": (700, "xfx"),
    "\\==": (700, "xfx"),
    "is": (700, "xfx"),
    "<": (700, "xfx"),
    ">": (700, "xfx"),
    "=<": (700, "xfx"),
    ">=": (700, "xfx"),
    "=:=": (700, "xfx"),
    "=\\=": (700, "xfx"),
    "+": (500, "yfx"),
    "-": (500, "yfx"),
    "*": (400, "yfx"),
    "//": (400, "yfx"),
    "mod": (400, "yfx"),
}

PREFIX_OPS: dict[str, tuple[int, str]] = {
    "\\+": (900, "fy"),
    "-": (200, "fy"),
}

# Characters that run together into one symbol atom, such as =.. or \==.
SYMBOL_CHARS = "+-*/\\^<>=~:.?@#$&"


def functor_key(t: Term) -> tuple[str, int] | None:
    """(name, arity) for callable terms, None for ints and variables."""
    k = type(t)
    if k is Atom:
        return (t.name, 0)
    if k is Struct:
        return (t.name, len(t.args))
    return None


def make_list(items, tail: Term = NIL) -> Term:
    out = tail
    for item in reversed(list(items)):
        out = Struct(".", (item, out))
    return out


def iter_list(t: Term):
    """Split a list term into (elements, tail).  A proper list has tail []."""
    items = []
    while type(t) is Struct and t.name == "." and len(t.args) == 2:
        items.append(t.args[0])
        t = t.args[1]
    return items, t


def collect_vars(t: Term) -> list[Var]:
    """All variables in first-occurrence order (each id once)."""
    acc = []
    seen = set()
    stack = [t]
    while stack:
        x = stack.pop()
        k = type(x)
        if k is Var:
            if x.id not in seen:
                seen.add(x.id)
                acc.append(x)
        elif k is Struct:
            stack.extend(reversed(x.args))
    return acc


_PLAIN_ATOM_FIRST = "abcdefghijklmnopqrstuvwxyz"
_SOLO_ATOMS = {"[]", "!", ";"}


def _atom_str(name: str) -> str:
    """An atom, bare where the reader reads it back as itself, else quoted."""
    if not name:
        bare = False
    elif name[0] in _PLAIN_ATOM_FIRST:
        bare = all(c.isalnum() or c == "_" for c in name)
    else:
        # A symbol atom that ends in a dot would read back as a clause end.
        bare = name in _SOLO_ATOMS or name[-1] != "." and all(c in SYMBOL_CHARS for c in name)
    if bare:
        return name
    body = name.replace("\\", "\\\\").replace("'", "\\'").replace("\n", "\\n").replace("\t", "\\t")
    return f"'{body}'"


def _operand(t: Term, prio: int):
    """A writer piece for an operator's operand.  An operator atom goes in
    brackets, or the reader would take it for an operator: `- = 1` does
    not read back, `(-) = 1` does."""
    if type(t) is Atom and (t.name in INFIX_OPS or t.name in PREFIX_OPS):
        return f"({_atom_str(t.name)})"
    return (t, prio)


def _commas(terms) -> list:
    """Writer pieces for comma-separated arguments or list elements."""
    pieces: list = []
    for term in terms:
        pieces += [",", (term, 999)]
    return pieces[1:]


def term_str(t: Term, max_prio: int = 1200) -> str:
    """Render a term in the same syntax the reader accepts.

    Works over an explicit stack of pieces, each either text to emit or a
    (term, priority) pair still to render, so a deeply nested term needs
    no interpreter stack.
    """
    out: list[str] = []
    todo: list = [(t, max_prio)]
    while todo:
        piece = todo.pop()
        if type(piece) is str:
            out.append(piece)
            continue
        t, max_prio = piece
        k = type(t)
        if k is Atom:
            out.append(_atom_str(t.name))
            continue
        if k is Int:
            out.append(str(t.value))
            continue
        if k is Var:
            out.append(t.name if t.name else f"_G{t.id}")
            continue
        if k is not Struct:
            raise TypeError(f"not a term: {t!r}")
        prio = 0  # an operator's priority; a list or canonical compound needs no brackets
        if t.name == "." and len(t.args) == 2:
            items, tail = iter_list(t)
            pieces = ["[", *_commas(items)]
            if tail != NIL:
                pieces += ["|", (tail, 999)]
            pieces.append("]")
        elif len(t.args) == 2 and t.name in INFIX_OPS:
            prio, typ = INFIX_OPS[t.name]
            lp = prio if typ == "yfx" else prio - 1
            rp = prio if typ == "xfy" else prio - 1
            op = "," if t.name == "," else f" {t.name} "
            pieces = [_operand(t.args[0], lp), op, _operand(t.args[1], rp)]
        elif len(t.args) == 1 and t.name in PREFIX_OPS and (t.name, type(t.args[0])) != ("-", Int):
            # -(1) is written canonically below: "- 1" would read back as the integer -1.
            prio, typ = PREFIX_OPS[t.name]
            pieces = [f"{t.name} ", _operand(t.args[0], prio if typ == "fy" else prio - 1)]
        else:
            pieces = [f"{_atom_str(t.name)}(", *_commas(t.args), ")"]
        if prio > max_prio:
            pieces = ["(", *pieces, ")"]
        todo.extend(reversed(pieces))
    return "".join(out)
