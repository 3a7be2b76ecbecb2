"""Text grammar shared by scalars, polynomials and presentation documents.

Scalars: integers, fractions a/b, `i` (Gaussian or cyclotomic index 4),
`z` for the primitive root in a cyclotomic field, residues in GF(p), with
parenthesized sums and products. Polynomials extend this with variable
names, `*`, `^` and `+`/`-`. This module only tokenizes and builds the
AST; `poly.parse_polynomial` evaluates it, for scalars and relation sides
too (see `poly.parse_scalar` and `presentation.load_presentation`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from skewpbw.scalars import (
    CyclotomicField,
    Field,
    GaussianRationalField,
    Scalar,
)


class ParseError(ValueError):
    def __init__(self, message: str, position: Optional[int] = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()]))"
)


@dataclass
class Token:
    kind: str  # "int" | "name" | op char | "end"
    text: str
    pos: int


def tokenize(text: str) -> list:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad = len(text) - len(stripped)
            raise ParseError(f"unexpected character {text[bad]!r}", bad)
        if m.group("int") is not None:
            tokens.append(Token("int", m.group("int"), m.start("int")))
        elif m.group("name") is not None:
            tokens.append(Token("name", m.group("name"), m.start("name")))
        else:
            tokens.append(Token(m.group("op"), m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(Token("end", "", len(text)))
    return tokens


# AST nodes: ("int", n) | ("sym", name, pos) | ("neg", a) | ("add", a, b)
#            | ("sub", a, b) | ("mul", a, b) | ("div", a, b) | ("pow", a, k)


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.k = 0

    def peek(self) -> Token:
        return self.tokens[self.k]

    def next(self) -> Token:
        t = self.tokens[self.k]
        self.k += 1
        return t

    def expect(self, kind: str) -> Token:
        t = self.next()
        if t.kind != kind:
            raise ParseError(f"expected {kind!r}, found {t.text or 'end'!r}", t.pos)
        return t

    def parse_expr(self):
        node = self.parse_term()
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            rhs = self.parse_term()
            node = ("add" if op == "+" else "sub", node, rhs)
        return node

    def parse_term(self):
        node = self.parse_factor()
        while True:
            t = self.peek()
            if t.kind in ("*", "/"):
                self.next()
                rhs = self.parse_factor()
                node = ("mul" if t.kind == "*" else "div", node, rhs)
            elif t.kind in ("int", "name", "("):
                # implicit product, e.g. "2x" or "(1/2)(x+1)"
                rhs = self.parse_factor()
                node = ("mul", node, rhs)
            else:
                return node

    def parse_factor(self):
        t = self.peek()
        if t.kind == "-":
            self.next()
            return ("neg", self.parse_factor())
        if t.kind == "+":
            self.next()
            return self.parse_factor()
        node = self.parse_atom()
        while self.peek().kind == "^":
            self.next()
            sign = 1
            if self.peek().kind == "-":
                self.next()
                sign = -1
            e = self.expect("int")
            node = ("pow", node, sign * int(e.text))
        return node

    def parse_atom(self):
        t = self.next()
        if t.kind == "int":
            return ("int", int(t.text))
        if t.kind == "name":
            return ("sym", t.text, t.pos)
        if t.kind == "(":
            node = self.parse_expr()
            self.expect(")")
            return node
        raise ParseError(f"unexpected {t.text or 'end of input'!r}", t.pos)


def parse_ast(text: str):
    if not text.strip():
        raise ParseError("empty input", 0)
    p = _Parser(text)
    node = p.parse_expr()
    t = p.peek()
    if t.kind != "end":
        raise ParseError(f"trailing input {t.text!r}", t.pos)
    return node


# Scalar symbols of the grammar: name -> its value in a field, or None
# where the field has no such element. Variable names may not shadow them.
SCALAR_SYMBOLS = {
    "i": lambda field: (
        field.i if isinstance(field, GaussianRationalField)
        else field.zeta if isinstance(field, CyclotomicField) and field.m == 4
        else None
    ),
    "z": lambda field: field.zeta if isinstance(field, CyclotomicField) else None,
}


def _scalar_symbol(field: Field, name: str, pos: int) -> Scalar:
    value_in = SCALAR_SYMBOLS.get(name)
    if value_in is None:
        raise ParseError(f"unknown symbol {name!r}", pos)
    value = value_in(field)
    if value is None:
        raise ParseError(f"{name!r} is not an element of {field.spec}", pos)
    return value


def split_top_level(text: str, sep: str = ",") -> list:
    """Split on a separator, ignoring separators inside parentheses."""
    parts = []
    depth = 0
    cur = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return [p.strip() for p in parts if p.strip()]
