"""Text grammar shared by scalars, polynomials and presentation documents.

Scalars: integers, fractions a/b, `i` (Gaussian or cyclotomic index 4),
`z` for the primitive root in a cyclotomic field, residues in GF(p), with
parenthesized sums and products. Polynomials extend this with variable
names, `*`, `^` and `+`/`-`; parsing produces an AST that the caller
evaluates either inside the algebra (noncommutative normal ordering) or
as a formal commutative collection (presentation documents).
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


def _scalar_symbol(field: Field, name: str, pos: int) -> Scalar:
    if name == "i":
        if isinstance(field, GaussianRationalField):
            return field.i
        if isinstance(field, CyclotomicField) and field.m == 4:
            return field.zeta
        raise ParseError(f"'i' is not an element of {field.spec}", pos)
    if name == "z":
        if isinstance(field, CyclotomicField):
            return field.zeta
        raise ParseError(f"'z' is not an element of {field.spec}", pos)
    raise ParseError(f"unknown symbol {name!r}", pos)


def eval_scalar_ast(node, field: Field) -> Scalar:
    kind = node[0]
    if kind == "int":
        return field.from_int(node[1])
    if kind == "sym":
        return _scalar_symbol(field, node[1], node[2])
    if kind == "neg":
        return -eval_scalar_ast(node[1], field)
    if kind == "add":
        return eval_scalar_ast(node[1], field) + eval_scalar_ast(node[2], field)
    if kind == "sub":
        return eval_scalar_ast(node[1], field) - eval_scalar_ast(node[2], field)
    if kind == "mul":
        return eval_scalar_ast(node[1], field) * eval_scalar_ast(node[2], field)
    if kind == "div":
        den = eval_scalar_ast(node[2], field)
        if den.is_zero():
            raise ParseError("division by zero")
        return eval_scalar_ast(node[1], field) / den
    if kind == "pow":
        base = eval_scalar_ast(node[1], field)
        if node[2] < 0 and base.is_zero():
            raise ParseError("division by zero")
        return base ** node[2]
    raise ParseError(f"bad node {kind!r}")


def parse_scalar(text: str, field: Field) -> Scalar:
    return eval_scalar_ast(parse_ast(text), field)


def collect_commutative(node, field: Field, var_index: dict) -> dict:
    """Evaluate an AST treating variables as commuting formal symbols.

    Returns {exponent tuple: Scalar}. Used for presentation-document
    relation sides, whose terms are written in normal order anyway.
    """
    n = len(var_index)
    kind = node[0]
    if kind == "int":
        c = field.from_int(node[1])
        return {} if c.is_zero() else {(0,) * n: c}
    if kind == "sym":
        name = node[1]
        if name in var_index:
            e = [0] * n
            e[var_index[name]] = 1
            return {tuple(e): field.one}
        return {(0,) * n: _scalar_symbol(field, name, node[2])}
    if kind == "neg":
        return {e: -c for e, c in collect_commutative(node[1], field, var_index).items()}
    if kind in ("add", "sub"):
        out = dict(collect_commutative(node[1], field, var_index))
        for e, c in collect_commutative(node[2], field, var_index).items():
            c2 = out.get(e, field.zero) + (c if kind == "add" else -c)
            if c2.is_zero():
                out.pop(e, None)
            else:
                out[e] = c2
        return out
    if kind in ("mul", "div", "pow"):
        if kind == "pow":
            k = node[2]
            base = collect_commutative(node[1], field, var_index)
            if k < 0:
                if not base:
                    raise ParseError("division by zero")
                if len(base) != 1 or any(any(e) for e in base):
                    raise ParseError("negative power of a non-scalar")
                ((e, c),) = base.items()
                return {e: c ** k}
            out = {(0,) * n: field.one}
            for _ in range(k):
                out = _conv(out, base, field)
            return out
        left = collect_commutative(node[1], field, var_index)
        right = collect_commutative(node[2], field, var_index)
        if kind == "div":
            if not right:
                raise ParseError("division by zero")
            if len(right) != 1 or any(any(e) for e in right):
                raise ParseError("division by a non-scalar")
            ((_, c),) = right.items()
            if c.is_zero():
                raise ParseError("division by zero")
            right = {(0,) * n: c.inv()}
        return _conv(left, right, field)
    raise ParseError(f"bad node {kind!r}")


def _conv(a: dict, b: dict, field: Field) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            c = out.get(e, field.zero) + ca * cb
            if c.is_zero():
                out.pop(e, None)
            else:
                out[e] = c
    return out


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
