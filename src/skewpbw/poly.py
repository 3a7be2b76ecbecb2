"""Exponents, monomial orders and normal-ordered polynomial arithmetic.

Elements are finite sums c * x1^a1 ... xn^an over a presentation's field.
Products are normalized by a confluent rewriting of adjacent inversions
x_j x_i (j > i) through the presentation's relation constants, with
coefficients passing variables via the sigma automorphisms. The engine
memoizes single-variable insertions per presentation, which keeps repeated
division/completion work cheap.

The rewriting engine below works on dicts {exponent: raw field value} (an
int residue, or a tuple of integer numerators over one denominator; see
scalars.Field), and so does the insertion cache. `Polynomial.terms` holds
Scalars: values cross into raw form once, by `Polynomial.raw_dict`, and
back once, by `Polynomial.from_raw`.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

from skewpbw import parsing
from skewpbw.parsing import ParseError
from skewpbw.presentation import Presentation
from skewpbw.scalars import Field, Scalar


# ---------------------------------------------------------------------------
# exponents (int tuples) and order keys, flat int tuples compared
# lexicographically: deglex (|a|, a1, ..., an), degrevlex (|a|, -an, ...,
# -a1), block (deglex key of the masked front, then of the rest)


def exp_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def exp_max(a, b):
    return tuple(x if x >= y else y for x, y in zip(a, b))


def divides(a, b):
    """Componentwise a <= b."""
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def deglex_key(a):
    return (sum(a),) + tuple(a)


def degrevlex_key(a):
    return (sum(a),) + tuple(-x for x in reversed(a))


def block_key(a, mask):
    front = []
    rest = []
    fdeg = 0
    rdeg = 0
    for x, m in zip(a, mask):
        if m:
            front.append(x)
            fdeg += x
        else:
            rest.append(x)
            rdeg += x
    return (fdeg,) + tuple(front) + (rdeg,) + tuple(rest)


def find_divisor(leads, target, start=0):
    """Index of the first exponent in ``leads[start:]`` dividing ``target``, or -1."""
    n = len(leads)
    i = start
    while i < n:
        if divides(leads[i], target):
            return i
        i += 1
    return -1


class MonomialOrder:
    """Total degree-first order on exponents, as a flat sort key."""

    __slots__ = ("kind", "mask", "name")

    def __init__(self, kind: str, mask: Optional[tuple] = None, name: str = ""):
        self.kind = kind
        self.mask = mask
        self.name = name or kind

    def key(self, exp: tuple) -> tuple:
        if self.kind == "deglex":
            return deglex_key(exp)
        if self.kind == "degrevlex":
            return degrevlex_key(exp)
        return block_key(exp, self.mask)

    def compare(self, a: tuple, b: tuple) -> int:
        if len(a) != len(b):
            raise ValueError("exponent length mismatch")
        ka, kb = self.key(a), self.key(b)
        return (ka > kb) - (ka < kb)

    @staticmethod
    def block(front_indices: Iterable[int], n: int) -> "MonomialOrder":
        front = set(front_indices)
        mask = tuple(1 if k in front else 0 for k in range(n))
        return MonomialOrder("block", mask, name="block")

    def __repr__(self):
        return f"MonomialOrder({self.name})"


DEGLEX = MonomialOrder("deglex")
DEGREVLEX = MonomialOrder("degrevlex")


# ---------------------------------------------------------------------------
# rewriting engine (dict-of-exponent form)


def _acc(out: dict, exp: tuple, c, add, zero) -> None:
    """out[exp] += c on raw values, dropping the entry when it cancels."""
    cur = out.get(exp)
    if cur is None:
        out[exp] = c
    else:
        s = add(cur, c)
        if s == zero:
            del out[exp]
        else:
            out[exp] = s


def _insert_var(pres: Presentation, i: int, exp: tuple) -> dict:
    """Normal form of x_i * x^exp as {exponent: raw value}; memoized.

    pres._insert_cache maps (i, exp) to that dict of raw field values.
    Callers must treat the returned dict as read-only.
    """
    key = (i, exp)
    cached = pres._insert_cache.get(key)
    if cached is not None:
        return cached
    j = -1
    for k in range(i):
        if exp[k] > 0:
            j = k
            break
    field = pres.field
    if j < 0:
        e2 = list(exp)
        e2[i] += 1
        result = {tuple(e2): field.raw_one}
    else:
        add, mul, zero = field.raw_add, field.raw_mul, field.raw_zero
        rest = list(exp)
        rest[j] -= 1
        rest = tuple(rest)
        rel = pres.relations[(j, i)]
        out: dict = {}
        # x_i x_j = c x_j x_i + (linear + const), so
        # x_i x^exp = c * x_j * (x_i x^rest) + (linear + const) * x^rest
        inner = _insert_var(pres, i, rest)
        sigma = pres.sigma_maps[j]
        c = rel.c.value
        for e, cf in inner.items():
            cf2 = mul(c, cf if sigma is None else sigma(cf))
            for e3, k3 in _insert_var(pres, j, e).items():
                _acc(out, e3, mul(cf2, k3), add, zero)
        for k, a in enumerate(rel.linear):
            if a.is_zero():
                continue
            for e3, k3 in _insert_var(pres, k, rest).items():
                _acc(out, e3, mul(a.value, k3), add, zero)
        if not rel.const.is_zero():
            _acc(out, rest, rel.const.value, add, zero)
        result = out
    pres._insert_cache[key] = result
    return result


def _var_times_dict(pres: Presentation, i: int, d: dict) -> dict:
    field = pres.field
    add, mul, zero = field.raw_add, field.raw_mul, field.raw_zero
    sigma = pres.sigma_maps[i]
    out: dict = {}
    for e, c in d.items():
        if sigma is not None:
            c = sigma(c)
        for e2, k in _insert_var(pres, i, e).items():
            _acc(out, e2, mul(c, k), add, zero)
    return out


def _mono_times_dict(pres: Presentation, alpha: tuple, d: dict) -> dict:
    """x^alpha * d on raw dicts; may return d itself, so treat it as read-only."""
    for i in range(pres.n - 1, -1, -1):
        for _ in range(alpha[i]):
            if not d:
                return d
            d = _var_times_dict(pres, i, d)
    return d


# ---------------------------------------------------------------------------
# polynomials


class Polynomial:
    """Immutable normal-ordered polynomial; terms sorted by descending deglex.

    `_lead` holds (order, leading term) for the last order other than
    deglex that `leading` was asked for, so each lead is searched once.
    """

    __slots__ = ("pres", "terms", "_lead")

    def __init__(self, pres: Presentation, terms: tuple):
        self.pres = pres
        self.terms = terms
        self._lead = None

    @staticmethod
    def from_dict(pres: Presentation, d: dict) -> "Polynomial":
        items = [(e, c) for e, c in d.items() if not c.is_zero()]
        items.sort(key=lambda t: deglex_key(t[0]), reverse=True)
        return Polynomial(pres, tuple(items))

    @staticmethod
    def from_raw(pres: Presentation, d: dict, ordered: bool = False) -> "Polynomial":
        """The polynomial of a dict {exponent: raw field value}; zeros dropped.

        ordered: d already iterates in descending deglex order, the order
        of `terms`, so no sort is needed.
        """
        field = pres.field
        zero = field.raw_zero
        items = [(e, Scalar(field, c)) for e, c in d.items() if c != zero]
        if not ordered:
            items.sort(key=lambda t: deglex_key(t[0]), reverse=True)
        return Polynomial(pres, tuple(items))

    @staticmethod
    def zero(pres: Presentation) -> "Polynomial":
        return Polynomial(pres, ())

    @staticmethod
    def one(pres: Presentation) -> "Polynomial":
        return Polynomial.constant(pres, pres.field.one)

    @staticmethod
    def constant(pres: Presentation, c: Scalar) -> "Polynomial":
        c = pres.field.coerce(c)
        if c.is_zero():
            return Polynomial.zero(pres)
        return Polynomial(pres, (((0,) * pres.n, c),))

    @staticmethod
    def variable(pres: Presentation, i: int) -> "Polynomial":
        e = tuple(1 if k == i else 0 for k in range(pres.n))
        return Polynomial(pres, ((e, pres.field.one),))

    @staticmethod
    def monomial(pres: Presentation, exp: tuple, c=None) -> "Polynomial":
        c = pres.field.one if c is None else pres.field.coerce(c)
        if c.is_zero():
            return Polynomial.zero(pres)
        return Polynomial(pres, ((tuple(exp), c),))

    def to_dict(self) -> dict:
        return dict(self.terms)

    def raw_dict(self) -> dict:
        """A fresh dict {exponent: raw field value} of the terms."""
        return {e: c.value for e, c in self.terms}

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and not any(self.terms[0][0]))

    def constant_value(self) -> Scalar:
        if self.is_zero():
            return self.pres.field.zero
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return self.terms[0][1]

    def degree(self) -> int:
        """Max total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e, _ in self.terms)

    def leading(self, order: MonomialOrder = DEGLEX) -> Optional[Tuple[tuple, Scalar]]:
        if not self.terms:
            return None
        if order.kind == "deglex":
            return self.terms[0]
        cached = self._lead
        if cached is not None and cached[0] is order:
            return cached[1]
        lead = max(self.terms, key=lambda t: order.key(t[0]))
        self._lead = (order, lead)
        return lead

    def scale(self, c: Scalar) -> "Polynomial":
        """Left multiplication by a scalar, on raw values in one pass."""
        field = self.pres.field
        c = field.coerce(c)
        if c.is_zero():
            return Polynomial.zero(self.pres)
        u, mul = c.value, field.raw_mul
        return Polynomial(
            self.pres, tuple((e, Scalar(field, mul(u, k.value))) for e, k in self.terms)
        )

    def monic(self, order: MonomialOrder = DEGLEX) -> "Polynomial":
        lead = self.leading(order)
        if lead is None:
            return self
        return self.scale(lead[1].inv())

    def _check(self, other: "Polynomial") -> None:
        if self.pres is not other.pres:
            raise ValueError("polynomials from different presentations")

    def __add__(self, other):
        other = self._coerce(other)
        self._check(other)
        field = self.pres.field
        add, zero = field.raw_add, field.raw_zero
        out = self.raw_dict()
        for e, c in other.terms:
            _acc(out, e, c.value, add, zero)
        return Polynomial.from_raw(self.pres, out)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        self._check(other)
        field = self.pres.field
        add, neg, zero = field.raw_add, field.raw_neg, field.raw_zero
        out = self.raw_dict()
        for e, c in other.terms:
            _acc(out, e, neg(c.value), add, zero)
        return Polynomial.from_raw(self.pres, out)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return Polynomial(self.pres, tuple((e, -c) for e, c in self.terms))

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            return other
        return Polynomial.constant(self.pres, self.pres.field.coerce(other))

    def __mul__(self, other):
        other = self._coerce(other)
        self._check(other)
        return multiply(self, other)

    def __rmul__(self, other):
        # scalar * poly: left scaling
        return self.scale(self.pres.field.coerce(other))

    def __pow__(self, k: int):
        """Square-and-multiply: powers of one element commute with each other."""
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = Polynomial.one(self.pres)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            if isinstance(other, int):
                return self == self._coerce(other)
            return NotImplemented
        return self.pres is other.pres and self.terms == other.terms

    def __hash__(self):
        return hash((id(self.pres), self.terms))

    def __repr__(self):
        return to_string(self)

    def __str__(self):
        return to_string(self)


def multiply(f: Polynomial, g: Polynomial) -> Polynomial:
    """Normal-ordered product in the algebra."""
    if f.pres is not g.pres:
        raise ValueError("polynomials from different presentations")
    pres = f.pres
    if f.is_zero() or g.is_zero():
        return Polynomial.zero(pres)
    field = pres.field
    add, mul, zero = field.raw_add, field.raw_mul, field.raw_zero
    gdict = g.raw_dict()
    out: dict = {}
    for alpha, a in f.terms:
        a = a.value
        for e, c in _mono_times_dict(pres, alpha, gdict).items():
            _acc(out, e, mul(a, c), add, zero)
    return Polynomial.from_raw(pres, out)


def exponents_of_degree(n: int, d: int):
    if n == 1:
        yield (d,)
        return
    for first in range(d, -1, -1):
        for rest in exponents_of_degree(n - 1, d - first):
            yield (first,) + rest


def exponents_up_to(n: int, d: int) -> list:
    """All exponents of total degree <= d, ascending degree then lex-descending."""
    return [e for k in range(d + 1) for e in exponents_of_degree(n, k)]


# ---------------------------------------------------------------------------
# text form


def to_string(f: Polynomial) -> str:
    if f.is_zero():
        return "0"
    parts = []
    for exp, c in f.terms:
        mono = "*".join(
            nm if k == 1 else f"{nm}^{k}"
            for nm, k in zip(f.pres.names, exp)
            if k
        )
        cs = str(c)
        if not mono:
            text = cs
        elif cs == "1":
            text = mono
        elif cs == "-1":
            text = f"-{mono}"
        else:
            text = f"({cs})*{mono}" if _needs_parens(cs) else f"{cs}*{mono}"
        parts.append(text)
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


def _needs_parens(cs: str) -> bool:
    # compound scalars print pre-parenthesized; bare sums still need wrapping
    if cs.startswith("("):
        return False
    core = cs[1:] if cs.startswith("-") else cs
    return any(ch in core for ch in "+-")


def parse_polynomial(text: str, pres: Presentation) -> Polynomial:
    """Parse the polynomial grammar and normal-order through the engine.

    Variables may appear in any written order (e.g. "y*x" in the quantum
    plane); the result is the normal form of the written expression.
    """
    ast = parsing.parse_ast(text)
    return _eval_ast(ast, pres)


def parse_scalar(text: str, field: Field) -> Scalar:
    """Parse the scalar grammar: a polynomial over no variables."""
    return parse_polynomial(text, Presentation(field, ())).constant_value()


def _eval_ast(node, pres: Presentation) -> Polynomial:
    kind = node[0]
    if kind == "int":
        return Polynomial.constant(pres, pres.field.from_int(node[1]))
    if kind == "sym":
        name = node[1]
        if name in pres.names:
            return Polynomial.variable(pres, pres.names.index(name))
        return Polynomial.constant(
            pres, parsing._scalar_symbol(pres.field, name, node[2])
        )
    if kind == "neg":
        return -_eval_ast(node[1], pres)
    if kind == "add":
        return _eval_ast(node[1], pres) + _eval_ast(node[2], pres)
    if kind == "sub":
        return _eval_ast(node[1], pres) - _eval_ast(node[2], pres)
    if kind == "mul":
        return _eval_ast(node[1], pres) * _eval_ast(node[2], pres)
    if kind == "div":
        den = _eval_ast(node[2], pres)
        if den.is_zero():
            raise ParseError("division by zero")
        if not den.is_constant():
            raise ParseError("division only by nonzero scalars")
        return _eval_ast(node[1], pres) * Polynomial.constant(
            pres, den.constant_value().inv()
        )
    if kind == "pow":
        k = node[2]
        base = _eval_ast(node[1], pres)
        if k < 0:
            if base.is_zero():
                raise ParseError("division by zero")
            if not base.is_constant():
                raise ParseError("negative power of a non-scalar")
            return Polynomial.constant(pres, base.constant_value() ** k)
        return base ** k
    raise ParseError(f"bad node {kind!r}")
