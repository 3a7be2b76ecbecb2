"""Exponents, monomial orders and normal-ordered polynomial arithmetic.

Elements are finite sums c * x1^a1 ... xn^an over a presentation's field.
Products are normalized by a confluent rewriting of adjacent inversions
x_j x_i (j > i) through the presentation's relation constants, with
coefficients passing variables via the sigma automorphisms. The engine
memoizes single-variable insertions per presentation, which keeps repeated
division/completion work cheap. In a quasi-commutative presentation (no
relation has lower terms) whose sigmas are all the identity, an insertion
is the closed form x_i * x^e = c * x^(e + e_i), c a product of powers of
the relation constants, and needs no rewriting.

Coefficients are raw field values throughout (an int residue, or a tuple
of integer numerators over one denominator; see scalars.Field): the
rewriting engine and the insertion cache work on dicts {exponent: raw
value}, and `Polynomial` stores (exponent, raw value) pairs. A `Scalar`
is built only where a caller reads a coefficient as a field element.
"""

from __future__ import annotations

from operator import le
from typing import Iterable, Optional, Tuple

from skewpbw import parsing
from skewpbw.scalars import Field, InputError, Scalar, power


# ---------------------------------------------------------------------------
# exponents (int tuples) and order keys, flat int tuples compared
# lexicographically: deglex (|a|, a1, ..., an), degrevlex (|a|, -an, ...,
# -a1), block (deglex key of the masked front, then of the rest)


def exp_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def divides(a, b):
    """Componentwise a <= b."""
    return all(map(le, a, b))


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
    for i in range(start, len(leads)):
        if all(map(le, leads[i], target)):
            return i
    return -1


class MonomialOrder:
    """Total degree-first order on exponents, as a flat sort key."""

    __slots__ = ("kind", "mask")

    def __init__(self, kind: str, mask: Optional[tuple] = None):
        self.kind = kind
        self.mask = mask

    def key(self, exp: tuple) -> tuple:
        if self.kind == "deglex":
            return deglex_key(exp)
        if self.kind == "degrevlex":
            return degrevlex_key(exp)
        return block_key(exp, self.mask)

    @staticmethod
    def block(front_indices: Iterable[int], n: int) -> "MonomialOrder":
        front = set(front_indices)
        for k in front:
            if not 0 <= k < n:
                raise InputError(f"block order index {k} is not in 0..{n - 1}")
        mask = tuple(1 if k in front else 0 for k in range(n))
        return MonomialOrder("block", mask)

    def __repr__(self):
        return f"MonomialOrder({self.kind})"


DEGLEX = MonomialOrder("deglex")
DEGREVLEX = MonomialOrder("degrevlex")


# ---------------------------------------------------------------------------
# rewriting engine (dict-of-exponent form)

# Entries a presentation's insertion cache may hold when a product starts:
# every product clears a cache that has reached it (`_bound_insert_cache`),
# and no insertion does, so the cache holds at most this many plus the
# entries of one product. At the ~0.5 kB an entry took with small
# coefficients (tracemalloc, CPython 3.11, x86-64), the cap is about 50 MB.
MAX_INSERT_CACHE = 100_000


def _bound_insert_cache(pres: Presentation) -> None:
    """Clear pres's insertion cache if it has reached MAX_INSERT_CACHE; a
    product x^alpha * d calls this before its first insertion."""
    if len(pres._insert_cache) >= MAX_INSERT_CACHE:
        pres._insert_cache.clear()


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
    Callers must treat the returned dict as read-only. No insertion clears
    the cache; see MAX_INSERT_CACHE.

    Quasi-commutative with every sigma the identity: x_i * x^exp is the
    one term c * x^(exp + e_i), c the product of c_ji^(exp_j) over j < i
    (Lezama & Reyes, Comm. Algebra 2014), cached as one entry.

    Otherwise, with x_j the first variable of exp before x_i and
    rest = exp - e_j, x_i * x_j = c * x_j * x_i + (linear + const) gives
    x_i * x^exp = c * x_j * (x_i * x^rest) + (linear + const) * x^rest.
    The chain exp, rest, ... walks down to the nearest cached entry, or to
    an exponent with no variable before x_i, then climbs back one entry at
    a time, caching each. The walk is a loop, so moving x_i past a long
    power takes no recursion depth; only the insertions of x_j and of the
    linear terms call back in.
    """
    cache = pres._insert_cache
    cached = cache.get((i, exp))
    if cached is not None:
        return cached
    field = pres.field
    if pres.quasi_commutative and pres.sigma_all_identity:
        mul, c = field.raw_mul, field.raw_one
        for j in range(i):
            if exp[j]:
                c = power(pres.relations[(j, i)].c.value, exp[j], mul, c)
        e2 = exp[:i] + (exp[i] + 1,) + exp[i + 1 :]
        inner = cache[(i, exp)] = {e2: c}
        return inner
    steps = []  # (j, exp) from exp down
    j = 0  # the first variable of exp before x_i only moves right
    while True:
        while j < i and exp[j] == 0:
            j += 1
        if j == i:
            e2 = list(exp)
            e2[i] += 1
            inner = cache[(i, exp)] = {tuple(e2): field.raw_one}
            break
        steps.append((j, exp))
        exp = exp[:j] + (exp[j] - 1,) + exp[j + 1 :]
        inner = cache.get((i, exp))
        if inner is not None:
            break
    add, mul, zero = field.raw_add, field.raw_mul, field.raw_zero
    rest = exp
    for j, exp in reversed(steps):
        # inner is x_i * x^rest, rest = exp - e_j
        rel = pres.relations[(j, i)]
        out: dict = {}
        sigma = pres.sigma_maps[j]
        c = rel.c.value
        for e, cf in inner.items():
            cf2 = mul(c, cf if sigma is None else sigma(cf))
            for e3, k3 in _insert_var(pres, j, e).items():
                _acc(out, e3, mul(cf2, k3), add, zero)
        for k, a in rel.linear:
            for e3, k3 in _insert_var(pres, k, rest).items():
                _acc(out, e3, mul(a.value, k3), add, zero)
        if not rel.const.is_zero():
            _acc(out, rest, rel.const.value, add, zero)
        inner = cache[(i, exp)] = out
        rest = exp
    return inner


def _var_times_dict(pres: Presentation, i: int, d: dict) -> dict:
    field = pres.field
    add, mul, zero = field.raw_add, field.raw_mul, field.raw_zero
    sigma = pres.sigma_maps[i]
    out: dict = {}
    if pres.quasi_commutative:
        # every insertion is one term, and distinct monomials give distinct ones
        for e, c in d.items():
            if sigma is not None:
                c = sigma(c)
            [(e2, k)] = _insert_var(pres, i, e).items()
            out[e2] = mul(c, k)
        return out
    for e, c in d.items():
        if sigma is not None:
            c = sigma(c)
        for e2, k in _insert_var(pres, i, e).items():
            _acc(out, e2, mul(c, k), add, zero)
    return out


def _mono_times_dict(pres: Presentation, alpha: tuple, d: dict) -> dict:
    """x^alpha * d on raw dicts; may return d itself, so treat it as read-only."""
    _bound_insert_cache(pres)
    for i in range(pres.n - 1, -1, -1):
        for _ in range(alpha[i]):
            if not d:
                return d
            d = _var_times_dict(pres, i, d)
    return d


# ---------------------------------------------------------------------------
# polynomials


class Polynomial:
    """Immutable normal-ordered polynomial.

    `raw` is a tuple of (exponent, raw field value) pairs in descending
    deglex order, with no zero value. Raw values are canonical, so
    equality and hashing compare `raw`. The library builds polynomials
    through `from_raw`; `Polynomial(pres, terms)` and `from_dict` build
    them from `Scalar` coefficients, and `terms` reads the pairs back with
    `Scalar` values. Both stay public because the benchmark harness in
    `perfbench/engine.py` slices `terms` and builds from Scalars.
    """

    __slots__ = ("pres", "raw")

    def __init__(self, pres: Presentation, terms: Iterable):
        """From (exponent, Scalar) pairs with distinct exponents, in any
        order; as in `from_raw`, they are sorted and zeros are dropped."""
        coerce = pres.field.coerce
        f = Polynomial.from_raw(pres, [(e, coerce(c).value) for e, c in terms])
        self.pres, self.raw = pres, f.raw

    @staticmethod
    def from_raw(pres: Presentation, pairs: Iterable, ordered=False) -> "Polynomial":
        """The polynomial of (exponent, raw field value) pairs with distinct
        exponents; zero values are dropped.

        ordered: the pairs already come in descending deglex order, the
        order of `raw`, so no sort is needed.
        """
        zero = pres.field.raw_zero
        items = [t for t in pairs if t[1] != zero]
        if not ordered:
            # (|e|, e) orders as deglex_key(e) does, with one call per term
            items.sort(key=lambda t: (sum(t[0]), t[0]), reverse=True)
        f = Polynomial.__new__(Polynomial)
        f.pres = pres
        f.raw = tuple(items)
        return f

    @staticmethod
    def from_dict(pres: Presentation, d: dict) -> "Polynomial":
        """The polynomial of a dict {exponent: Scalar}; zeros dropped."""
        return Polynomial(pres, d.items())

    @staticmethod
    def zero(pres: Presentation) -> "Polynomial":
        return Polynomial.from_raw(pres, (), ordered=True)

    @staticmethod
    def one(pres: Presentation) -> "Polynomial":
        return Polynomial.constant(pres, pres.field.one)

    @staticmethod
    def constant(pres: Presentation, c: Scalar) -> "Polynomial":
        return Polynomial.monomial(pres, (0,) * pres.n, c)

    @staticmethod
    def variable(pres: Presentation, i: int) -> "Polynomial":
        e = tuple(1 if k == i else 0 for k in range(pres.n))
        return Polynomial.monomial(pres, e)

    @staticmethod
    def monomial(pres: Presentation, exp: tuple, c=None) -> "Polynomial":
        c = pres.field.one if c is None else pres.field.coerce(c)
        return Polynomial.from_raw(pres, ((tuple(exp), c.value),), ordered=True)

    @property
    def terms(self) -> tuple:
        """The (exponent, Scalar) pairs, in the order of `raw`."""
        field = self.pres.field
        return tuple((e, Scalar(field, c)) for e, c in self.raw)

    def is_zero(self) -> bool:
        return not self.raw

    def is_constant(self) -> bool:
        return not self.raw or (len(self.raw) == 1 and not any(self.raw[0][0]))

    def constant_value(self) -> Scalar:
        if self.is_zero():
            return self.pres.field.zero
        if not self.is_constant():
            raise InputError("not a constant polynomial")
        return Scalar(self.pres.field, self.raw[0][1])

    def degree(self) -> int:
        """Max total degree; -1 for the zero polynomial."""
        if not self.raw:
            return -1
        return max(sum(e) for e, _ in self.raw)

    def leading(self, order: MonomialOrder = DEGLEX) -> Optional[Tuple[tuple, object]]:
        """The leading (exponent, raw field value) pair; None for zero."""
        if not self.raw:
            return None
        if order.kind == "deglex":
            return self.raw[0]
        return max(self.raw, key=lambda t: order.key(t[0]))

    def scale(self, c: Scalar) -> "Polynomial":
        """Left multiplication by a scalar; a nonzero one keeps every term."""
        field = self.pres.field
        u = field.coerce(c).value
        if u == field.raw_zero:
            return Polynomial.zero(self.pres)
        mul = field.raw_mul
        return Polynomial.from_raw(
            self.pres, [(e, mul(u, k)) for e, k in self.raw], ordered=True
        )

    def _check(self, other: "Polynomial") -> None:
        if self.pres is not other.pres:
            raise InputError("polynomials from different presentations")

    def __add__(self, other):
        other = self._coerce(other)
        self._check(other)
        field = self.pres.field
        add, zero = field.raw_add, field.raw_zero
        out = dict(self.raw)
        for e, c in other.raw:
            _acc(out, e, c, add, zero)
        return Polynomial.from_raw(self.pres, out.items())

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        self._check(other)
        field = self.pres.field
        add, neg, zero = field.raw_add, field.raw_neg, field.raw_zero
        out = dict(self.raw)
        for e, c in other.raw:
            _acc(out, e, neg(c), add, zero)
        return Polynomial.from_raw(self.pres, out.items())

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        neg = self.pres.field.raw_neg
        return Polynomial.from_raw(
            self.pres, [(e, neg(c)) for e, c in self.raw], ordered=True
        )

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
            raise InputError("negative power of a polynomial")
        return power(self, k, multiply, Polynomial.one(self.pres))

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            if isinstance(other, int):
                return self == self._coerce(other)
            return NotImplemented
        return self.pres is other.pres and self.raw == other.raw

    def __hash__(self):
        return hash((id(self.pres), self.raw))

    def __repr__(self):
        return to_string(self)

    def __str__(self):
        return to_string(self)


def multiply(f: Polynomial, g: Polynomial) -> Polynomial:
    """Normal-ordered product in the algebra."""
    if f.pres is not g.pres:
        raise InputError("polynomials from different presentations")
    return Polynomial.from_raw(f.pres, _multiply_raw(f.pres, f.raw, g.raw, {}).items())


def _multiply_raw(pres: Presentation, f_raw, g_raw, out: dict) -> dict:
    """out with the product of the raw pairs f_raw * g_raw, as a dict in
    no particular order, added in; returns out."""
    field = pres.field
    add, mul, zero = field.raw_add, field.raw_mul, field.raw_zero
    gdict = dict(g_raw)
    for alpha, a in f_raw:
        for e, c in _mono_times_dict(pres, alpha, gdict).items():
            _acc(out, e, mul(a, c), add, zero)
    return out


def exponents_of_degree(n: int, d: int):
    if n == 0:  # K^0's one monomial, x^() = 1, has degree 0
        if d == 0:
            yield ()
        return
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
        else:  # a scalar of several parts prints in parentheses already
            text = f"{cs}*{mono}"
        parts.append(text)
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


def parse_polynomial(text: str, pres: Presentation) -> Polynomial:
    """Parse the polynomial grammar and normal-order through the engine.

    Variables may appear in any written order (e.g. "y*x" in the quantum
    plane); the result is the normal form of the written expression.
    """
    ast = parsing.parse_ast(text)
    return _eval_ast(ast, pres)


def parse_scalar(text: str, field: Field) -> Scalar:
    """Parse the scalar grammar: a polynomial over no variables."""
    from skewpbw.presentation import Presentation  # deferred: it imports this module

    return parse_polynomial(text, Presentation(field, ())).constant_value()


def _eval_ast(node, pres: Presentation) -> Polynomial:
    # every binary operation parses left-nested, so a long sum, product,
    # quotient or tower of powers is a chain: walk its left spine in a loop,
    # so that its length takes no recursion depth
    spine = []  # (kind, right operand), outermost first
    while node[0] in ("add", "sub", "mul", "div", "pow"):
        kind, node, right = node
        if kind == "div":  # a denominator is checked before its numerator
            right = _eval_ast(right, pres)
            if right.is_zero():
                raise InputError("division by zero")
            if not right.is_constant():
                raise InputError("division only by nonzero scalars")
            right = Polynomial.constant(pres, right.constant_value().inv())
        spine.append((kind, right))
    kind = node[0]
    if kind == "int":
        acc = Polynomial.constant(pres, pres.field.from_int(node[1]))
    elif kind == "sym" and node[1] in pres.names:
        acc = Polynomial.variable(pres, pres.names.index(node[1]))
    elif kind == "sym":
        acc = Polynomial.constant(pres, parsing._scalar_symbol(pres.field, node[1], node[2]))
    elif kind == "neg":
        acc = -_eval_ast(node[1], pres)
    else:
        raise RuntimeError(f"bad node {kind!r}")
    run = [acc]  # acc and the factors of the * and / that follow it
    for kind, right in reversed(spine):
        if kind in ("mul", "div"):
            run.append(right if kind == "div" else _eval_ast(right, pres))
            continue
        acc = _product(run)
        if kind != "pow":
            rhs = _eval_ast(right, pres)
            acc = acc + rhs if kind == "add" else acc - rhs
        elif right >= 0:
            acc = acc ** right
        elif acc.is_zero():
            raise InputError("division by zero")
        elif not acc.is_constant():
            raise InputError("negative power of a non-scalar")
        else:
            acc = Polynomial.constant(pres, acc.constant_value() ** right)
        run = [acc]
    return _product(run)


def _product(factors: list) -> Polynomial:
    """The product of factors in their order, multiplied from the right.
    Each step's left operand is then one factor, so x*x*...*x inserts one
    variable per step instead of moving a growing power of x past the next
    x: linear in the chain's length, not quadratic."""
    out = factors[-1]
    for f in reversed(factors[:-1]):
        out = multiply(f, out)
    return out
