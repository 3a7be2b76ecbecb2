"""Exact arithmetic for the coefficient fields and their automorphisms.

Supported fields: the rationals Q, the Gaussian rationals Q(i), cyclotomic
fields Q(z_m) in the power basis reduced mod the m-th cyclotomic polynomial,
and prime fields GF(p). The three characteristic-0 fields are one class,
Q(z_m) for m = 1, 4 or the parameter, on integer numerators over one
denominator. Each field generates its own straight-line Galois maps, add
and neg, and for degree phi(m) >= 2 its mul, from the reduction rows of
Phi_m; Q multiplies and inverts by hand. Every add cross-cancels as
Q's does. `get_field` refuses Q(z_m) with phi(m) above MAX_FIELD_DEGREE.
Each field names its elements that the text grammar spells `i` or `z`
in `Field.symbols`. Every value has a unique canonical form, so equality
is plain structural equality.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from itertools import repeat
from typing import NamedTuple, Optional, Union


class InputError(ValueError):
    """Input that skewpbw refuses: a malformed document or expression, an
    unsupported field, mismatched operands, or a request outside the
    engine's scope. Its message is the whole explanation."""


# Miller-Rabin with the first 13 primes as bases decides primality exactly
# below this bound (Sorenson & Webster, 2015)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; InputError at or above _MR_LIMIT."""
    if p < 2:
        return False
    if p >= _MR_LIMIT:
        raise InputError(
            f"primality is decided only below {_MR_LIMIT} (about 3.3e24), not for {p}"
        )
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _prime_factors(n: int) -> set:
    """The primes dividing n >= 1, by Pollard's rho on composite parts."""
    out: set = set()
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if m % 2 == 0:
            out.add(2)
            while m % 2 == 0:
                m //= 2
            stack.append(m)
        elif _is_prime(m):
            out.add(m)
        else:
            d = _rho_divisor(m)
            stack += [d, m // d]
    return out


def _rho_divisor(m: int) -> int:
    """A proper divisor of an odd composite m (Pollard's rho, Floyd cycles)."""
    c = 1
    while True:
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % m
            y = (y * y + c) % m
            y = (y * y + c) % m
            d = math.gcd(x - y, m)
        if d != m:
            return d
        c += 1


def power(base, k: int, mul, acc):
    """acc * base^k for an int k >= 0 by square-and-multiply, mul(a, b)
    being the product a*b: each set bit of k multiplies acc on the right by
    a square of base, so about 2 log2(k) products and no recursion."""
    while k:
        if k & 1:
            acc = mul(acc, base)
        k >>= 1
        if k:
            base = mul(base, base)
    return acc


# ---------------------------------------------------------------------------
# field specs


class FieldSpec(NamedTuple):
    """Which coefficient field: Q, Q(i), cyclotomic:m or gf:p."""

    kind: str
    param: Optional[int] = None

    @staticmethod
    def rationals() -> "FieldSpec":
        return FieldSpec("Q")

    @staticmethod
    def gaussian() -> "FieldSpec":
        return FieldSpec("Q(i)")

    @staticmethod
    def cyclotomic(m: int) -> "FieldSpec":
        return FieldSpec("cyclotomic", m)

    @staticmethod
    def prime(p: int) -> "FieldSpec":
        return FieldSpec("gf", p)

    @staticmethod
    def from_string(text: str) -> "FieldSpec":
        text = text.strip()
        if text == "Q":
            return FieldSpec.rationals()
        if text == "Q(i)":
            return FieldSpec.gaussian()
        kind, _, param = text.partition(":")
        if kind in ("cyclotomic", "gf"):
            try:
                return FieldSpec(kind, int(param))
            except ValueError:
                pass
        raise InputError(f"unknown field spec {text!r}")

    def __str__(self) -> str:
        if self.kind in ("Q", "Q(i)"):
            return self.kind
        return f"{self.kind}:{self.param}"


class Scalar:
    """A field element; immutable, canonical, hashable. Arithmetic via dunders.

    `value` is the field's raw value (see Field); the operators apply the
    field's raw functions to it.
    """

    __slots__ = ("field", "value")

    def __init__(self, field: "Field", value):
        self.field = field
        self.value = value

    def _operand(self, other):
        """other's raw value in this field; None for non-scalar operands
        (e.g. polynomials), which defer to the reflected op. Like self, a
        Scalar of this field is read as it is, without `coerce`'s check."""
        if type(other) is Scalar and other.field is self.field:
            return other.value
        if isinstance(other, (Scalar, int, Fraction)):
            return self.field.coerce(other).value
        return None

    def __add__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        f = self.field
        return Scalar(f, f.raw_add(self.value, o))

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        f = self.field
        return Scalar(f, f.raw_mul(self.value, o))

    __rmul__ = __mul__

    def __neg__(self):
        f = self.field
        return Scalar(f, f.raw_neg(self.value))

    def __truediv__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        f = self.field
        return Scalar(f, f.raw_mul(self.value, f.raw_inv(o)))

    def inv(self) -> "Scalar":
        f = self.field
        return Scalar(f, f.raw_inv(self.value))

    def __pow__(self, k: int) -> "Scalar":
        if k < 0:
            return self.inv() ** (-k)
        return power(self, k, operator.mul, self.field.one)

    def is_zero(self) -> bool:
        return self.value == self.field.raw_zero

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return self.field is other.field and self.value == other.value
        if isinstance(other, (int, Fraction)):
            try:
                return self.value == self.field.coerce(other).value
            except InputError:
                return NotImplemented
        return NotImplemented

    def __hash__(self):
        return hash((id(self.field), self.value))

    def __repr__(self):
        return self.field.format(self)

    def __str__(self):
        return self.field.format(self)


class Field:
    """Base field context: constants, arithmetic closure, canonical formatting.

    Arithmetic lives on raw values, the canonical `Scalar.value` of each
    field, which `is_raw(v)` tests and `coerce` requires of a Scalar: an int
    residue for GF(p), and for Q, Q(i) and Q(z_m) a tuple of ints, integer
    numerators over one denominator (see _NumberField). Each field supplies
    `raw_zero`, `raw_one` and the functions `raw_add(a, b)`,
    `raw_mul(a, b)`, `raw_neg(a)` and `raw_inv(a)`: ZeroDivisionError on
    zero at every call, and on a number field of degree >= 2 a memoized
    tuple for a value inverted before (MAX_INVERSE_MEMO). `Polynomial`
    stores raw values, so polynomial arithmetic, division and linear algebra
    call these functions directly; a Scalar wraps a raw value only where a
    caller reads a coefficient, and its operators call the same functions.

    Two vector kernels work on whole lists of raw values, as evaluation at
    many points does: `raw_products(a, b)`, the entrywise products, and
    `raw_combination(coeffs, vectors)`, sum_k coeffs[k] * vectors[k]
    entry by entry. `raw_products` maps `raw_mul`. `raw_combination`'s
    Python-level loop runs over the shorter side: when the entries
    outnumber the terms it adds whole columns, starting from the first
    product, and otherwise it folds `raw_add` over each row, so one point
    of a long polynomial costs what it did. GF(p) overrides both kernels
    with int arithmetic and one reduction mod p per entry: its columns
    add unreduced ints, and the last column's pass reduces.
    """

    spec: FieldSpec
    raw_zero: object
    raw_one: object
    m = 1  # automorphisms are z |-> z^k for units k mod m (see galois_exponent)
    symbol = "z"  # the generator's name in printed values
    # the grammar's scalar symbols that name elements of this field; a
    # variable name may not shadow one
    symbols: dict = {}

    def _constants(self, raw_zero, raw_one) -> None:
        self.raw_zero = raw_zero
        self.raw_one = raw_one
        self.zero = Scalar(self, raw_zero)
        self.one = Scalar(self, raw_one)

    def coerce(self, v: Union[Scalar, int, Fraction]) -> Scalar:
        if isinstance(v, Scalar):
            if v.field is not self:
                raise InputError(f"scalar of {v.field.spec} used in {self.spec}")
            if not self.is_raw(v.value):
                raise InputError(f"{v.value!r} is not a canonical raw value of {self.spec}")
            return v
        if isinstance(v, int):
            return self.from_int(v)
        if isinstance(v, Fraction):
            return self.from_fraction(v)
        raise InputError(f"cannot coerce {v!r} into {self.spec}")

    def from_int(self, k: int) -> Scalar:
        raise NotImplementedError

    def from_fraction(self, q: Fraction) -> Scalar:
        raise NotImplementedError

    def format(self, a: Scalar) -> str:
        raise NotImplementedError

    def raw_products(self, a, b) -> list:
        """[a_k * b_k] for two lists of raw values of one length."""
        return list(map(self.raw_mul, a, b))

    def raw_combination(self, coeffs, vectors) -> list:
        """[sum_k coeffs[k] * vectors[k][j] for each entry j], for lists
        of raw values of one length; [] when there are no vectors."""
        add, mul, zero = self.raw_add, self.raw_mul, self.raw_zero
        if not vectors or len(vectors[0]) <= len(coeffs):
            return [functools.reduce(add, map(mul, coeffs, row), zero) for row in zip(*vectors)]
        # columns, from the first product on
        acc = list(map(mul, repeat(coeffs[0]), vectors[0]))
        for c, v in zip(coeffs[1:], vectors[1:]):
            acc = list(map(add, acc, map(mul, repeat(c), v)))
        return acc

    def primitive(self) -> Optional[Scalar]:
        """A generator of the field over its prime field, or None for Q/GF(p)."""
        return self.symbols.get(self.symbol)

    def unit_exponent(self, k: int) -> int:
        """The exponent k of z |-> z^k in canonical form: k mod m, and 1 for
        the identity map (every k when m = 1). InputError unless gcd(k, m) = 1.
        """
        if math.gcd(k, self.m) != 1:
            raise InputError(f"galois exponent {k} not coprime to {self.m}")
        return k % self.m or 1

    @property
    def prime_dim(self) -> int:
        """Dimension of the field as a vector space over its prime field."""
        return 1

    def __repr__(self):
        return f"Field({self.spec})"


def cyclotomic_polynomial(m: int) -> list:
    """Integer coefficients of the m-th cyclotomic polynomial, low degree
    first, computed on each call: a number field computes its Phi_m once,
    since fields are kept (`get_field`)."""
    if m < 1:
        raise InputError("cyclotomic index must be >= 1")
    # Phi_m = prod over d | m of (x^d - 1)^mu(m/d): multiply in the factors
    # with mu = 1, then divide out those with mu = -1, exactly over Z
    primes = sorted(_prime_factors(m))
    coeffs = [1]
    divide_by = []
    for k in range(1 << len(primes)):  # squarefree e = m/d, mu(e) = (-1)^|e|
        e = 1
        for bit, q in enumerate(primes):
            if k >> bit & 1:
                e *= q
        d = m // e
        if bin(k).count("1") % 2 == 0:
            coeffs = [0] * d + coeffs  # x^d * c - c
            for j in range(len(coeffs) - d):
                coeffs[j] -= coeffs[j + d]
        else:
            divide_by.append(d)
    for d in divide_by:  # c = q * (x^d - 1): q[j - d] = c[j] + q[j]
        top = len(coeffs) - 1
        q = [0] * (top - d + 1)
        for j in range(top, d - 1, -1):
            q[j - d] = coeffs[j] + (q[j] if j < len(q) else 0)
        assert all(coeffs[j] + q[j] == 0 for j in range(d)), "inexact division"
        coeffs = q
    return coeffs


def _power_rows(modulus: list, top: int) -> list:
    """x^e mod a monic integer modulus for e = 0..top, each as a sparse row
    of (power, coefficient) pairs."""
    d = len(modulus) - 1
    rows = []
    cur = [1] + [0] * (d - 1)
    for _ in range(top + 1):
        rows.append(tuple((t, c) for t, c in enumerate(cur) if c))
        lead = cur[-1]
        cur = [0] + cur[:-1]
        if lead:
            for t in range(d):
                cur[t] -= lead * modulus[t]
    return rows


# The largest phi(m) of a field Q(z_m) that `get_field` builds. A field's
# generated source grows as phi(m)^2 (mul) plus phi(m)^2 per Galois map, so
# this bounds the cost of building one: cyclotomic:120, the largest m
# allowed, builds in about 16 ms (CPython 3.11, x86-64), Q(z_5) in 0.5 ms.
MAX_FIELD_DEGREE = 32


def _check_degree(m: int) -> None:
    """InputError unless m >= 1 and phi(m) <= MAX_FIELD_DEGREE. Since
    phi(m) >= sqrt(m/2), no m above 2 * MAX_FIELD_DEGREE^2 is factored."""
    if m < 1:
        raise InputError("cyclotomic index must be >= 1")
    phi = m
    if m <= 2 * MAX_FIELD_DEGREE**2:
        for p in _prime_factors(m):
            phi -= phi // p
    if phi > MAX_FIELD_DEGREE:
        raise InputError(
            f"cyclotomic:{m} has degree phi({m}) above the limit of "
            f"{MAX_FIELD_DEGREE} (scalars.MAX_FIELD_DEGREE)"
        )


def _sum(pairs) -> str:
    """Source of the int sum of c * v over (c, v) pairs; 0 for none."""
    text = "".join(
        f" {'-' if c < 0 else '+'} {v if abs(c) == 1 else f'{abs(c)} * {v}'}"
        for c, v in pairs
    )
    if not text:
        return "0"
    return text[3:] if text[1] == "+" else "-" + text[3:]


def _kernel_source(d: int, m: int, rows) -> str:
    """Python source of straight-line kernels on raw values
    (n_0, ..., n_{d-1}, den) of Q(z_m), d = phi(m), where rows[e] is x^e mod
    Phi_m as (power, coefficient) pairs for e <= max(2d - 2, m - 1):
    - `galois_k(a)`, z |-> z^k, for each unit k in range(m);
    - `add` and `neg`, and for d >= 2 `mul`.
    `add` is Henrici's cross-cancelling sum (Knuth, TAOCP vol. 2, 4.5.1),
    whose argument holds coordinatewise on canonical tuples: with
    g = gcd(da, db), the cross products are canonical when g = 1, and
    otherwise only g can share a factor with the numerators
    a_t * (db / g) + b_t * (da / g). `mul` divides its numerators and
    denominator by their gcd. Each gcd lists the denominator first, since
    `math.gcd` stops reducing once it reaches 1. The source uses only int
    operations and `gcd`."""
    a = [f"a{i}" for i in range(d)]
    b = [f"b{i}" for i in range(d)]
    n = [f"n{t}" for t in range(d)]
    nums = ", ".join(n)
    unpack = [f"    {', '.join(a)}, da = a", f"    {', '.join(b)}, db = b"]

    def reduced(den, den_g):  # return n / g over den_g, or n over den if g = 1
        return ["    if g == 1:", f"        return ({nums}, {den})",
                f"    return ({', '.join(x + ' // g' for x in n)}, {den_g})", ""]

    lines = []
    for k in range(m):
        if math.gcd(k, m) == 1:
            image = [[] for _ in range(d)]  # a_j z^j |-> a_j x^(jk mod m)
            for j in range(d):
                for t, c in rows[j * k % m]:
                    image[t].append((c, a[j]))
            lines += [f"def galois_{k}(a):", unpack[0]]
            lines += [f"    return ({', '.join(map(_sum, image))}, da)", ""]
    cross = ", ".join(f"{a[t]} * db + {b[t]} * da" for t in range(d))
    lines += ["def add(a, b):", *unpack, "    g = gcd(da, db)", "    if g == 1:"]
    lines += [f"        return ({cross}, da * db)", "    s, t = da // g, db // g"]
    lines += [f"    {n[k]} = {a[k]} * t + {b[k]} * s" for k in range(d)]
    lines += [f"    g = gcd(g, {nums})", *reduced("s * db", "s * (db // g)")]
    lines += ["def neg(a):", unpack[0]]
    lines += [f"    return ({', '.join('-' + x for x in a)}, da)", ""]
    if d == 1:
        return "\n".join(lines)

    def products(e):  # the terms of x^e in the unreduced product
        lo, hi = max(0, e - d + 1), min(e, d - 1)
        return [(1, f"{a[i]} * {b[e - i]}") for i in range(lo, hi + 1)]

    folded = [[] for _ in range(d)]  # n_t += c * p_e for each (t, c) in row e
    for e in range(d, 2 * d - 1):
        for t, c in rows[e]:
            folded[t].append((c, f"p{e}"))
    lines += ["def mul(a, b):", *unpack]
    lines += [f"    p{e} = {_sum(products(e))}" for e in range(d, 2 * d - 1)]
    lines += [f"    {n[t]} = {_sum(products(t) + folded[t])}" for t in range(d)]
    lines += ["    den = da * db", f"    g = gcd(den, {nums})"]
    lines += reduced("den", "den // g")
    return "\n".join(lines)


# Q multiplies and inverts by hand, since both generated alternatives were
# slower (CPython 3.11, x86-64): Q's cross-cancelling mul generated for every
# d took Q(i) mul on 64-bit fractions from 1.5 to 2.5 us, and the d >= 2
# inverse, a norm with no conjugates on Q, took 1.7-2.5 us against 0.2-0.3
# us for the swap below.


def _q_mul(a, b):
    na, da = a
    nb, db = b
    if da == 1 and db == 1:  # integers: nothing to cancel
        return (na * nb, 1)
    g1 = math.gcd(na, db)
    if g1 > 1:
        na //= g1
        db //= g1
    g2 = math.gcd(nb, da)
    if g2 > 1:
        nb //= g2
        da //= g2
    return (na * nb, da * db)


def _q_inv(a):
    n, d = a
    if n > 0:
        return (d, n)
    if n < 0:
        return (-d, -n)
    raise ZeroDivisionError("inverse of 0")


# The inverses a number field of degree >= 2 memoizes (`_NumberField._inverses`)
MAX_INVERSE_MEMO = 256


class _NumberField(Field):
    """Q(z_m) on integers, z a primitive m-th root of unity: one class for
    Q (m = 1), Q(i) (m = 4, printed with i for z) and cyclotomic:m, which
    differ only in m and in their scalar symbols.

    A raw value is a tuple (n_0, ..., n_{d-1}, den) of ints, d = phi(m),
    standing for (n_0 + n_1 z + ... + n_{d-1} z^(d-1)) / den in the power
    basis mod Phi_m, with den > 0 and gcd(n_0, ..., n_{d-1}, den) = 1. So
    each element has one tuple, and zero is (0, ..., 0, 1): a pair
    (numerator, denominator) on Q, a triple (re, im, den) on Q(i).

    Each field generates its kernels once, from the integer rows x^e mod
    Phi_m (`_kernel_source`), as straight-line functions compiled from
    int-only source named `<skewpbw kernel SPEC>`:
    - `raw_add` and `raw_neg`, on every field Q included; `raw_add`
      cross-cancels, so its last gcd runs on gcd(da, db) alone.
    - `raw_mul` spells out every product a_i * b_j, gathers those of degree
      k >= d into p_k, and folds each p_k into the numerators by the row
      x^k mod Phi_m, then divides out one gcd.
    - `raw_galois(a, k)` calls the map generated for the unit k mod m,
      z^j |-> x^(jk mod m) mod Phi_m; an automorphism of Z[z] keeps the
      gcd, so its image needs no reduction.
    - `raw_inv` answers from a memo of MAX_INVERSE_MEMO values per field
      (`_inverses`). A miss inverts the numerators x down the subfields of
      `_tower`: a step of prime index q multiplies the conjugates
      sigma_h^t(x), 0 < t < q, into c, and x^-1 = c (x c)^-1 with x c in
      the next subfield; cyclotomic:120 takes 5 steps, not 31 conjugates.
    On Q (d = 1) `raw_mul` and `raw_inv` are `_q_mul` and `_q_inv`, and
    the identity is the only Galois map.

    The generator, `primitive()`, is i on Q(i) and z on cyclotomic:m,
    where it is 1 for m = 1 and -1 for m = 2; Q has none.
    """

    def __init__(self, spec: FieldSpec):
        m = {"Q": 1, "Q(i)": 4}.get(spec.kind, spec.param)
        _check_degree(m)
        self.spec = spec
        self.m = m
        modulus = cyclotomic_polynomial(m)
        d = self.dim = len(modulus) - 1  # phi(m)
        self._pad = (0,) * (d - 1)
        self._constants((0,) * d + (1,), (1,) + self._pad + (1,))
        # x^e mod Phi_m for e <= 2d - 2 (products) and e < m (Galois maps)
        rows = _power_rows(modulus, max(2 * d - 2, m - 1))
        namespace = {"gcd": math.gcd}
        source = _kernel_source(d, m, rows)
        exec(compile(source, f"<skewpbw kernel {spec}>", "exec"), namespace)
        self._galois = {
            k: namespace[f"galois_{k}"] for k in range(m) if math.gcd(k, m) == 1
        }
        self.raw_add, self.raw_neg = namespace["add"], namespace["neg"]
        if d == 1:
            self.raw_mul, self.raw_inv = _q_mul, _q_inv
            z = self.one if m == 1 else Scalar(self, (-1, 1))  # z_1, z_2
        else:
            self.raw_mul = namespace["mul"]
            self.raw_inv = self._inv()
            z = Scalar(self, (0, 1) + self._pad[1:] + (1,))
        if spec.kind == "Q(i)":
            self.symbol = "i"
            self.symbols = {"i": z}
        elif spec.kind == "cyclotomic":
            self.symbols = {"z": z, "i": z} if m == 4 else {"z": z}

    def _tower(self) -> list:
        """Per step of a chain 1 < H_1 < ... < (Z/m)^x of prime indices q,
        the maps sigma_h^t, 0 < t < q, h generating the step. It keeps e,
        the gcd of m and every h - 1, large, so Q(z_e) stays in the fixed
        field: for p^2 | m, the powers of z^p span Q(z_(m/p)) sparsely."""
        m, group, e, steps = self.m, {1}, self.m, []
        while len(group) < self.dim:
            candidates = []
            for k in set(self._galois) - group:
                n, x = 1, k  # the order of k modulo the group
                while x not in group:
                    x, n = x * k % m, n + 1
                q = min(_prime_factors(n))
                h = pow(k, n // q, m)
                candidates.append((-math.gcd(e, h - 1), q, h))
            _, q, h = min(candidates)
            e = math.gcd(e, h - 1)
            steps.append([self._galois[pow(h, t, m)] for t in range(1, q)])
            group = {g * pow(h, t, m) % m for g in group for t in range(q)}
        return steps

    def _inv(self):
        d, mul, gcd, steps = self.dim, self.raw_mul, math.gcd, self._tower()
        memo = self._inverses = {}

        def inv(a):
            b = memo.get(a)
            if b is not None:
                return b
            if not any(a[:d]):
                raise ZeroDivisionError("inverse of 0")
            x, cofactors = a[:d] + (1,), []
            for maps in steps:
                c = maps[0](x)
                if c == x:  # x lies in the next subfield already
                    continue
                for galois in maps[1:]:
                    c = mul(c, galois(x))
                cofactors.append(c)
                x = mul(x, c)
            # a^-1 = den * c / n: n = x[0] the norm, c the cofactors' product
            c = functools.reduce(mul, cofactors[::-1]) if cofactors else self.raw_one
            n, den = x[0], a[d]
            if n < 0:
                n, den = -n, -den
            nums = [v * den for v in c[:d]]
            g = gcd(n, *nums)
            b = (*nums, n) if g == 1 else (*(v // g for v in nums), n // g)
            if len(memo) >= MAX_INVERSE_MEMO:
                memo.clear()
            memo[a] = b
            return b

        return inv

    def is_raw(self, v) -> bool:
        try:  # gcd and > refuse a value that is not an integer
            return type(v) is tuple and len(v) == self.dim + 1 and v[-1] > 0 and math.gcd(*v) == 1
        except TypeError:
            return False

    def raw_galois(self, a, k: int):
        """z |-> z^k on the power basis; requires gcd(k, m) = 1."""
        return self._galois[k % self.m](a)

    def from_int(self, k):
        return Scalar(self, (k,) + self._pad + (1,))

    def from_fraction(self, q):
        return Scalar(self, (q.numerator,) + self._pad + (q.denominator,))

    @property
    def prime_dim(self):
        return self.dim

    def format(self, a):
        den = a.value[-1]
        parts = []
        for k, n in enumerate(a.value[:-1]):
            if not n:
                continue
            c = Fraction(n, den)
            if k == 0:
                parts.append(str(c))
            else:
                zt = self.symbol if k == 1 else f"{self.symbol}^{k}"
                if c == 1:
                    parts.append(zt)
                elif c == -1:
                    parts.append(f"-{zt}")
                else:
                    parts.append(f"{c}*{zt}")
        if not parts:
            return "0"
        text = parts[0]
        for p in parts[1:]:
            text += ("+" + p) if not p.startswith("-") else p
        return f"({text})" if len(parts) > 1 else text


class PrimeField(Field):
    """GF(p); raw values are ints in range(p)."""

    def __init__(self, p: int):
        if not _is_prime(p):
            raise InputError(f"{p} is not prime")
        self.p = p
        self.spec = FieldSpec.prime(p)
        self._constants(0, 1 % p)
        # closures over p: the kernels call these per term
        self.raw_add = lambda a, b: (a + b) % p
        self.raw_mul = lambda a, b: a * b % p
        self.raw_neg = lambda a: -a % p
        # the vector kernels on ints, with one reduction per entry
        self.raw_products = lambda a, b: [x * y % p for x, y in zip(a, b)]

        def raw_combination(coeffs, vectors):
            if not vectors or len(vectors[0]) <= len(coeffs):
                return [sum(map(operator.mul, coeffs, row)) % p for row in zip(*vectors)]
            last = len(coeffs) - 1
            if not last:
                c = coeffs[0]
                return [c * x % p for x in vectors[0]]
            # columns summed unreduced; the last one's pass reduces
            c = coeffs[0]
            acc = [c * x for x in vectors[0]]
            for c, v in zip(coeffs[1:last], vectors[1:last]):
                acc = [a + c * x for a, x in zip(acc, v)]
            c = coeffs[last]
            return [(a + c * x) % p for a, x in zip(acc, vectors[last])]

        self.raw_combination = raw_combination

    def from_int(self, k):
        return Scalar(self, k % self.p)

    def from_fraction(self, q):
        den = q.denominator % self.p
        if den == 0:
            raise InputError(f"denominator {q.denominator} vanishes mod {self.p}")
        return Scalar(self, q.numerator * pow(den, -1, self.p) % self.p)

    def is_raw(self, v) -> bool:
        return type(v) is int and 0 <= v < self.p

    def raw_inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, -1, self.p)

    def format(self, a):
        return str(a.value)


_FIELD_CACHE: dict = {}


def get_field(spec: FieldSpec) -> Field:
    """Field context for a spec; cached so `is` identity works per spec."""
    if spec not in _FIELD_CACHE:
        if spec.kind in ("Q", "Q(i)", "cyclotomic"):
            _FIELD_CACHE[spec] = _NumberField(spec)
        elif spec.kind == "gf":
            _FIELD_CACHE[spec] = PrimeField(spec.param)
        else:
            raise InputError(f"unknown field kind {spec.kind!r}")
    return _FIELD_CACHE[spec]


make_field = get_field  # the name the package exports


# ---------------------------------------------------------------------------
# automorphisms


def galois_exponent(tag: str, field: Field) -> int:
    """The exponent k, in `Field.unit_exponent` form, of the automorphism
    z |-> z^k that a tag names. Q(i) and cyclotomic:m take identity (or id),
    conj (k = -1) and galois:k; Q takes identity and conj, the identity on
    Q; GF(p) takes identity and frobenius:e, e >= 0, x^(p^e) = x by Fermat.
    """
    tag = tag.strip()
    if tag in ("identity", "id"):
        return 1
    if tag == "conj":
        if isinstance(field, _NumberField):
            return field.unit_exponent(-1)
        raise InputError(f"conjugation undefined on {field.spec}")
    kind, _, arg = tag.partition(":")
    if kind not in ("galois", "frobenius"):
        raise InputError(f"unknown automorphism {tag!r}")
    try:
        e = int(arg)
    except ValueError:
        raise InputError(f"unknown automorphism {tag!r}") from None
    if kind == "galois":
        if field.primitive() is None:
            raise InputError(f"galois power undefined on {field.spec}")
        return field.unit_exponent(e)
    if not isinstance(field, PrimeField):
        raise InputError(f"frobenius undefined on {field.spec}")
    if e < 0:
        raise InputError("frobenius power must be >= 0")
    return 1
