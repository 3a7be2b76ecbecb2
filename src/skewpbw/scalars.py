"""Exact arithmetic for the coefficient fields and their automorphisms.

Supported fields: the rationals Q, the Gaussian rationals Q(i), cyclotomic
fields Q(z_m) in the power basis reduced mod the m-th cyclotomic polynomial,
and prime fields GF(p). The three characteristic-0 fields share one kernel
on integer numerators over one denominator. Every value has a unique
canonical form, so equality is plain structural equality.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union


class FieldError(ValueError):
    """Invalid field construction or operation."""


class FieldMismatchError(FieldError):
    """Operands belong to different fields."""


# Miller-Rabin with the first 13 primes as bases decides primality exactly
# below this bound (Sorenson & Webster, 2015)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; FieldError at or above _MR_LIMIT."""
    if p < 2:
        return False
    if p >= _MR_LIMIT:
        raise FieldError(
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


# ---------------------------------------------------------------------------
# field specs


@dataclass(frozen=True)
class FieldSpec:
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
        if text.startswith("cyclotomic:"):
            return FieldSpec.cyclotomic(int(text.split(":", 1)[1]))
        if text.startswith("gf:"):
            return FieldSpec.prime(int(text.split(":", 1)[1]))
        raise FieldError(f"unknown field spec {text!r}")

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
        (e.g. polynomials), which defer to the reflected op."""
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
        o = self._operand(other)
        if o is None:
            return NotImplemented
        f = self.field
        return Scalar(f, f.raw_add(self.value, f.raw_neg(o)))

    def __rsub__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        f = self.field
        return Scalar(f, f.raw_add(o, f.raw_neg(self.value)))

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
        out = self.field.one
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def is_zero(self) -> bool:
        return self.value == self.field.raw_zero

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return self.field is other.field and self.value == other.value
        if isinstance(other, (int, Fraction)):
            try:
                return self.value == self.field.coerce(other).value
            except FieldError:
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
    field: an int residue for GF(p), and for Q, Q(i) and Q(z_m) a tuple of
    ints, integer numerators over one denominator (see _NumberField). Each
    field supplies `raw_zero`, `raw_one` and the functions `raw_add(a, b)`,
    `raw_mul(a, b)`, `raw_neg(a)` and `raw_inv(a)` (ZeroDivisionError on
    zero). `Polynomial` stores raw values, so polynomial arithmetic,
    division and linear algebra call these functions directly; a Scalar
    wraps a raw value only where a caller reads a coefficient, and its
    operators call the same functions.
    """

    spec: FieldSpec
    raw_zero: object
    raw_one: object
    m = 1  # automorphisms are z |-> z^k for units k mod m (see galois_exponent)

    def _constants(self, raw_zero, raw_one) -> None:
        self.raw_zero = raw_zero
        self.raw_one = raw_one
        self.zero = Scalar(self, raw_zero)
        self.one = Scalar(self, raw_one)

    def coerce(self, v: Union[Scalar, int, Fraction]) -> Scalar:
        if isinstance(v, Scalar):
            if v.field is not self:
                raise FieldMismatchError(
                    f"scalar of {v.field.spec} used in {self.spec}"
                )
            return v
        if isinstance(v, int):
            return self.from_int(v)
        if isinstance(v, Fraction):
            return self.from_fraction(v)
        raise FieldError(f"cannot coerce {v!r} into {self.spec}")

    def from_int(self, k: int) -> Scalar:
        raise NotImplementedError

    def from_fraction(self, q: Fraction) -> Scalar:
        raise NotImplementedError

    def format(self, a: Scalar) -> str:
        raise NotImplementedError

    def primitive(self) -> Optional[Scalar]:
        """A generator of the field over its prime field, or None for Q/GF(p)."""
        return None

    def unit_exponent(self, k: int) -> int:
        """The exponent k of z |-> z^k in canonical form: k mod m, and 1 for
        the identity map (every k when m = 1). FieldError unless gcd(k, m) = 1.
        """
        if math.gcd(k, self.m) != 1:
            raise FieldError(f"galois exponent {k} not coprime to {self.m}")
        return k % self.m or 1

    @property
    def prime_dim(self) -> int:
        """Dimension of the field as a vector space over its prime field."""
        return 1

    def __repr__(self):
        return f"Field({self.spec})"


@functools.lru_cache(maxsize=None)
def _cyclotomic(m: int) -> tuple:
    # Phi_m = prod over d | m of (x^d - 1)^mu(m/d): multiply in the factors
    # with mu = 1, then divide out those with mu = -1, exactly over Z
    primes = [q for q in range(2, m + 1) if m % q == 0 and _is_prime(q)]
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
    return tuple(coeffs)


def cyclotomic_polynomial(m: int) -> list:
    """Integer coefficients of the m-th cyclotomic polynomial, low degree first.

    Memoized per m; each call returns a fresh list.
    """
    if m < 1:
        raise FieldError("cyclotomic index must be >= 1")
    return list(_cyclotomic(m))


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


# Q on (numerator, denominator) pairs, with the Henrici/Knuth cross-
# cancellation of `fractions`: each gcd runs on the smaller operands
# before they are multiplied.


def _q_add(a, b):
    na, da = a
    nb, db = b
    g = math.gcd(da, db)
    if g == 1:
        return (na * db + nb * da, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = math.gcd(t, g)
    if g2 == 1:
        return (t, s * db)
    return (t // g2, s * (db // g2))


def _q_mul(a, b):
    na, da = a
    nb, db = b
    g1 = math.gcd(na, db)
    if g1 > 1:
        na //= g1
        db //= g1
    g2 = math.gcd(nb, da)
    if g2 > 1:
        nb //= g2
        da //= g2
    return (na * nb, da * db)


def _q_neg(a):
    return (-a[0], a[1])


def _q_inv(a):
    n, d = a
    if n > 0:
        return (d, n)
    if n < 0:
        return (-d, -n)
    raise ZeroDivisionError("inverse of 0")


class _NumberField(Field):
    """Q(z_m) on integers: the one kernel behind Q (m = 1), Q(i) (m = 4)
    and cyclotomic:m.

    A raw value is a tuple (n_0, ..., n_{d-1}, den) of ints, d = phi(m),
    standing for (n_0 + n_1 z + ... + n_{d-1} z^(d-1)) / den in the power
    basis mod Phi_m, with den > 0 and gcd(n_0, ..., n_{d-1}, den) = 1. So
    each element has one tuple, and zero is (0, ..., 0, 1).

    - `raw_add` cross-multiplies, or adds when the denominators are equal,
      and divides out one gcd.
    - `raw_mul` is a schoolbook product of the numerators, then one pass
      over the integer rows x^k mod Phi_m for k = d..2d-2.
    - `raw_inv` is a^-1 = b / N(a), b the product of the conjugates
      sigma_k(a) for the units k != 1 mod m and N(a) = a*b in Q: phi(m) - 1
      products in all.
    - `raw_galois` maps z to z^k through the integer rows x^(jk mod m); an
      automorphism of Z[z] keeps the gcd, so its image needs no reduction.
    For d = 1 the functions are those of Q above.
    """

    symbol = "z"  # the generator's name in printed values

    def __init__(self, spec: FieldSpec, m: int):
        self.spec = spec
        self.m = m
        modulus = cyclotomic_polynomial(m)
        d = self.dim = len(modulus) - 1  # phi(m)
        self._pad = (0,) * (d - 1)
        self._constants((0,) * d + (1,), (1,) + self._pad + (1,))
        # x^e mod Phi_m for e <= 2d - 2 (products) and e < m (Galois maps)
        self._xpow = _power_rows(modulus, max(2 * d - 2, m - 1))
        if d == 1:
            kernel = (_q_add, _q_mul, _q_neg, _q_inv)
        else:
            kernel = self._kernel(d)
        self.raw_add, self.raw_mul, self.raw_neg, self.raw_inv = kernel

    def _kernel(self, d: int):
        # each result ends as integer numerators and a positive denominator
        # divided by their gcd
        gcd = math.gcd
        top = 2 * d - 1
        reduce_rows = list(enumerate(self._xpow[d:top], d))
        units = [k for k in range(2, self.m) if gcd(k, self.m) == 1]
        galois = self.raw_galois

        def add(a, b):
            da, db = a[d], b[d]
            if da == db:
                s = [x + y for x, y in zip(a, b)]
                s[d] = da
            else:
                s = [x * db + y * da for x, y in zip(a, b)]
                s[d] = da * db
            g = gcd(*s)
            return tuple(s) if g == 1 else tuple([x // g for x in s])

        def mul(a, b):
            p = [0] * top
            for i in range(d):
                x = a[i]
                if x:
                    for j in range(d):
                        y = b[j]
                        if y:
                            p[i + j] += x * y
            for k, row in reduce_rows:
                c = p[k]
                if c:
                    for t, r in row:
                        p[t] += c * r
            del p[d:]
            p.append(a[d] * b[d])
            g = gcd(*p)
            return tuple(p) if g == 1 else tuple([x // g for x in p])

        def neg(a):
            return tuple([-x for x in a[:d]]) + a[d:]

        def inv(a):
            if not any(a[:d]):
                raise ZeroDivisionError("inverse of 0")
            b = galois(a, units[0])
            for k in units[1:]:
                b = mul(b, galois(a, k))
            norm = mul(a, b)
            n, nd = norm[0], norm[d]
            if n < 0:
                n, nd = -n, -nd
            s = [x * nd for x in b[:d]]
            s.append(b[d] * n)
            g = gcd(*s)
            return tuple(s) if g == 1 else tuple([x // g for x in s])

        return add, mul, neg, inv

    def raw_galois(self, a, k: int):
        """z |-> z^k on the power basis; requires gcd(k, m) = 1."""
        out = [0] * self.dim
        for j, c in enumerate(a[:-1]):
            if c:
                for t, x in self._xpow[j * k % self.m]:
                    out[t] += c * x
        out.append(a[-1])
        return tuple(out)

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


class RationalField(_NumberField):
    """Q; raw values are pairs (numerator, denominator)."""

    def __init__(self):
        super().__init__(FieldSpec.rationals(), 1)


class GaussianRationalField(_NumberField):
    """Q(i), as Q(z_4) printed with i for z; raw values are triples
    (re, im, den)."""

    symbol = "i"

    def __init__(self):
        super().__init__(FieldSpec.gaussian(), 4)
        self.i = Scalar(self, (0, 1, 1))

    def primitive(self):
        return self.i


class CyclotomicField(_NumberField):
    """Q(z_m), z a primitive m-th root of unity; raw values are phi(m)
    numerators over one denominator in the power basis mod Phi_m.

    An inverse costs phi(m) - 1 products (see _NumberField).
    """

    def __init__(self, m: int):
        super().__init__(FieldSpec.cyclotomic(m), m)
        if self.dim >= 2:
            self.zeta = Scalar(self, (0, 1) + self._pad[1:] + (1,))
        else:
            # m in {1, 2}: z_1 = 1, z_2 = -1
            self.zeta = self.one if m == 1 else Scalar(self, (-1, 1))

    def primitive(self):
        return self.zeta


class PrimeField(Field):
    """GF(p); raw values are ints in range(p)."""

    def __init__(self, p: int):
        if not _is_prime(p):
            raise FieldError(f"{p} is not prime")
        self.p = p
        self.spec = FieldSpec.prime(p)
        self._constants(0, 1 % p)
        # closures over p: the kernels call these per term
        self.raw_add = lambda a, b: (a + b) % p
        self.raw_mul = lambda a, b: a * b % p
        self.raw_neg = lambda a: -a % p

    def from_int(self, k):
        return Scalar(self, k % self.p)

    def from_fraction(self, q):
        den = q.denominator % self.p
        if den == 0:
            raise FieldError(f"denominator {q.denominator} vanishes mod {self.p}")
        return Scalar(self, q.numerator * pow(den, -1, self.p) % self.p)

    def raw_inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, -1, self.p)

    def elements(self):
        return [Scalar(self, v) for v in range(self.p)]

    def format(self, a):
        return str(a.value)


_FIELD_CACHE: dict = {}


def get_field(spec: FieldSpec) -> Field:
    """Field context for a spec; cached so `is` identity works per spec."""
    if spec not in _FIELD_CACHE:
        if spec.kind == "Q":
            _FIELD_CACHE[spec] = RationalField()
        elif spec.kind == "Q(i)":
            _FIELD_CACHE[spec] = GaussianRationalField()
        elif spec.kind == "cyclotomic":
            _FIELD_CACHE[spec] = CyclotomicField(spec.param)
        elif spec.kind == "gf":
            _FIELD_CACHE[spec] = PrimeField(spec.param)
        else:
            raise FieldError(f"unknown field kind {spec.kind!r}")
    return _FIELD_CACHE[spec]


def make_field(spec: FieldSpec) -> Field:
    return get_field(spec)


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
        raise FieldError(f"conjugation undefined on {field.spec}")
    kind, _, arg = tag.partition(":")
    if kind not in ("galois", "frobenius"):
        raise FieldError(f"unknown automorphism {tag!r}")
    try:
        e = int(arg)
    except ValueError:
        raise FieldError(f"unknown automorphism {tag!r}") from None
    if kind == "galois":
        if not isinstance(field, (GaussianRationalField, CyclotomicField)):
            raise FieldError(f"galois power undefined on {field.spec}")
        return field.unit_exponent(e)
    if not isinstance(field, PrimeField):
        raise FieldError(f"frobenius undefined on {field.spec}")
    if e < 0:
        raise FieldError("frobenius power must be >= 0")
    return 1
