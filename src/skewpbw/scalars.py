"""Exact arithmetic for the coefficient fields and their automorphisms.

Supported fields: the rationals Q, the Gaussian rationals Q(i), cyclotomic
fields Q(z_m) in the power basis reduced mod the m-th cyclotomic polynomial,
and prime fields GF(p). Every value has a unique canonical form, so equality
is plain structural equality.
"""

from __future__ import annotations

import functools
import math
import operator
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
    field: an int residue for GF(p), a Fraction for Q, a tuple of
    Fractions for Q(i) and Q(z_m). Each field supplies `raw_zero`,
    `raw_one` and the functions `raw_add(a, b)`, `raw_mul(a, b)`,
    `raw_neg(a)` and `raw_inv(a)` (ZeroDivisionError on zero); the
    normal-ordering and division kernels call them without building a
    Scalar, and the Scalar operators wrap them.
    """

    spec: FieldSpec
    raw_zero: object
    raw_one: object

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

    @property
    def prime_dim(self) -> int:
        """Dimension of the field as a vector space over its prime field."""
        return 1

    def __repr__(self):
        return f"Field({self.spec})"


class RationalField(Field):
    """Q; raw values are Fractions."""

    raw_add = staticmethod(operator.add)
    raw_mul = staticmethod(operator.mul)
    raw_neg = staticmethod(operator.neg)

    def __init__(self):
        self.spec = FieldSpec.rationals()
        self._constants(Fraction(0), Fraction(1))

    def from_int(self, k):
        return Scalar(self, Fraction(k))

    def from_fraction(self, q):
        return Scalar(self, q)

    @staticmethod
    def raw_inv(a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / a

    def format(self, a):
        return str(a.value)


class GaussianRationalField(Field):
    """Q(i); values are pairs (re, im) of Fractions."""

    def __init__(self):
        self.spec = FieldSpec.gaussian()
        self._constants((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)))
        self.i = Scalar(self, (Fraction(0), Fraction(1)))

    def from_int(self, k):
        return Scalar(self, (Fraction(k), Fraction(0)))

    def from_fraction(self, q):
        return Scalar(self, (q, Fraction(0)))

    @staticmethod
    def raw_add(a, b):
        return (a[0] + b[0], a[1] + b[1])

    @staticmethod
    def raw_mul(a, b):
        ar, ai = a
        br, bi = b
        return (ar * br - ai * bi, ar * bi + ai * br)

    @staticmethod
    def raw_neg(a):
        return (-a[0], -a[1])

    @staticmethod
    def raw_inv(a):
        re, im = a
        n = re * re + im * im
        if n == 0:
            raise ZeroDivisionError("inverse of 0")
        return (re / n, -im / n)

    @staticmethod
    def raw_conjugate(a):
        return (a[0], -a[1])

    def primitive(self):
        return self.i

    @property
    def prime_dim(self):
        return 2

    def format(self, a):
        re, im = a.value
        if im == 0:
            return str(re)
        imt = "i" if abs(im) == 1 else f"{abs(im)}*i"
        if re == 0:
            return imt if im > 0 else f"-{imt}"
        sign = "+" if im > 0 else "-"
        return f"({re}{sign}{imt})"


def _poly_trim(c: list) -> list:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_divmod(num: list, den: list):
    """Exact division of integer/Fraction coefficient lists (den monic-led)."""
    num = list(num)
    q = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    lead = Fraction(den[-1])
    while len(num) >= len(den) and _poly_trim(num):
        shift = len(num) - len(den)
        coef = Fraction(num[-1]) / lead
        q[shift] = coef
        for k, d in enumerate(den):
            num[shift + k] -= coef * d
        _poly_trim(num)
    return q, num


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


class CyclotomicField(Field):
    """Q(z_m); values are tuples of phi(m) Fractions in the power basis."""

    def __init__(self, m: int):
        if m < 1:
            raise FieldError("cyclotomic index must be >= 1")
        self.m = m
        self.spec = FieldSpec.cyclotomic(m)
        self.modulus = cyclotomic_polynomial(m)
        self.dim = len(self.modulus) - 1  # phi(m)
        one = [Fraction(0)] * self.dim
        one[0] = Fraction(1)
        self._constants((Fraction(0),) * self.dim, tuple(one))
        # x^k mod Phi_m for k = 0..2*dim-2 (covers products) and k < m (Galois maps)
        self._xpow = self._power_table(max(2 * self.dim - 1, m))
        if self.dim >= 2:
            z = [Fraction(0)] * self.dim
            z[1] = Fraction(1)
            self.zeta = Scalar(self, tuple(z))
        else:
            # m in {1, 2}: z_1 = 1, z_2 = -1
            self.zeta = self.one if m == 1 else Scalar(self, (Fraction(-1),))

    def _power_table(self, top: int) -> list:
        table = []
        cur = [Fraction(0)] * self.dim
        cur[0] = Fraction(1)
        for _ in range(top + 1):
            table.append(tuple(cur))
            # multiply by x, reduce by the monic modulus
            nxt = [Fraction(0)] * (self.dim + 1)
            for k, c in enumerate(cur):
                nxt[k + 1] = c
            lead = nxt[self.dim]
            if lead:
                for k in range(self.dim):
                    nxt[k] -= lead * self.modulus[k]
            cur = nxt[: self.dim]
        return table

    def from_int(self, k):
        v = [Fraction(0)] * self.dim
        v[0] = Fraction(k)
        return Scalar(self, tuple(v))

    def from_fraction(self, q):
        v = [Fraction(0)] * self.dim
        v[0] = q
        return Scalar(self, tuple(v))

    @staticmethod
    def raw_add(a, b):
        return tuple(x + y for x, y in zip(a, b))

    @staticmethod
    def raw_neg(a):
        return tuple(-x for x in a)

    def raw_mul(self, a, b):
        out = [Fraction(0)] * self.dim
        for ka, ca in enumerate(a):
            if not ca:
                continue
            for kb, cb in enumerate(b):
                if not cb:
                    continue
                coef = ca * cb
                for k, c in enumerate(self._xpow[ka + kb]):
                    if c:
                        out[k] += coef * c
        return tuple(out)

    def raw_inv(self, a):
        if a == self.raw_zero:
            raise ZeroDivisionError("inverse of 0")
        # extended Euclid in Q[x]: track r_k = s_k * a (mod Phi_m)
        r0 = [Fraction(c) for c in self.modulus]
        s0: list = [Fraction(0)]
        r1 = _poly_trim(list(a))
        s1 = [Fraction(1)]
        while len(r1) > 1:
            q, r = _poly_divmod(r0, r1)
            s = list(s0) + [Fraction(0)] * max(0, len(q) + len(s1) - len(s0))
            for kq, cq in enumerate(q):
                if not cq:
                    continue
                for ks, cs in enumerate(s1):
                    s[kq + ks] -= cq * cs
            r0, s0 = r1, s1
            r1, s1 = _poly_trim(list(r)), _poly_trim(s) or [Fraction(0)]
        assert r1 and r1[0], "modulus is irreducible, gcd must be a unit"
        c = r1[0]
        out = [Fraction(0)] * self.dim
        for k, cs in enumerate(s1):
            out[k] = cs / c
        return tuple(out[: self.dim])

    def raw_galois(self, a, k: int):
        """z |-> z^k on the power basis; requires gcd(k, m) = 1."""
        out = [Fraction(0)] * self.dim
        for j, c in enumerate(a):
            if not c:
                continue
            for t, x in enumerate(self._xpow[(j * k) % self.m]):
                if x:
                    out[t] += c * x
        return tuple(out)

    def primitive(self):
        return self.zeta

    @property
    def prime_dim(self):
        return self.dim

    def format(self, a):
        parts = []
        for k, c in enumerate(a.value):
            if not c:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                zt = "z" if k == 1 else f"z^{k}"
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


@dataclass(frozen=True)
class AutomorphismSpec:
    """A field automorphism tag: identity, conj, galois:k or frobenius:e."""

    kind: str
    param: int = 0

    @staticmethod
    def identity() -> "AutomorphismSpec":
        return AutomorphismSpec("identity")

    @staticmethod
    def conjugation() -> "AutomorphismSpec":
        return AutomorphismSpec("conj")

    @staticmethod
    def galois(k: int) -> "AutomorphismSpec":
        return AutomorphismSpec("galois", k)

    @staticmethod
    def frobenius(e: int) -> "AutomorphismSpec":
        return AutomorphismSpec("frobenius", e)

    @staticmethod
    def from_string(text: str) -> "AutomorphismSpec":
        text = text.strip()
        if text in ("identity", "id"):
            return AutomorphismSpec.identity()
        if text == "conj":
            return AutomorphismSpec.conjugation()
        if text.startswith("galois:"):
            return AutomorphismSpec.galois(int(text.split(":", 1)[1]))
        if text.startswith("frobenius:"):
            return AutomorphismSpec.frobenius(int(text.split(":", 1)[1]))
        raise FieldError(f"unknown automorphism {text!r}")

    def is_identity(self) -> bool:
        return self.kind == "identity"

    def __str__(self) -> str:
        if self.kind in ("identity", "conj"):
            return self.kind
        return f"{self.kind}:{self.param}"


def validate_automorphism(spec: AutomorphismSpec, field: Field) -> None:
    """Reject specs that are not automorphisms of the given field."""
    if spec.kind == "identity":
        return
    if spec.kind == "conj":
        if isinstance(field, (GaussianRationalField, CyclotomicField, RationalField)):
            return
        raise FieldError(f"conjugation undefined on {field.spec}")
    if spec.kind == "galois":
        if isinstance(field, CyclotomicField):
            m = field.m
        elif isinstance(field, GaussianRationalField):
            m = 4
        else:
            raise FieldError(f"galois power undefined on {field.spec}")
        if math.gcd(spec.param, m) != 1:
            raise FieldError(f"galois exponent {spec.param} not coprime to {m}")
        return
    if spec.kind == "frobenius":
        if isinstance(field, PrimeField):
            if spec.param < 0:
                raise FieldError("frobenius power must be >= 0")
            return
        raise FieldError(f"frobenius undefined on {field.spec}")
    raise FieldError(f"unknown automorphism kind {spec.kind!r}")


def automorphism_map(spec: AutomorphismSpec, field: Field):
    """The automorphism as a function on raw values; None for the identity map."""
    validate_automorphism(spec, field)
    if spec.kind == "identity" or isinstance(field, (RationalField, PrimeField)):
        # conj is trivial on Q; frobenius on GF(p) is x^(p^e) = x by Fermat
        return None
    if isinstance(field, GaussianRationalField):
        if spec.kind == "galois" and spec.param % 4 == 1:
            return None
        return field.raw_conjugate
    if spec.kind == "conj":
        k = field.m - 1 if field.m > 2 else 1
    else:
        k = spec.param % field.m
    return lambda a: field.raw_galois(a, k)


def apply_automorphism(spec: AutomorphismSpec, a: Scalar) -> Scalar:
    fn = automorphism_map(spec, a.field)
    return a if fn is None else Scalar(a.field, fn(a.value))


def automorphism_inverse(spec: AutomorphismSpec, field: Field) -> AutomorphismSpec:
    validate_automorphism(spec, field)
    if spec.kind in ("identity", "conj", "frobenius"):
        return spec
    m = field.m if isinstance(field, CyclotomicField) else 4
    return AutomorphismSpec.galois(pow(spec.param, -1, m))


def automorphism_power(spec: AutomorphismSpec, t: int, field: Field) -> AutomorphismSpec:
    """spec composed with itself t times, collapsed to a single tag."""
    if t == 0 or spec.kind == "identity":
        return AutomorphismSpec.identity()
    if spec.kind == "conj":
        return spec if t % 2 == 1 else AutomorphismSpec.identity()
    if spec.kind == "galois":
        m = field.m if isinstance(field, CyclotomicField) else 4
        k = pow(spec.param, t, m)
        return AutomorphismSpec.identity() if k == 1 else AutomorphismSpec.galois(k)
    return AutomorphismSpec.frobenius(spec.param * t)
