"""Roots, vanishing sets, ideals of points and algebraic witnesses.

A point Z is a root of f when f lies in the two-sided ideal
I_Z = <x_1 - z_1, ..., x_n - z_n>. In A/I_Z every x_i equals the scalar
z_i, so A/I_Z is the image of the field: 0 or the field itself. Hence I_Z
is proper exactly when x_i -> z_i extends to a ring map epsilon_Z: A -> K
(`is_character`). Then I_Z lies in the kernel of epsilon_Z and has the
same codimension 1, so it is that kernel: f is a root exactly when
epsilon_Z(f) = sum c_alpha * z^alpha is zero (`evaluate`). So no point
needs a Groebner basis of its own, and neither does a witness: the
hyperplane sums s - c, s = x_1 + ... + x_n, commute with each other and
epsilon_Z is multiplicative, so their product vanishes wherever one
factor does, and A is a domain (Lezama & Reyes, Comm. Algebra 2014), so
the product is not zero. Vanishing sets over infinite fields are
enumerated over a finite search domain, and points whose ideal is the
whole ring are first-class: they are roots of everything and the reports
mark them as degenerate.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field as dc_field
from typing import List, Optional, Sequence, Tuple

from skewpbw import linalg
from skewpbw.groebner import PROPER, TWO_SIDED, UNIT, IdealHandle, is_member_left
from skewpbw.poly import DEGLEX, Polynomial, exponents_up_to, multiply
from skewpbw.presentation import Presentation
from skewpbw.scalars import Field, PrimeField, Scalar


class GeometryError(ValueError):
    pass


# the most points a search domain may enumerate: every point is built up
# front and then checked and evaluated on its own
MAX_DOMAIN_POINTS = 100_000


@dataclass(frozen=True)
class Point:
    coords: Tuple[Scalar, ...]

    @staticmethod
    def of(pres: Presentation, values) -> "Point":
        coords = tuple(pres.field.coerce(v) for v in values)
        if len(coords) != pres.n:
            raise GeometryError(
                f"point has {len(coords)} coordinates, presentation has {pres.n}"
            )
        return Point(coords)

    def __repr__(self):
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


class SearchDomain:
    """Finite candidate set over which vanishing sets are enumerated."""

    def __init__(self, kind: str, per_coordinate: Optional[tuple] = None):
        self.kind = kind  # "grid" | "full-prime-field"
        self.per_coordinate = per_coordinate

    @staticmethod
    def grid(columns: Sequence[Sequence[Scalar]]) -> "SearchDomain":
        return SearchDomain("grid", tuple(tuple(c) for c in columns))

    @staticmethod
    def full_prime_field() -> "SearchDomain":
        return SearchDomain("full-prime-field")

    def points(self, pres: Presentation) -> List[Point]:
        """Every candidate point; GeometryError past MAX_DOMAIN_POINTS."""
        if self.kind == "grid":
            cols = self.per_coordinate
            if len(cols) == 1 and pres.n > 1:
                cols = cols * pres.n
            if len(cols) != pres.n:
                raise GeometryError("grid arity does not match the presentation")
            _check_domain_size(math.prod(len(col) for col in cols))
            cols = tuple(
                tuple(pres.field.coerce(v) for v in col) for col in cols
            )
            return [Point(t) for t in itertools.product(*cols)]
        if not isinstance(pres.field, PrimeField):
            raise GeometryError("full-prime-field domain needs a GF(p) presentation")
        _check_domain_size(pres.field.p ** pres.n)
        elems = pres.field.elements()
        return [Point(t) for t in itertools.product(elems, repeat=pres.n)]

    def __repr__(self):
        return f"SearchDomain({self.kind})"


def _check_domain_size(count: int) -> None:
    if count > MAX_DOMAIN_POINTS:
        raise GeometryError(
            f"search domain has {count} points, above the limit of {MAX_DOMAIN_POINTS}"
        )


@dataclass(frozen=True)
class PointIdealCache:
    point: Point
    handle: IdealHandle


def point_generators(pres: Presentation, Z: Point) -> List[Polynomial]:
    return [
        Polynomial.variable(pres, i) - Polynomial.constant(pres, z)
        for i, z in enumerate(Z.coords)
    ]


def is_character(pres: Presentation, Z: Point) -> bool:
    """Whether x_i -> z_i extends to a ring map A -> K.

    It does exactly when z_i = 0 wherever sigma_i moves the field primitive
    r (x_i*r = sigma_i(r)*x_i forces z_i*(r - sigma_i(r)) = 0), and Z
    satisfies z_j*z_i = c_ij*z_i*z_j + sum_k a_k*z_k + d for every i < j.
    """
    return _character_test(pres)([c.value for c in Z.coords])


def _character_test(pres: Presentation):
    """is_character on raw coordinates, with the relations unwrapped once."""
    field = pres.field
    add, mul, zero = field.raw_add, field.raw_mul, field.raw_zero
    prim = field.primitive()
    twisted = [
        i for i, sigma in enumerate(pres.sigma_maps)
        if sigma is not None and sigma(prim.value) != prim.value
    ]
    relations = [
        (i, j, rel.c.value, rel.const.value,
         [(k, a.value) for k, a in enumerate(rel.linear) if not a.is_zero()])
        for (i, j), rel in pres.relations.items()
    ]

    def test(z) -> bool:
        for i in twisted:
            if z[i] != zero:
                return False
        for i, j, c, d, linear in relations:
            zij = mul(z[i], z[j])
            rhs = add(mul(c, zij), d)
            for k, a in linear:
                rhs = add(rhs, mul(a, z[k]))
            if rhs != zij:
                return False
        return True

    return test


def _monomial_values(field: Field, Z: Point):
    """x^alpha -> z^alpha on raw values, building each power once."""
    mul, one = field.raw_mul, field.raw_one
    z = [c.value for c in Z.coords]
    powers = [[one] for _ in z]

    def value(exp):
        out = one
        for zi, pw, k in zip(z, powers, exp):
            if k:
                while len(pw) <= k:
                    pw.append(mul(pw[-1], zi))
                out = mul(out, pw[k])
        return out

    return value


def evaluate(f: Polynomial, Z: Point) -> Scalar:
    """sum c_alpha * z^alpha over the normal-ordered terms of f.

    At a character point this is the ring map epsilon_Z applied to f, and
    f is a root exactly when it is zero.
    """
    field = f.pres.field
    add, mul = field.raw_add, field.raw_mul
    value = _monomial_values(field, Z)
    out = field.raw_zero
    for exp, c in f.raw:
        out = add(out, mul(c, value(exp)))
    return Scalar(field, out)


def point_ideal(pres: Presentation, Z: Point) -> PointIdealCache:
    """Two-sided ideal of x_i - z_i with its reduced basis; cached per presentation.

    The reduced basis is unique, so it is written down, not saturated: at
    a character point it is the generators sorted by lead (the last
    variable is the smallest), elsewhere the ideal is the whole ring.
    """
    handle = pres._point_ideals.get(Z.coords)
    if handle is None:
        gens = tuple(point_generators(pres, Z))
        if is_character(pres, Z):
            status, basis, note = PROPER, gens[::-1], ""
        else:
            status, basis, note = UNIT, (Polynomial.one(pres),), "derived a nonzero constant"
        handle = IdealHandle(pres, gens, TWO_SIDED, status, DEGLEX, basis, None, note)
        pres._point_ideals[Z.coords] = handle
    return PointIdealCache(Z, handle)


def is_root(f: Polynomial, Z: Point) -> str:
    """'yes'/'no': membership of f in the point's two-sided ideal."""
    if point_ideal(f.pres, Z).handle.status == UNIT:
        return "yes"
    return "yes" if evaluate(f, Z).is_zero() else "no"


ROOT = "root"
NON_ROOT = "non-root"
DEGENERATE = "degenerate"


@dataclass
class VanishingReport:
    roots: List[Point]
    non_roots: List[Point]
    degenerate: List[Point]
    unknown: List[Point]  # always empty: evaluation decides every point

    def table(self) -> List[tuple]:
        rows = []
        degen = set(p.coords for p in self.degenerate)
        for p in self.roots:
            rows.append((p, DEGENERATE if p.coords in degen else ROOT))
        rows.extend((p, NON_ROOT) for p in self.non_roots)
        rows.extend((p, "unknown") for p in self.unknown)
        return rows


def vanishing_set(
    pres: Presentation,
    polys: Sequence[Polynomial],
    domain: SearchDomain,
) -> VanishingReport:
    """Partition of the domain into roots of every generator and non-roots;
    checking generators suffices for the ideal they generate."""
    roots: List[Point] = []
    non_roots: List[Point] = []
    degenerate: List[Point] = []
    character = _character_test(pres)
    for Z in domain.points(pres):
        if not character([c.value for c in Z.coords]):
            degenerate.append(Z)
            roots.append(Z)
        elif all(evaluate(f, Z).is_zero() for f in polys):
            roots.append(Z)
        else:
            non_roots.append(Z)
    return VanishingReport(roots, non_roots, degenerate, [])


def ideal_of_points(
    pres: Presentation,
    points: Sequence[Point],
    d: int,
) -> List[Polynomial]:
    """Basis of {f : deg f <= d, f in <Z> for every Z}, by evaluation.

    At a character point f lies in <Z> exactly when sum c_alpha * z^alpha
    is zero, so the space is the nullspace of the rows (z^alpha)_alpha;
    any other point's ideal is the whole ring and adds no row.
    """
    field = pres.field
    monos = exponents_up_to(pres.n, d)
    rows = []
    for Z in points:
        if is_character(pres, Z):
            value = _monomial_values(field, Z)
            rows.append([value(e) for e in monos])
    return [
        Polynomial.from_raw(pres, zip(monos, vec))
        for vec in linalg.nullspace(rows, field, len(monos))
    ]


@dataclass
class WitnessResult:
    witness: Polynomial
    note: str = ""


def algebraic_witness(pres: Presentation, points: Sequence[Point]) -> WitnessResult:
    """A nonzero g with every given point a root: the product of the
    hyperplane sums s - c, s = x_1 + ... + x_n, over the distinct
    coordinate sums c of the points.

    The factors are polynomials in s, so they commute, and g is a left
    multiple of each one. At a character point Z, epsilon_Z is a ring map,
    so it sends g to the product of the epsilon_Z(s - c), one of which is
    zero; any other point is a root of everything. A is a domain, so g is
    not zero. The empty set gets s, the sum at the origin.
    """
    s = Polynomial.zero(pres)
    for i in range(pres.n):
        s = s + Polynomial.variable(pres, i)
    if not points:
        return WitnessResult(s, "empty point set; witness at the origin")
    g = Polynomial.one(pres)
    for c in dict.fromkeys(sum(Z.coords, pres.field.zero) for Z in points):
        g = multiply(g, s - Polynomial.constant(pres, c))
    for Z in points:
        if is_root(g, Z) == "no":
            raise GeometryError(f"witness fails root check at {Z}")
    return WitnessResult(g)


# ---------------------------------------------------------------------------
# random sampling and the semiprimeness probe


def random_scalar(field: Field, rng: random.Random) -> Scalar:
    if isinstance(field, PrimeField):
        return field.from_int(rng.randrange(field.p))
    out = field.from_int(rng.randint(-3, 3))
    prim = field.primitive()
    if prim is not None and rng.random() < 0.5:
        out = out + field.from_int(rng.randint(-2, 2)) * prim
    return out


def random_polynomial(
    pres: Presentation,
    rng: random.Random,
    max_degree: int = 3,
    max_terms: int = 4,
) -> Polynomial:
    field = pres.field
    add, zero = field.raw_add, field.raw_zero
    monos = exponents_up_to(pres.n, max_degree)
    out: dict = {}
    for _ in range(rng.randint(1, max_terms)):
        e = monos[rng.randrange(len(monos))]
        c = random_scalar(field, rng).value
        if c != zero:
            out[e] = add(out.get(e, zero), c)
    return Polynomial.from_raw(pres, out.items())


@dataclass
class SemiprimeReport:
    point: Point
    proper: bool
    samples: int
    consistent: int
    unknown: int  # always 0: a point ideal is always resolved
    counterexamples: List[Polynomial] = dc_field(default_factory=list)


def semiprime_probe(
    pres: Presentation,
    Z: Point,
    samples: int = 100,
    max_degree: int = 3,
    seed: int = 0,
) -> SemiprimeReport:
    """Probe f^2 in <Z> iff f in <Z> on random f; reports any counterexample."""
    if not pres.quasi_commutative:
        raise GeometryError("the semiprimeness probe needs a quasi-commutative presentation")
    handle = point_ideal(pres, Z).handle
    rng = random.Random(seed)
    consistent = 0
    counterexamples: List[Polynomial] = []
    for _ in range(samples):
        f = random_polynomial(pres, rng, max_degree)
        if is_member_left(f, handle) == is_member_left(multiply(f, f), handle):
            consistent += 1
        else:
            counterexamples.append(f)
    return SemiprimeReport(
        Z, handle.status == PROPER, samples, consistent, 0, counterexamples
    )
