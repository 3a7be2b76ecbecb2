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
the product is not zero.

Lemma: every proper point ideal is completely prime, since A/I_Z is the
field K, so fg in I_Z forces f or g into I_Z. Hence f^2 lies in I_Z
exactly when f does, and rad(I) lies in I(V(I)) for every two-sided ideal
I: a point ideal that contains I is A or completely prime, and either way
it holds every f with a power in I.

Vanishing sets over infinite fields are enumerated over a finite search
domain, and points whose ideal is the whole ring are first-class: they
are roots of everything and the reports mark them as degenerate. Which
points of a domain are characters depends on the presentation and never
on the polynomials, so `vanishing_set` tests each point once per
presentation: the partition of the last domain it was given stays on the
presentation, and each call evaluates its generators, on raw field
values, at the character points only.

Every value at points comes from one walk, `_monomial_values`: each
monomial gets the list of its values z^t at all points at once, one
variable step from the nearest monomial already held. `evaluate` runs it
at one point, `vanishing_set` at a domain's cached character points, and
both ideals of points (`ideal_of_points`, `commutative_points_ideal`)
on the monomials they reduce.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from operator import le, sub
from typing import List, Optional, Sequence, Tuple

from skewpbw import linalg
from skewpbw.groebner import PROPER, TWO_SIDED, UNIT, IdealHandle
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

    def _columns(self, pres: Presentation) -> Tuple[Tuple[Scalar, ...], ...]:
        """One column of field elements per coordinate, whose product is the
        domain; GeometryError past MAX_DOMAIN_POINTS, before any is built."""
        if self.kind == "grid":
            cols = self.per_coordinate
            if len(cols) == 1 and pres.n > 1:
                cols = cols * pres.n
            if len(cols) != pres.n:
                raise GeometryError("grid arity does not match the presentation")
            _check_domain_size(math.prod(len(col) for col in cols))
            return tuple(tuple(pres.field.coerce(v) for v in col) for col in cols)
        if not isinstance(pres.field, PrimeField):
            raise GeometryError("full-prime-field domain needs a GF(p) presentation")
        _check_domain_size(pres.field.p ** pres.n)
        return (tuple(pres.field.elements()),) * pres.n

    def points(self, pres: Presentation) -> List[Point]:
        """Every candidate point; GeometryError past MAX_DOMAIN_POINTS."""
        return [Point(t) for t in itertools.product(*self._columns(pres))]

    def __repr__(self):
        return f"SearchDomain({self.kind})"


def _check_domain_size(count: int) -> None:
    if count > MAX_DOMAIN_POINTS:
        raise GeometryError(
            f"search domain has {count} points, above the limit of {MAX_DOMAIN_POINTS}"
        )


def point_generators(pres: Presentation, Z: Point) -> List[Polynomial]:
    return [
        Polynomial.variable(pres, i) - Polynomial.constant(pres, z)
        for i, z in enumerate(Z.coords)
    ]


def is_character(pres: Presentation, Z: Point) -> bool:
    """Whether x_i -> z_i extends to a ring map A -> K.

    It does exactly when z_i = 0 wherever sigma_i is not the identity, so
    moves the field primitive r (x_i*r = sigma_i(r)*x_i forces
    z_i*(r - sigma_i(r)) = 0), and Z
    satisfies z_j*z_i = c_ij*z_i*z_j + sum_k a_k*z_k + d for every i < j.
    """
    return _character_test(pres)([c.value for c in Z.coords])


def _character_test(pres: Presentation):
    """is_character on raw coordinates, with the relations unwrapped once."""
    field = pres.field
    add, mul, zero = field.raw_add, field.raw_mul, field.raw_zero
    twisted = [i for i, sigma in enumerate(pres.sigma_maps) if sigma is not None]
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


def _monomial_values(field: Field, columns, exps, values=None) -> dict:
    """{t: [raw z^t at each point]} for every t in exps; column i holds the
    points' raw z_i.

    A missing x^t starts from a held o <= t of highest degree (t - e_i if
    held, which exps in ascending degree make usual) and multiplies by
    z_i^d, d = t_i - o_i, squaring and multiplying in a loop: at most
    2 log2(d) products per point, one new list each, and no recursion. A
    values dict this function returned is extended in place, so a walk
    that asks for more monomials reuses all it holds.
    """
    mul = field.raw_mul
    if values is None:
        values = {(0,) * len(columns): [field.raw_one] * len(columns[0])}
    for t in exps:
        if t in values:
            continue
        for i, a in enumerate(t):
            if a and (o := t[:i] + (a - 1,) + t[i + 1 :]) in values:
                values[t] = list(map(mul, values[o], columns[i]))
                break
        else:
            o = max((o for o in values if all(map(le, o, t))), key=sum)
            vals = values[o]
            for col, d in zip(columns, map(sub, t, o)):
                while d:
                    if d & 1:
                        vals = list(map(mul, vals, col))
                    d >>= 1
                    if d:
                        col = list(map(mul, col, col))
            values[t] = vals
    return values


def _sums(field: Field, f: Polynomial, values: dict, count: int) -> list:
    """f's raw value sum c_alpha * z^alpha at each of count points, from
    the values of its monomials."""
    if not f.raw:
        return [field.raw_zero] * count
    add, mul, zero = field.raw_add, field.raw_mul, field.raw_zero
    coeffs = [c for _, c in f.raw]
    rows = zip(*[values[e] for e, _ in f.raw])  # one row of z^alpha per point
    return [functools.reduce(add, map(mul, coeffs, row), zero) for row in rows]


def evaluate(f: Polynomial, Z: Point) -> Scalar:
    """sum c_alpha * z^alpha over the normal-ordered terms of f.

    At a character point this is the ring map epsilon_Z applied to f, and
    f is a root exactly when it is zero.
    """
    field = f.pres.field
    exps = [e for e, _ in reversed(f.raw)]
    values = _monomial_values(field, [(c.value,) for c in Z.coords], exps)
    return Scalar(field, _sums(field, f, values, 1)[0])


def point_ideal(pres: Presentation, Z: Point) -> IdealHandle:
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
    return handle


def is_root(f: Polynomial, Z: Point) -> str:
    """'yes'/'no': membership of f in the point's two-sided ideal."""
    if point_ideal(f.pres, Z).status == UNIT:
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
        return rows


def _domain_partition(pres: Presentation, domain: SearchDomain):
    """(points in domain order, whether each one is degenerate, the
    positions of the character points, their raw coordinate columns) of
    the domain.

    Whether a point is a character depends on the presentation alone, so
    the partition is cached on it, keyed by the domain's raw columns; a
    new domain replaces the cached one.
    """
    cols = domain._columns(pres)
    key = tuple(tuple(c.value for c in col) for col in cols)
    cache = pres._domain_partition
    entry = cache.get(key)
    if entry is None:
        character = _character_test(pres)
        raw = list(itertools.product(*key))
        points = [Point(t) for t in itertools.product(*cols)]
        degenerate = [not character(z) for z in raw]
        positions = [k for k, dg in enumerate(degenerate) if not dg]
        columns = [[raw[k][i] for k in positions] for i in range(pres.n)]
        entry = (points, degenerate, positions, columns)
        cache.clear()
        cache[key] = entry
    return entry


def vanishing_set(
    pres: Presentation,
    polys: Sequence[Polynomial],
    domain: SearchDomain,
) -> VanishingReport:
    """Partition of the domain into roots of every generator and non-roots;
    checking generators suffices for the ideal they generate.

    The generators are evaluated at the character points only; every other
    point is a degenerate root.
    """
    points, degenerate_mask, positions, columns = _domain_partition(pres, domain)
    field, zero = pres.field, pres.field.raw_zero
    exps = [e for f in polys for e, _ in reversed(f.raw)]
    values = _monomial_values(field, columns, exps)
    vanish = [True] * len(positions)
    for f in polys:
        sums = _sums(field, f, values, len(positions))
        vanish = [v and s == zero for v, s in zip(vanish, sums)]
    is_root = list(degenerate_mask)
    for k, v in zip(positions, vanish):
        is_root[k] = v
    roots = list(itertools.compress(points, is_root))
    non_roots = [points[k] for k, v in zip(positions, vanish) if not v]
    degenerate = list(itertools.compress(points, degenerate_mask))
    return VanishingReport(roots, non_roots, degenerate, [])


def ideal_of_points(
    pres: Presentation,
    points: Sequence[Point],
    d: int,
) -> List[Polynomial]:
    """Basis of {f : deg f <= d, f in <Z> for every Z}, by evaluation.

    At a character point f lies in <Z> exactly when sum c_alpha * z^alpha
    is zero; any other point's ideal is the whole ring and adds nothing.
    Each monomial's values at the character points are reduced in one
    `linalg.Echelon`, in `exponents_up_to` order; a relation is an element.
    """
    field = pres.field
    character = _character_test(pres)
    raw = [z for z in ([c.value for c in Z.coords] for Z in points) if character(z)]
    monos = exponents_up_to(pres.n, d)
    values = _monomial_values(field, [[z[i] for z in raw] for i in range(pres.n)], monos)
    echelon = linalg.Echelon(field)
    basis = []
    for t in monos:
        relation = echelon.reduce(t, dict(enumerate(values[t])))
        if relation is not None:
            basis.append(Polynomial.from_raw(pres, relation.items()))
    return basis


def commutative_points_ideal(
    center_pres: Presentation, points: Sequence[Sequence[Scalar]]
) -> List[Polynomial]:
    """Reduced deglex Groebner basis of the ideal of the points, ascending by lead.

    `linalg.walk` with unit weights and no cap, on each monomial's values
    at the distinct points (Abbott, Bigatti, Kreuzer & Robbiano 2000). A
    reduced basis is unique, so a fold of pairwise intersections returns
    it too. One point gives the x_i - z_i, no points give [1].
    """
    field = center_pres.field
    n = center_pres.n
    distinct = dict.fromkeys(tuple(field.coerce(z).value for z in p) for p in points)
    columns = [[z[i] for z in distinct] for i in range(n)]
    values = _monomial_values(field, columns, ())

    def vectors(level):
        _monomial_values(field, columns, level, values)
        return [dict(enumerate(values[t])) for t in level]

    relations = linalg.walk(field, (1,) * n, math.inf, vectors)
    return [Polynomial.from_raw(center_pres, r.items()) for r in relations]


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
