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
presentation, with the domain's points and its degenerate points. A grid
is keyed by its raw values, and the whole prime field by itself, so a
warm call over it builds none. A `Point` holds raw field values, as a
`Polynomial` does, so a call over a full prime field builds no Scalar.
Each call evaluates its generators, on raw field values, at the
character points only, and lists its roots by slicing the kept
degenerate points around the characters that vanish.

Every value at points comes from one walk, `_monomial_values`: each
monomial gets the list of its values z^t at all points at once, one
variable step from a monomial already held, or a climb of such steps
that keeps each one, or, for long powers, by squaring. `evaluate` runs
it at one point, `vanishing_set` at a domain's cached character points,
and both ideals of points (`ideal_of_points`, `commutative_points_ideal`)
on the monomials they reduce. At many points the walk and the sums
c_alpha * z^alpha work on whole lists through the field's vector
kernels, `raw_products` and `raw_combination`, whose loop runs over the
shorter side: a sum adds whole columns of monomial values, and over
GF(p) it adds unreduced ints and reduces mod p once per entry, in its
last pass. At one point the walk takes the same steps on raw scalars,
by `raw_mul`, and `evaluate` sums the terms by `raw_add`, so no list of
one value is built. `vanishing_set` keeps the values it walked with the
domain partition, so a warm call pays only for the monomials it has not
met and the characters that vanish, not for the size of the domain. The
kept values go with the partition when the domain changes, and are
dropped once they hold more than MAX_DOMAIN_POINTS values.
"""

from __future__ import annotations

import functools
import itertools
import math
from operator import not_
from typing import List, NamedTuple, Optional, Sequence, Tuple

from skewpbw import linalg
from skewpbw.groebner import PROPER, TWO_SIDED, UNIT, IdealHandle
from skewpbw.poly import DEGLEX, Polynomial, exponents_up_to, multiply
from skewpbw.presentation import Presentation, require_commutative
from skewpbw.scalars import Field, InputError, PrimeField, Scalar, power


# the most points a search domain may enumerate: every point is built up
# front and then checked and evaluated on its own
MAX_DOMAIN_POINTS = 100_000


class _Coordinates(NamedTuple):
    raw: tuple
    field: Field


class Point(_Coordinates):
    """Raw coordinate values and their field; `coords` builds Scalars.
    Built directly, a Point refuses raw values that are not canonical, as
    (5,) over GF(5), with an InputError; `of` coerces ints, Fractions and
    Scalars first. The package builds its enumerated Points with
    `tuple.__new__`, from raw values it reduced itself."""

    __slots__ = ()

    def __new__(cls, raw: tuple, field: Field):
        raw = tuple(raw)
        for v in raw:  # `Field.coerce` refuses a value that `is_raw` rejects
            field.coerce(Scalar(field, v))
        return tuple.__new__(cls, (raw, field))

    @classmethod
    def _make(cls, iterable) -> "Point":  # so `_replace` checks its values too
        return cls(*iterable)

    @staticmethod
    def of(pres: Presentation, values) -> "Point":
        Z = Point(tuple(pres.field.coerce(v).value for v in values), pres.field)
        _check_point(pres, Z)
        return Z

    @property
    def coords(self) -> Tuple[Scalar, ...]:
        return tuple(Scalar(self.field, v) for v in self.raw)

    def __repr__(self):
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


def _check_point(pres: Presentation, Z: Point) -> None:
    """InputError unless Z has one coordinate per variable of pres, over
    its field."""
    if len(Z.raw) != pres.n:
        raise InputError(f"point has {len(Z.raw)} coordinates, presentation has {pres.n}")
    if Z.field is not pres.field:
        raise InputError(f"point {Z} has a coordinate outside {pres.field.spec}")


def _points(field: Field, raw) -> List[Point]:
    """The Points over field of an iterable of raw coordinate tuples."""
    # tuple.__new__ at C level, not the named tuple's Python __new__
    point = functools.partial(tuple.__new__, Point)
    return list(map(point, zip(raw, itertools.repeat(field))))


class SearchDomain(NamedTuple):
    """Finite candidate set over which vanishing sets are enumerated: the
    columns of a grid, or None for the whole prime field."""

    columns: Optional[tuple]

    @staticmethod
    def grid(columns: Sequence[Sequence[Scalar]]) -> "SearchDomain":
        """Columns of field elements or ints; a `range` column is kept as
        it is, so `_raw_columns` counts it before building a value of it."""
        return SearchDomain(tuple(c if isinstance(c, range) else tuple(c) for c in columns))

    @staticmethod
    def full_prime_field() -> "SearchDomain":
        return SearchDomain(None)

    def _raw_columns(self, pres: Presentation) -> Tuple[tuple, ...]:
        """One column of raw field values per coordinate, whose product is
        the domain; InputError for an empty column or past MAX_DOMAIN_POINTS,
        before any point is built."""
        field, cols = pres.field, self.columns
        if cols is None:
            if not isinstance(field, PrimeField):
                raise InputError("full-prime-field domain needs a GF(p) presentation")
            cols = (range(field.p),) * pres.n
        elif len(cols) == 1 and pres.n > 1:
            cols = cols * pres.n
        if len(cols) != pres.n:
            raise InputError("grid arity does not match the presentation")
        for i, col in enumerate(cols):
            if not col:
                raise InputError(f"grid has no values for coordinate {i + 1}")
        count = math.prod(map(len, cols))
        if count > MAX_DOMAIN_POINTS:
            raise InputError(
                f"search domain has {count} points, above the limit of {MAX_DOMAIN_POINTS}"
            )
        if self.columns is None:  # range(p) holds the raw values already
            return cols
        return tuple(tuple(field.coerce(v).value for v in col) for col in cols)


def point_generators(pres: Presentation, Z: Point) -> List[Polynomial]:
    """The x_i - z_i, their raw terms written down in deglex order."""
    one, neg, o = pres.field.raw_one, pres.field.raw_neg, (0,) * pres.n
    return [
        Polynomial.from_raw(
            pres, ((o[:i] + (1,) + o[i + 1 :], one), (o, neg(z))), ordered=True
        )
        for i, z in enumerate(Z.raw)
    ]


def is_character(pres: Presentation, Z: Point) -> bool:
    """Whether x_i -> z_i extends to a ring map A -> K.

    It does exactly when z_i = 0 wherever sigma_i is not the identity, so
    moves the field primitive r (x_i*r = sigma_i(r)*x_i forces
    z_i*(r - sigma_i(r)) = 0), and Z
    satisfies z_j*z_i = c_ij*z_i*z_j + sum_k a_k*z_k + d for every i < j.
    """
    _check_point(pres, Z)
    return _character_test(pres)(Z.raw)


def _character_test(pres: Presentation):
    """is_character on raw coordinates, built on each call in O(written + n)
    time: a pair that no document writes commutes, so it places no
    condition on the point."""
    field = pres.field
    add, mul, zero = field.raw_add, field.raw_mul, field.raw_zero
    twisted = [i for i, sigma in enumerate(pres.sigma_maps) if sigma is not None]
    # with no lower terms, z_i*z_j = c*z_i*z_j holds always when c = 1 and
    # otherwise exactly when z_i = 0 or z_j = 0; other relations keep the
    # whole equation
    axes = []
    relations = []
    for (i, j), rel in pres.written.items():
        if not rel.is_trivial_lower():
            relations.append((
                i, j, rel.c.value, rel.const.value,
                [(k, a.value) for k, a in rel.linear],
            ))
        elif rel.c.value != field.raw_one:
            axes.append((i, j))

    def test(z) -> bool:
        for i in twisted:
            if z[i] != zero:
                return False
        for i, j in axes:
            if z[i] != zero and z[j] != zero:
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


def _power_products(d: int) -> int:
    """The vector products `scalars.power` takes for acc * base^d: one per
    set bit of d and one square per bit above the lowest."""
    return d and d.bit_count() + d.bit_length() - 1


def _monomial_values(field: Field, columns, count: Optional[int], exps, values=None) -> dict:
    """{t: [raw z^t at each point]} for every t in exps; column i holds the
    count points' raw z_i. With count None the input is one point: column
    i is its raw z_i itself, and each value z^t is a raw scalar.

    This is the one value walk, and its product kernel comes from its
    input: `Field.raw_products` on columns, `Field.raw_mul` on one point's
    scalars, which builds no one-entry lists. Either way the rules are the
    same, and "product" below means one call of that kernel.

    A missing x^t is one product from t - e_i when some t - e_i is held,
    which exps in ascending degree make usual.
    Otherwise it takes the route of fewer products, with no constant to
    tune:
    - powers: x^0 times each z_i^t_i by `scalars.power`, P = the sum of
      the `_power_products`(t_i), at most 2 log2(t_i) each, and no
      recursion. It keeps only x^t;
    - a climb: it steps down from t by the last variable each monomial
      holds, probing every m - e_i on the way, until one is held; then it
      multiplies back up, one product per step, and keeps each monomial
      it passes. It meets x^0 after deg t steps, and any held monomial,
      kept ones included, sooner.
    The walk climbs unless P < deg t, the climb's most steps, which holds
    exactly when some t_i is 4 or more. So a long power, as x^3000, takes
    at most P products, and a monomial below a 4th power in each variable
    is climbed, its divisors kept.
    A values dict is extended in place, starting from x^0 when it is
    empty, so a walk that asks for more monomials reuses all it holds;
    `vanishing_set` keeps one with each domain partition. So it holds the
    monomials asked for and divisors of them. No step reads the whole
    dict, so what a kept dict holds does not make a walk longer.
    """
    product = field.raw_mul if count is None else field.raw_products
    start = (0,) * len(columns)
    if values is None:
        values = {}
    if not values:
        values[start] = field.raw_one if count is None else [field.raw_one] * count
    for t in exps:
        if t in values:
            continue
        for i, a in enumerate(t):
            if a and (o := t[:i] + (a - 1,) + t[i + 1 :]) in values:
                values[t] = product(values[o], columns[i])
                break
        else:
            if sum(map(_power_products, t)) < sum(t):
                vals = values[start]
                for col, d in zip(columns, t):
                    vals = power(col, d, product, vals)
                values[t] = vals
                continue
            # the climb: steps (m, i) down from t by the last variable m
            # holds, none of them held, until some m - e_i is
            m, climb = t, []
            while True:
                i = len(m) - 1
                while not m[i]:
                    i -= 1
                climb.append((m, i))
                m = m[:i] + (m[i] - 1,) + m[i + 1 :]
                for i, a in enumerate(m):
                    if a and (o := m[:i] + (a - 1,) + m[i + 1 :]) in values:
                        break
                else:
                    continue
                climb.append((m, i))
                break
            vals = values[o]
            for m, i in reversed(climb):
                vals = values[m] = product(vals, columns[i])
    return values


def _sums(field: Field, f: Polynomial, values: dict, count: int) -> list:
    """f's raw value sum c_alpha * z^alpha at each of count points, from
    the values of its monomials, by `Field.raw_combination`."""
    if not f.raw:
        return [field.raw_zero] * count
    return field.raw_combination([c for _, c in f.raw], [values[e] for e, _ in f.raw])


def evaluate(f: Polynomial, Z: Point) -> Scalar:
    """sum c_alpha * z^alpha over the normal-ordered terms of f.

    At a character point this is the ring map epsilon_Z applied to f, and
    f is a root exactly when it is zero.
    """
    _check_point(f.pres, Z)
    field = f.pres.field
    add, mul = field.raw_add, field.raw_mul
    values = _monomial_values(field, Z.raw, None, [e for e, _ in reversed(f.raw)])
    acc = field.raw_zero
    for e, c in f.raw:
        acc = add(acc, mul(c, values[e]))
    return Scalar(field, acc)


def point_ideal(pres: Presentation, Z: Point) -> IdealHandle:
    """Two-sided ideal of x_i - z_i with its reduced basis, built on each call.

    The reduced basis is unique, so it is written down, not saturated: at
    a character point it is the generators sorted by lead (the last
    variable is the smallest), elsewhere the ideal is the whole ring.
    Nothing is stored: the handle points at pres, so storing it on pres
    would make a reference cycle; `pres._point_ideals`, which only the
    benchmark's tracer reads, stays empty.
    """
    proper = is_character(pres, Z)
    gens = tuple(point_generators(pres, Z))
    if proper:
        status, basis, note = PROPER, gens[::-1], ""
    else:
        status, basis, note = UNIT, (Polynomial.one(pres),), "derived a nonzero constant"
    return IdealHandle(pres, gens, TWO_SIDED, status, DEGLEX, basis, None, note)


def is_root(f: Polynomial, Z: Point) -> str:
    """'yes'/'no': membership of f in the point's two-sided ideal."""
    # through the module global: the benchmark's tracer counts these calls
    if point_ideal(f.pres, Z).status == UNIT:
        return "yes"
    return "yes" if evaluate(f, Z).is_zero() else "no"


ROOT = "root"
NON_ROOT = "non-root"
DEGENERATE = "degenerate"


class VanishingReport(NamedTuple):
    roots: List[Point]
    non_roots: List[Point]
    degenerate: List[Point]
    unknown: List[Point]  # always empty: evaluation decides every point

    def table(self) -> List[tuple]:
        degen = set(self.degenerate)
        rows = [(p, DEGENERATE if p in degen else ROOT) for p in self.roots]
        rows.extend((p, NON_ROOT) for p in self.non_roots)
        return rows


def _domain_partition(pres: Presentation, domain: SearchDomain):
    """(points in domain order, the positions of the character points,
    their raw coordinate columns, the degenerate points in domain order,
    the monomial values kept at the characters) of the domain.

    Whether a point is a character depends on the presentation alone, so
    the partition is cached on it, keyed by `SearchDomain.columns` for the
    whole prime field, None, and otherwise by the grid's raw columns,
    `SearchDomain._raw_columns`: two grids that list the same points share
    a partition. A hit builds no Point and runs no character test, and a
    whole-field hit builds no columns either; over a full prime field no
    call builds a Scalar. A new domain replaces the cached one, its kept
    values with it. The values are a `_monomial_values` dict of raw
    values, which `vanishing_set` extends and bounds.
    """
    cache = pres._domain_partition
    key = None if domain.columns is None else domain._raw_columns(pres)
    entry = cache.get(key)
    if entry is None:
        raw = list(itertools.product(*(domain._raw_columns(pres) if key is None else key)))
        points = _points(pres.field, raw)
        flags = list(map(_character_test(pres), raw))
        positions = list(itertools.compress(range(len(raw)), flags))
        columns = [[raw[k][i] for k in positions] for i in range(pres.n)]
        degenerate = list(itertools.compress(points, map(not_, flags)))
        entry = (points, positions, columns, degenerate, {})
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
    point is a degenerate root. Their monomials' values are kept with the
    domain partition, so a warm call walks only monomials it has not met;
    past MAX_DOMAIN_POINTS kept values they are dropped. The report's
    lists are new on every call. The roots merge the vanishing characters
    into slices of the kept degenerate points, in domain order, in time
    O(N + V) for N points and V vanishing characters.
    """
    for f in polys:
        if f.pres is not pres:
            raise InputError(f"polynomial {f} is from another presentation than {pres}")
    points, positions, columns, degenerate, values = _domain_partition(pres, domain)
    field, zero, count = pres.field, pres.field.raw_zero, len(positions)
    exps = [e for f in polys for e, _ in reversed(f.raw)]
    _monomial_values(field, columns, count, exps, values)
    # the first generator's sums give the flags; with none, all vanish
    sums = (_sums(field, f, values, count) for f in polys)
    vanish = [s == zero for s in next(sums, [zero] * count)]
    for f_sums in sums:
        vanish = [v and s == zero for v, s in zip(vanish, f_sums)]
    # a monomial counts once even with no character points, so its key is
    # bounded too
    if len(values) * max(len(positions), 1) > MAX_DOMAIN_POINTS:
        values.clear()
    # the character at position k, j-th of them, follows k - j degenerate
    # points in domain order: each vanishing one goes after their slice
    roots, done = [], 0
    for j in itertools.compress(range(len(positions)), vanish):
        k = positions[j]
        roots += degenerate[done : k - j]
        roots.append(points[k])
        done = k - j
    roots += degenerate[done:]
    non_roots = [points[k] for k, v in zip(positions, vanish) if not v]
    return VanishingReport(roots, non_roots, list(degenerate), [])


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
    for Z in points:
        _check_point(pres, Z)
    field = pres.field
    raw = list(filter(_character_test(pres), (Z.raw for Z in points)))
    monos = exponents_up_to(pres.n, d)
    columns = [[z[i] for z in raw] for i in range(pres.n)]
    values = _monomial_values(field, columns, len(raw), monos)
    echelon = linalg.Echelon(field)
    basis = []
    for t in monos:
        relation = echelon.reduce(t, dict(enumerate(values[t])))
        if relation is not None:
            basis.append(Polynomial.from_raw(pres, relation.items()))
    return basis


def commutative_points_ideal(
    center_pres: Presentation, points: Sequence[Point]
) -> List[Polynomial]:
    """Reduced deglex Groebner basis of the ideal of the points, ascending by lead.

    When the distinct points fill the box S_1 x ... x S_n of their
    coordinate sets, the basis is the prod_{c in S_i} (x_i - c), by
    `_box_ideal`, with no walk. Each vanishes on the box. Their leads
    x_i^|S_i| are pairwise coprime, so they are a reduced Groebner basis
    of the ideal they generate, whose quotient has |S_1| * ... * |S_n|
    standard monomials: as many as the points, so that ideal is the whole
    ideal of the points. One point is such a box and gives the x_i - z_i;
    so is the one point of K^0, which gives [].
    Any other set goes through `linalg.walk` with unit weights and no cap,
    on each monomial's values at the distinct points (Abbott, Bigatti,
    Kreuzer & Robbiano 2000); no points give [1]. A reduced basis is
    unique, so a fold of pairwise intersections returns it too. InputError
    for a point that `_check_point` refuses, or a presentation that is not
    commutative.
    """
    require_commutative(center_pres)
    for Z in points:
        _check_point(center_pres, Z)
    field, n = center_pres.field, center_pres.n
    distinct = dict.fromkeys(Z.raw for Z in points)
    sets = [dict.fromkeys(z[i] for z in distinct) for i in range(n)]
    if distinct and len(distinct) == math.prod(map(len, sets)):
        return _box_ideal(center_pres, sets)
    columns = [[z[i] for z in distinct] for i in range(n)]
    values = _monomial_values(field, columns, len(distinct), ())

    def vectors(level):
        _monomial_values(field, columns, len(distinct), level, values)
        return [dict(enumerate(values[t])) for t in level]

    relations = linalg.walk(field, (1,) * n, math.inf, vectors)
    return [Polynomial.from_raw(center_pres, r.items()) for r in relations]


def _box_ideal(pres: Presentation, sets) -> List[Polynomial]:
    """The prod_{c in S_i} (x_i - c), one per coordinate set S_i, ascending
    by lead x_i^|S_i|: by degree, then by exponent tuple."""
    field, n = pres.field, pres.n
    add, mul, neg, zero = field.raw_add, field.raw_mul, field.raw_neg, field.raw_zero
    out = []
    for i, values in enumerate(sets):
        coeffs = [field.raw_one]  # of x_i^0, x_i^1, ... in the product so far
        for c in values:
            c = neg(c)
            coeffs = [zero] + coeffs
            for k in range(len(coeffs) - 1):
                coeffs[k] = add(coeffs[k], mul(c, coeffs[k + 1]))
        exps = [(0,) * i + (k,) + (0,) * (n - i - 1) for k in range(len(coeffs))]
        out.append(Polynomial.from_raw(pres, zip(exps, coeffs)))
    out.sort(key=lambda g: (sum(g.raw[0][0]), g.raw[0][0]))
    return out


class WitnessResult(NamedTuple):
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
    not zero. The empty set gets s, the sum at the origin. Over K^0, A is
    K and s is zero: the empty set gets 1, and the one point is an
    InputError, since no nonzero constant vanishes there.
    """
    for Z in points:
        _check_point(pres, Z)
    if not pres.n:
        if points:
            raise InputError("no nonzero polynomial vanishes at the point of K^0")
        return WitnessResult(Polynomial.one(pres), "empty point set")
    s = Polynomial.zero(pres)
    for i in range(pres.n):
        s = s + Polynomial.variable(pres, i)
    if not points:
        return WitnessResult(s, "empty point set; witness at the origin")
    field = pres.field
    g = Polynomial.one(pres)
    for c in dict.fromkeys(functools.reduce(field.raw_add, Z.raw, field.raw_zero) for Z in points):
        g = multiply(g, s - Polynomial.constant(pres, Scalar(field, c)))
    for Z in points:
        if is_root(g, Z) == "no":
            raise RuntimeError(f"witness fails root check at {Z}")
    return WitnessResult(g)
