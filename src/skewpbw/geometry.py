"""Roots, vanishing sets, ideals of points and hypersurface bookkeeping.

A point Z is a root of f when f lies in the two-sided ideal generated by
x_1 - z_1, ..., x_n - z_n; "evaluation" never happens through the division
remainder (which is not even unique). Vanishing sets over infinite fields
are enumerated over a finite search domain, and points whose ideal is the
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
from skewpbw.groebner import (
    Budget,
    DEFAULT_BUDGET,
    IdealHandle,
    PROPER,
    UNIT,
    UNKNOWN,
    is_member_left,
    intersect_left,
    left_groebner,
    normal_form_rows,
    two_sided_saturate,
)
from skewpbw.poly import DEGLEX, Polynomial, exponents_up_to, multiply
from skewpbw.presentation import Presentation
from skewpbw.scalars import Field, PrimeField, Scalar


class GeometryError(ValueError):
    pass


# the most points a search domain may enumerate: every point is built up
# front and then costs a point ideal (a two-sided saturation) of its own
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


def point_ideal(
    pres: Presentation,
    Z: Point,
    budget: Optional[Budget] = None,
    track: bool = False,
) -> PointIdealCache:
    """Saturated two-sided ideal of x_i - z_i; cached per presentation."""
    budget = budget or DEFAULT_BUDGET
    key = Z.coords
    cached = pres._point_ideals.get(key)
    if cached is not None:
        handle, cached_budget = cached
        bigger = (
            budget.max_degree > cached_budget.max_degree
            or budget.max_pairs > cached_budget.max_pairs
            or budget.max_rounds > cached_budget.max_rounds
        )
        needs_track = track and handle.certificates is None
        if not ((handle.status == UNKNOWN and bigger) or needs_track):
            return PointIdealCache(Z, handle)
    handle = two_sided_saturate(point_generators(pres, Z), DEGLEX, budget, track)
    pres._point_ideals[key] = (handle, budget)
    return PointIdealCache(Z, handle)


def is_root(
    f: Polynomial, Z: Point, budget: Optional[Budget] = None
) -> str:
    """'yes'/'no'/'unknown': membership of f in the point's two-sided ideal."""
    cache = point_ideal(f.pres, Z, budget)
    return is_member_left(f, cache.handle)


ROOT = "root"
NON_ROOT = "non-root"
DEGENERATE = "degenerate"


@dataclass
class VanishingReport:
    roots: List[Point]
    non_roots: List[Point]
    degenerate: List[Point]
    unknown: List[Point]

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
    budget: Optional[Budget] = None,
) -> VanishingReport:
    """Partition of the domain into roots of every generator, non-roots
    and unknowns; checking generators suffices for the ideal they generate."""
    roots: List[Point] = []
    non_roots: List[Point] = []
    degenerate: List[Point] = []
    unknown: List[Point] = []
    for Z in domain.points(pres):
        handle = point_ideal(pres, Z, budget).handle
        if handle.status == UNIT:
            degenerate.append(Z)
            roots.append(Z)
            continue
        if handle.status == UNKNOWN:
            unknown.append(Z)
            continue
        verdicts = [is_member_left(f, handle) for f in polys]
        if all(v == "yes" for v in verdicts):
            roots.append(Z)
        elif any(v == "unknown" for v in verdicts):
            unknown.append(Z)
        else:
            non_roots.append(Z)
    return VanishingReport(roots, non_roots, degenerate, unknown)


def ideal_of_points(
    pres: Presentation,
    points: Sequence[Point],
    d: int,
    budget: Optional[Budget] = None,
) -> List[Polynomial]:
    """Basis of {f : deg f <= d, f in <Z> for every Z}, by normal forms.

    The normal form against a fixed saturated basis is linear in f, so the
    space is the nullspace of coefficients -> stacked normal forms.
    """
    monos = exponents_up_to(pres.n, d)
    rows: List[List[Scalar]] = []
    for Z in points:
        handle = point_ideal(pres, Z, budget).handle
        if handle.status == UNKNOWN:
            raise GeometryError(
                f"point ideal at {Z} unresolved; raise the budget"
            )
        if handle.status == UNIT:
            continue  # normal form is identically zero
        rows.extend(normal_form_rows(pres, monos, handle.basis, DEGLEX))
    return [
        Polynomial.from_dict(
            pres, {monos[k]: c for k, c in enumerate(vec) if not c.is_zero()}
        )
        for vec in linalg.nullspace(rows, pres.field, len(monos))
    ]


@dataclass
class WitnessResult:
    witness: Optional[Polynomial]
    note: str = ""


def algebraic_witness(
    pres: Presentation,
    points: Sequence[Point],
    budget: Optional[Budget] = None,
) -> WitnessResult:
    """A nonzero g with every given point a root, via left-ideal intersection.

    Uses the hyperplane sums f_i = (x_1 - z_i1) + ... + (x_n - z_in) and a
    fold of pairwise intersections; any nonzero element of the fold is a
    left multiple of each f_i, hence vanishes on all the points. The empty
    set gets the same construction at the origin.
    """
    budget = budget or DEFAULT_BUDGET
    if not points:
        g = Polynomial.from_dict(
            pres,
            {e: pres.field.one for e in (tuple(
                1 if k == i else 0 for k in range(pres.n)
            ) for i in range(pres.n))},
        )
        return WitnessResult(g, "empty point set; witness at the origin")
    sums = []
    for Z in points:
        f = Polynomial.zero(pres)
        for i, z in enumerate(Z.coords):
            f = f + Polynomial.variable(pres, i) - Polynomial.constant(pres, z)
        sums.append(f)
    current = [sums[0]]
    for f in sums[1:]:
        left = left_groebner(current, DEGLEX, budget)
        right = left_groebner([f], DEGLEX, budget)
        if left.status != PROPER or right.status != PROPER:
            return WitnessResult(None, "intersection stage unresolved in budget")
        res = intersect_left(left, right, budget)
        if not res.elements:
            return WitnessResult(
                None,
                "no intersection element found"
                + ("" if res.complete else " (budget exhausted)"),
            )
        current = res.elements
    g = min(current, key=lambda p: DEGLEX.key(p.leading(DEGLEX)[0]))
    for Z in points:
        verdict = is_root(g, Z, budget)
        if verdict == "unknown":
            return WitnessResult(g, f"root check at {Z} unresolved")
        if verdict == "no":
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
    monos = exponents_up_to(pres.n, max_degree)
    out: dict = {}
    for _ in range(rng.randint(1, max_terms)):
        e = monos[rng.randrange(len(monos))]
        c = random_scalar(pres.field, rng)
        if not c.is_zero():
            out[e] = out.get(e, pres.field.zero) + c
    return Polynomial.from_dict(pres, out)


@dataclass
class SemiprimeReport:
    point: Point
    proper: Optional[bool]
    samples: int
    consistent: int
    unknown: int
    counterexamples: List[Polynomial] = dc_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.counterexamples


def semiprime_probe(
    pres: Presentation,
    Z: Point,
    samples: int = 100,
    max_degree: int = 3,
    budget: Optional[Budget] = None,
    seed: int = 0,
) -> SemiprimeReport:
    """Probe f^2 in <Z> iff f in <Z> on random f; reports any counterexample."""
    if not pres.quasi_commutative:
        raise GeometryError("the semiprimeness probe needs a quasi-commutative presentation")
    handle = point_ideal(pres, Z, budget).handle
    if handle.status == UNKNOWN:
        return SemiprimeReport(Z, None, 0, 0, samples)
    proper = handle.status == PROPER
    rng = random.Random(seed)
    consistent = 0
    unknown = 0
    counterexamples: List[Polynomial] = []
    for _ in range(samples):
        f = random_polynomial(pres, rng, max_degree)
        mf = is_member_left(f, handle)
        mf2 = is_member_left(multiply(f, f), handle)
        if "unknown" in (mf, mf2):
            unknown += 1
        elif mf == mf2:
            consistent += 1
        else:
            counterexamples.append(f)
    return SemiprimeReport(Z, proper, samples, consistent, unknown, counterexamples)


# ---------------------------------------------------------------------------
# hypersurface tags


@dataclass
class HypersurfaceTags:
    tags: frozenset
    note: str = ""


def classify_hypersurface(f: Polynomial) -> HypersurfaceTags:
    """Tags per the vanishing-set taxonomy: hypersurface needs f outside
    the coefficient field; plane curve and line need n = 2; hyperplane and
    line need degree 1."""
    if f.is_constant():
        return HypersurfaceTags(frozenset(), "constant polynomial defines no hypersurface")
    tags = {"hypersurface"}
    n = f.pres.n
    if n == 2:
        tags.add("plane-curve")
    if f.degree() == 1:
        tags.add("hyperplane")
        if n == 2:
            tags.add("line")
    return HypersurfaceTags(frozenset(tags))
