"""Centers of quantum affine spaces and the two-inclusion radical sandwich.

For quasi-commutative presentations whose commutation constants are roots
of unity, the center is the polynomial ring on x_i^(L_i) in the cases
shipped here (quantum plane, uniform q with n even, fully multiparametric
via the lcm exponent formula, and the commutative ring itself). Contraction
of a two-sided ideal to the center, the ideal of the central points found
on a finite search grid, the classical radical step (decided by the
Rabinowitsch trick inside the engine on a trivial-relations presentation)
and central nilpotency certificates then verify

    < I_Z(V_Z(J)) >  subset of  radical(I)  subset of  I(V(I))

generator by generator, over that grid, never confirming an inclusion
without a certificate. A center that is only assumed to be the polynomial
ring on the x_i^(L_i) is refused. The ideal of points is linear algebra on
the values of monomials at the points (Buchberger-Moeller): it needs no
Groebner basis and no budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import List, Optional, Sequence, Tuple

from skewpbw import linalg
from skewpbw.geometry import (
    Point,
    SearchDomain,
    VanishingReport,
    evaluate,
    is_root,
    vanishing_set,
)
from skewpbw.groebner import (
    Budget,
    DEFAULT_BUDGET,
    GroebnerError,
    IdealHandle,
    UNIT,
    UNKNOWN,
    is_member_left,
    left_groebner,
    normal_form_rows,
)
from skewpbw.normality import central_probe
from skewpbw.poly import DEGLEX, Polynomial, divides, multiply
from skewpbw.presentation import (
    Presentation,
    commutative_presentation,
    extend_with_central,
)
from skewpbw.scalars import (
    CyclotomicField,
    GaussianRationalField,
    PrimeField,
    Scalar,
    _prime_factors,
)


class CenterError(ValueError):
    """Center outside the supported catalogue, or verification failure."""


def multiplicative_order(s: Scalar, cap: Optional[int] = None) -> Optional[int]:
    """Smallest k >= 1 with s^k = 1; None when there is none up to the cap.

    On GF(p) the order divides p - 1 and comes from its factorization;
    elsewhere it is searched up to a field-derived cap.
    """
    field = s.field
    if s.is_zero():
        return None
    if isinstance(field, PrimeField):
        k = field.p - 1
        for q in _prime_factors(k):
            while k % q == 0 and pow(s.value, k // q, field.p) == 1:
                k //= q
        return k if cap is None or k <= cap else None
    if cap is None:
        if isinstance(field, CyclotomicField):
            cap = 2 * field.m
        elif isinstance(field, GaussianRationalField):
            cap = 4
        else:
            cap = 2
    acc = s
    for k in range(1, cap + 1):
        if acc == field.one:
            return k
        acc = acc * s
    return None


@dataclass
class CenterDescription:
    presentation: Presentation
    exponents: Tuple[int, ...]  # L_i per variable
    generators: Tuple[Polynomial, ...]  # x_i^(L_i)
    verified: bool
    case: str
    polynomial_center_assumed: bool = False

    def center_presentation(self) -> Presentation:
        names = _center_names(self.presentation.n)
        return commutative_presentation(self.presentation.field, names)


def _center_names(n: int) -> tuple:
    if n <= 3:
        return ("u", "v", "w")[:n]
    return tuple(f"u{k + 1}" for k in range(n))


def center_generators(pres: Presentation) -> CenterDescription:
    """Central generators x_i^(L_i) for the supported quantum-space cases.

    Refuses (raises CenterError) outside the catalogue: non-quasi-commutative
    input, constants that are not roots of unity, uniform q with odd n, or
    mixed trivial/nontrivial constants. Generators are always re-verified to
    commute with every variable before being returned.
    """
    if not pres.quasi_commutative:
        raise CenterError("center catalogue needs a quasi-commutative presentation")
    n = pres.n
    cs = {pair: rel.c for pair, rel in pres.relations.items()}
    one = pres.field.one
    if all(c == one for c in cs.values()):
        L = (1,) * n
        case = "commutative"
        assumed = False
    else:
        orders = {}
        for pair, c in cs.items():
            k = multiplicative_order(c)
            if k is None:
                raise CenterError(
                    f"constant {c} for pair {pair} is not a root of unity"
                )
            orders[pair] = k
        uniform = len({str(c) for c in cs.values()}) == 1
        if n == 2:
            L = (orders[(0, 1)],) * 2
            case = "quantum-plane"
            assumed = False
        elif uniform:
            if n % 2 == 1:
                raise CenterError(
                    "uniform quantum space with odd variable count: "
                    "the center is not a polynomial ring on pure powers"
                )
            m = next(iter(orders.values()))
            L = (m,) * n
            case = "uniform"
            assumed = False
        else:
            if any(c == one for c in cs.values()):
                raise CenterError(
                    "mixed trivial/nontrivial constants are outside the catalogue"
                )
            L = tuple(
                _lcm_all(
                    orders[(min(i, j), max(i, j))]
                    for j in range(n)
                    if j != i
                )
                for i in range(n)
            )
            case = "multiparametric"
            assumed = True
    gens = tuple(
        Polynomial.monomial(pres, tuple(L[i] if k == i else 0 for k in range(n)))
        for i in range(n)
    )
    for g in gens:
        if not central_probe(g):
            raise CenterError(f"generator {g} failed the centrality check")
    return CenterDescription(pres, L, gens, True, case, assumed)


def _lcm_all(values) -> int:
    out = 1
    for v in values:
        out = out * v // math.gcd(out, v)
    return out


# ---------------------------------------------------------------------------
# contraction to the center


def _central_exponents(L: Tuple[int, ...], d: int) -> List[tuple]:
    """Center-coordinate exponents kappa with sum L_i * kappa_i <= d."""
    n = len(L)

    def rec(i, remaining):
        if i == n:
            yield ()
            return
        for k in range(remaining // L[i] + 1):
            for rest in rec(i + 1, remaining - k * L[i]):
                yield (k,) + rest

    out = list(rec(0, d))
    out.sort(key=lambda kap: (sum(k * l for k, l in zip(kap, L)), kap))
    return out


def lift_center_poly(C: CenterDescription, f_center: Polynomial) -> Polynomial:
    """u_i -> x_i^(L_i); central monomials stay single monomials."""
    pres = C.presentation
    return Polynomial.from_dict(
        pres,
        {
            tuple(k * l for k, l in zip(exp, C.exponents)): c
            for exp, c in f_center.terms
        },
    )


@dataclass
class ContractionResult:
    center_polys: List[Polynomial]  # over the commutative u-presentation
    lifted: List[Polynomial]  # the same elements inside A
    certified_member: List[bool]
    certified_central: List[bool]


def contract_to_center(
    handle: IdealHandle, C: CenterDescription, d: int
) -> ContractionResult:
    """Basis of J up to degree d, J the contraction of the ideal to Z(A).

    Computed as the kernel of coefficient vectors -> normal forms on the
    span of central monomials of degree <= d, then rewritten in the center
    variables u_i = x_i^(L_i).
    """
    if handle.status == UNKNOWN:
        raise GroebnerError("contraction needs a resolved ideal; raise the budget")
    pres = C.presentation
    center_pres = C.center_presentation()
    kappas = _central_exponents(C.exponents, d)
    if handle.status == UNIT:
        center_polys = [
            Polynomial.monomial(center_pres, kap) for kap in kappas
        ]
    else:
        a_exps = [tuple(k * l for k, l in zip(kap, C.exponents)) for kap in kappas]
        rows = normal_form_rows(pres, a_exps, handle.basis, handle.order)
        kernel = linalg.nullspace(rows, pres.field, len(kappas))
        center_polys = [
            Polynomial.from_dict(
                center_pres,
                {kappas[k]: c for k, c in enumerate(vec) if not c.is_zero()},
            )
            for vec in kernel
        ]
    lifted = [lift_center_poly(C, f) for f in center_polys]
    member = [is_member_left(f, handle) == "yes" for f in lifted]
    central = [central_probe(f) for f in lifted]
    if not all(member) or not all(central):
        raise GroebnerError("contraction output failed certification")
    return ContractionResult(center_polys, lifted, member, central)


# ---------------------------------------------------------------------------
# commutative side: points ideal, radical membership


def commutative_points_ideal(
    center_pres: Presentation, points: Sequence[Sequence[Scalar]]
) -> List[Polynomial]:
    """Reduced deglex Groebner basis of the ideal of the points, ascending by lead.

    Buchberger-Moeller (Moeller & Buchberger 1982; Abbott, Bigatti, Kreuzer
    & Robbiano 2000), on raw field values: walk the monomials in ascending
    deglex, skipping multiples of the leads found so far, and reduce each
    one's vector of values at the points against an echelon of the earlier
    standard monomials' vectors, carrying the combination. A vector that
    reduces to zero gives the basis element t - sum c_j * o_j with lead t;
    any other extends the echelon and t becomes standard. The walk stops
    after a degree with no candidate left. Every tail monomial is standard,
    so the basis is reduced; a reduced basis is unique, so this is the
    basis a fold of pairwise intersections returns, whose block order
    restricts to deglex on the t-free part.

    One point gives x_i - z_i in variable order, no points give [1].
    """
    field = center_pres.field
    if not points:
        return [Polynomial.one(center_pres)]
    if len(points) == 1:
        return [
            Polynomial.variable(center_pres, i)
            - Polynomial.constant(center_pres, field.coerce(z))
            for i, z in enumerate(points[0])
        ]
    add, mul, neg, zero, one = (
        field.raw_add, field.raw_mul, field.raw_neg, field.raw_zero, field.raw_one
    )
    # distinct points as raw coordinate columns, one per variable
    distinct = list(
        dict.fromkeys(tuple(field.coerce(z).value for z in p) for p in points)
    )
    columns = list(zip(*distinct))
    n = center_pres.n
    origin = (0,) * n
    values = {origin: [one] * len(distinct)}  # standard monomial -> its values
    # (pivot, row with 1 at the pivot, combination {exponent: raw})
    echelon = [(0, values[origin], {origin: one})]
    leads: List[tuple] = []
    basis: List[Polynomial] = []
    standard = [origin]
    while standard:
        candidates = sorted({
            o[:i] + (o[i] + 1,) + o[i + 1 :] for o in standard for i in range(n)
        })
        standard = []
        for t in candidates:
            if any(divides(lead, t) for lead in leads):
                continue
            # t = x_i * o with o a standard monomial of the degree below
            i = next(k for k, a in enumerate(t) if a)
            o = t[:i] + (t[i] - 1,) + t[i + 1 :]
            vals = [mul(v, z) for v, z in zip(values[o], columns[i])]
            row, comb = vals, {t: one}
            for pivot, erow, ecomb in echelon:
                a = row[pivot]
                if a != zero:
                    a = neg(a)
                    row = [add(v, mul(a, w)) for v, w in zip(row, erow)]
                    for e, c in ecomb.items():
                        comb[e] = add(comb.get(e, zero), mul(a, c))
            pivot = next((k for k, v in enumerate(row) if v != zero), None)
            if pivot is None:
                leads.append(t)
                basis.append(Polynomial.from_raw(center_pres, comb))
            else:
                s = field.raw_inv(row[pivot])
                row = [mul(s, v) for v in row]
                echelon.append((pivot, row, {e: mul(s, c) for e, c in comb.items()}))
                values[t] = vals
                standard.append(t)
    return basis


_RABINOWITSCH_BUDGET = Budget(max_degree=24, max_pairs=200_000)


def radical_membership_commutative(
    f: Polynomial, J_gens: Sequence[Polynomial], budget: Optional[Budget] = None
) -> bool:
    """f in radical(J) in a commutative presentation, by the extra-variable
    trick: true iff 1 lies in J + <1 - t*f>."""
    center_pres = f.pres
    if not center_pres.quasi_commutative or any(
        not rel.is_trivial_lower() or rel.c != center_pres.field.one
        for rel in center_pres.relations.values()
    ):
        raise GroebnerError("radical membership runs on trivial relations only")
    budget = budget or _RABINOWITSCH_BUDGET
    ext = extend_with_central(center_pres)

    def lift(g: Polynomial) -> Polynomial:
        return Polynomial(ext, tuple(((0,) + e, c) for e, c in g.terms))

    t = Polynomial.variable(ext, 0)
    gens = [lift(g) for g in J_gens if not g.is_zero()]
    gens.append(Polynomial.one(ext) - multiply(t, lift(f)))
    handle = left_groebner(gens, DEGLEX, budget)
    if handle.status == UNKNOWN:
        raise GroebnerError("radical membership unresolved in budget")
    return handle.status == UNIT


def central_nilpotency(
    w: Polynomial, handle: IdealHandle, M: int
) -> Optional[int]:
    """Smallest m <= M with w^m in the ideal; w must be central.

    A returned exponent certifies w in radical(I): for central elements,
    I-nilpotent and I-strongly-nilpotent coincide.
    """
    if not central_probe(w):
        raise CenterError("nilpotency certificates need a central element")
    if w.is_zero():
        return 1
    power = w
    for m in range(1, M + 1):
        if is_member_left(power, handle) == "yes":
            return m
        if m < M:
            power = multiply(power, w)
    return None


# ---------------------------------------------------------------------------
# the sandwich pipeline


CONFIRMED = "confirmed"
REFUTED = "refuted"
INCONCLUSIVE = "inconclusive"


@dataclass
class GeneratorVerdict:
    center_poly: Polynomial
    lifted: Polynomial
    in_radical_J: Optional[bool]  # None: radical membership unresolved
    nilpotency_m: Optional[int]
    failed_roots: List[Point] = dc_field(default_factory=list)
    unknown_roots: List[Point] = dc_field(default_factory=list)  # always empty

    @property
    def grid_artifact(self) -> bool:
        return self.in_radical_J is False


@dataclass
class SandwichReport:
    ideal_generators: List[Polynomial]
    center: CenterDescription
    truncation_degree: int
    max_power: int
    j_center: List[Polynomial]
    v_center: List[tuple]
    generator_verdicts: List[GeneratorVerdict]
    variety_report: VanishingReport
    inclusion_radical: str  # <I_Z(V_Z(J))> subset of radical(I)
    inclusion_points: str  # radical(I) subset of I(V(I))
    notes: List[str] = dc_field(default_factory=list)

    def to_doc(self) -> dict:
        return {
            "ideal_generators": [str(g) for g in self.ideal_generators],
            "center": {
                "exponents": list(self.center.exponents),
                "generators": [str(g) for g in self.center.generators],
                "case": self.center.case,
                "verified": self.center.verified,
            },
            "truncation_degree": self.truncation_degree,
            "max_power": self.max_power,
            "J_center": [str(g) for g in self.j_center],
            "V_center": [[str(c) for c in p] for p in self.v_center],
            "generators": [
                {
                    "center": str(v.center_poly),
                    "lifted": str(v.lifted),
                    "in_radical_J": v.in_radical_J,
                    "nilpotency_exponent": v.nilpotency_m,
                    "failed_roots": [str(p) for p in v.failed_roots],
                    "unknown_roots": [str(p) for p in v.unknown_roots],
                    "grid_artifact": v.grid_artifact,
                }
                for v in self.generator_verdicts
            ],
            "variety_points": [
                [str(p), tag] for p, tag in self.variety_report.table()
            ],
            "inclusion_radical": self.inclusion_radical,
            "inclusion_points": self.inclusion_points,
            "notes": self.notes,
        }


def verify_sandwich(
    handle: IdealHandle,
    C: CenterDescription,
    domain: SearchDomain,
    d: int,
    M: int,
    budget: Optional[Budget] = None,
) -> SandwichReport:
    """Certify both radical-sandwich inclusions for a two-sided ideal.

    Pipeline: contract to the center; find the grid trace of the central
    variety; build its points ideal; cross-check every generator with exact
    radical membership (grid artifacts are reported and excluded); certify
    the survivors by nilpotency exponents; finally check the certified
    witnesses vanish on every character root of the ideal itself (a
    degenerate point is a root of everything); with no witness to check
    and some radical verdict unresolved, that inclusion is inconclusive.
    The budget reaches only the radical membership step. Raises CenterError
    for a center that is only assumed to be the polynomial ring on the
    x_i^(L_i).
    """
    if not C.verified:
        raise CenterError("center description must be verified")
    if C.polynomial_center_assumed:
        raise CenterError(
            f"the {C.case} center is assumed, not shown, to be generated by "
            "x_i^(L_i); the sandwich needs a polynomial center"
        )
    pres = C.presentation
    budget = budget or DEFAULT_BUDGET
    notes: List[str] = []

    contraction = contract_to_center(handle, C, d)
    j_center = contraction.center_polys
    center_pres = (
        j_center[0].pres if j_center else C.center_presentation()
    )

    v_center = []
    for p in domain.points(center_pres):
        if all(evaluate(g, p).is_zero() for g in j_center):
            v_center.append(p.coords)

    verdicts: List[GeneratorVerdict] = []
    radical_unresolved = False
    for g in commutative_points_ideal(center_pres, v_center):
        lifted = lift_center_poly(C, g)
        try:
            in_rad = radical_membership_commutative(g, j_center, budget)
        except GroebnerError:
            radical_unresolved = True
            verdicts.append(GeneratorVerdict(g, lifted, None, None))
            continue
        m = central_nilpotency(lifted, handle, M) if in_rad else None
        verdicts.append(GeneratorVerdict(g, lifted, in_rad, m))

    certified = [v for v in verdicts if v.in_radical_J]
    artifacts = [v for v in verdicts if v.grid_artifact]
    if artifacts:
        notes.append(
            f"{len(artifacts)} generator(s) vanish on the grid trace but lie "
            "outside radical(J); reported as grid artifacts"
        )
    if radical_unresolved:
        inclusion_radical = INCONCLUSIVE
        notes.append("radical membership unresolved for some generator")
    elif not certified:
        inclusion_radical = CONFIRMED
        notes.append("no radical-certified generators; first inclusion vacuous")
    elif all(v.nilpotency_m is not None for v in certified):
        inclusion_radical = CONFIRMED
    else:
        inclusion_radical = INCONCLUSIVE
        notes.append(
            "some certified generator has no nilpotency exponent within the cap"
        )

    variety = vanishing_set(pres, list(handle.generators), domain)
    degenerate = {Z.coords for Z in variety.degenerate}
    character_roots = [Z for Z in variety.roots if Z.coords not in degenerate]
    checked = [v for v in certified if v.nilpotency_m is not None]
    for v in checked:
        v.failed_roots = [Z for Z in character_roots if is_root(v.lifted, Z) == "no"]
    if any(v.failed_roots for v in checked):
        inclusion_points = REFUTED
    elif radical_unresolved and not checked:
        # with no witness checked, a confirmation would rest on nothing
        inclusion_points = INCONCLUSIVE
        notes.append("no certified witness to check the second inclusion on")
    else:
        inclusion_points = CONFIRMED
    if inclusion_radical == INCONCLUSIVE and inclusion_points == CONFIRMED:
        # an unconfirmed radical witness never weakens the point inclusion,
        # but surface the asymmetry
        notes.append("second inclusion checked on certified witnesses only")

    return SandwichReport(
        list(handle.generators),
        C,
        d,
        M,
        j_center,
        v_center,
        verdicts,
        variety,
        inclusion_radical,
        inclusion_points,
        notes,
    )
