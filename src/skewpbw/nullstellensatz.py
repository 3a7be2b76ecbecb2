"""Centers of quantum affine spaces and the two-inclusion radical sandwich.

The center is decided by one rule on the lattice of central monomials
(center_generators) and accepted only when it is the polynomial ring on
pure powers x_i^(L_i), as the paper's Nullstellensatz assumes. One
Buchberger-Moeller walk (`linalg.walk`) finds both the contraction J of a
two-sided ideal to it (the reduced basis of the relations among the
normal forms of central monomials, up to a degree) and the ideal of the
central points found on a finite search grid
(`geometry.commutative_points_ideal`, on the values of monomials at the
points), with no Groebner computation and no budget. With the classical
radical step (the Rabinowitsch trick inside the engine on a
trivial-relations presentation) and central nilpotency certificates they
verify the first inclusion of

    < I_Z(V_Z(J)) >  subset of  radical(I)  subset of  I(V(I))

generator by generator, over that grid, never confirming it without a
certificate. The second inclusion holds for every two-sided ideal, by the
lemma in `geometry`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import List, Optional, Sequence, Tuple

from skewpbw import linalg
from skewpbw.geometry import (
    SearchDomain,
    VanishingReport,
    commutative_points_ideal,
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
    normal_forms,
)
from skewpbw.normality import central_probe
from skewpbw.poly import DEGLEX, Polynomial, multiply
from skewpbw.presentation import (
    Presentation,
    commutative_presentation,
    extend_with_central,
)
from skewpbw.scalars import PrimeField, Scalar, _prime_factors


class CenterError(ValueError):
    """Center outside the rule's reach, or verification failure."""


def multiplicative_order(s: Scalar) -> Optional[int]:
    """Smallest k >= 1 with s^k = 1; None when s is not a root of unity.

    On GF(p) the order divides p - 1 and comes from its factorization.
    The roots of unity in Q(zeta_m) are the +-zeta_m^j, so every order
    there divides lcm(2, m) (m = 1 for Q, 4 for Q(i)) and the search stops
    at it.
    """
    field = s.field
    if s.is_zero():
        return None
    if isinstance(field, PrimeField):
        k = field.p - 1
        for q in _prime_factors(k):
            while k % q == 0 and pow(s.value, k // q, field.p) == 1:
                k //= q
        return k
    acc = s
    for k in range(1, math.lcm(2, field.m) + 1):
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

    def center_presentation(self) -> Presentation:
        names = _center_names(self.presentation.n)
        return commutative_presentation(self.presentation.field, names)


def _center_names(n: int) -> tuple:
    if n <= 3:
        return ("u", "v", "w")[:n]
    return tuple(f"u{k + 1}" for k in range(n))


# largest N accepted: it bounds the table of the N powers of w, and the
# generators x_i^(L_i), L_i <= N, that central_probe multiplies by each x_j
MAX_CENTER_ORDER = 512


def center_generators(pres: Presentation) -> CenterDescription:
    """Central generators x_i^(L_i), when they generate the center.

    The algebra is Z^n-graded, so central monomials span its center. With
    q_ij = w^(e_ij), w generating the N-th roots of unity the constants
    generate, x^alpha is central iff E*alpha = 0 mod N (De Concini & Procesi
    1993; Brown & Goodearl 2002): L_i = N / gcd(N, row i of E), and the
    center is K[x_i^(L_i)] iff [Z^n : E*Z^n + N*Z^n] * prod L_i = N^n.
    CenterError otherwise, naming the lex-first central x^alpha != 1 with
    alpha in prod [0, L_i); likewise for input that is not quasi-commutative,
    a sigma_i that is not the identity, a constant that is not a root of
    unity, or N above MAX_CENTER_ORDER. `case` is a label only. Each
    generator is checked central by `central_probe`; a failure is an engine
    fault and raises RuntimeError.
    """
    if not pres.quasi_commutative:
        raise CenterError("the center rule needs a quasi-commutative presentation")
    for name, sigma in zip(pres.names, pres.sigma_maps):
        if sigma is not None:
            raise CenterError(
                f"sigma of {name} is not the identity: the center is not a K-algebra"
            )
    n = pres.n
    cs = {pair: rel.c for pair, rel in pres.relations.items()}
    orders = {}
    for pair, c in cs.items():
        orders[pair] = multiplicative_order(c)
        if orders[pair] is None:
            raise CenterError(f"constant {c} for pair {pair} is not a root of unity")
    N = math.lcm(*orders.values())
    if N > MAX_CENTER_ORDER:
        raise CenterError(
            f"the constants generate {N} roots of unity, above the limit "
            f"{MAX_CENTER_ORDER}"
        )
    # w has order N: one factor of order l^e for each l^e exactly dividing N
    w = pres.field.one
    for ell in _prime_factors(N):
        le = math.gcd(N, ell ** N)
        pair = next(p for p, k in orders.items() if k % le == 0)
        w = w * cs[pair] ** (orders[pair] // le)
    log = {w ** k: k for k in range(N)}
    E = [[0] * n for _ in range(n)]
    for (i, j), c in cs.items():
        E[i][j], E[j][i] = log[c], -log[c]
    L = tuple(N // math.gcd(N, *row) for row in E)
    # rows (E*e_i | e_i): the echelon rows with E*alpha = 0 span the central lattice
    rows = [E[i] + [int(k == i) for k in range(n)] for i in range(n)]
    basis = _echelon(rows, (N,) * n + L)
    if math.prod(basis[c][c] for c in range(n)) * math.prod(L) != N ** n:
        c = max(c for c in range(n) if basis[n + c][n + c] < L[c])
        alpha = tuple(a % l for a, l in zip(basis[n + c][n:], L))
        raise CenterError(
            f"{Polynomial.monomial(pres, alpha)} is central: "
            "the center is not K[x_i^(L_i)]"
        )
    case = (
        "commutative" if N == 1 else "quantum-plane" if n == 2
        else "uniform" if len(set(cs.values())) == 1 else "multiparametric"
    )
    gens = tuple(
        Polynomial.monomial(pres, tuple(L[i] if k == i else 0 for k in range(n)))
        for i in range(n)
    )
    for g in gens:
        if not central_probe(g):
            raise RuntimeError(f"generator {g} failed the centrality check")
    return CenterDescription(pres, L, gens, True, case)


def _echelon(rows, moduli) -> list:
    """Hermite basis of the lattice of rows and the m_c * e_c, by Euclid.

    Column c is kept mod m_c. Basis row c is zero before column c and holds
    there the positive gcd of the lattice's entries in that column.
    """
    basis = []
    for c, modulus in enumerate(moduli):
        rows = [[a % m for a, m in zip(r, moduli)] for r in rows]
        pivot = [0] * len(moduli)
        pivot[c] = modulus
        for r in rows:
            while r[c]:
                q = pivot[c] // r[c]
                pivot, r[:] = r[:], [a - q * b for a, b in zip(pivot, r)]
        basis.append(pivot)
    return basis


# ---------------------------------------------------------------------------
# contraction to the center


def lift_center_poly(C: CenterDescription, f_center: Polynomial) -> Polynomial:
    """u_i -> x_i^(L_i); central monomials stay single monomials."""
    pres = C.presentation
    return Polynomial.from_raw(
        pres,
        [
            (tuple(k * l for k, l in zip(exp, C.exponents)), c)
            for exp, c in f_center.raw
        ],
    )


@dataclass
class ContractionResult:
    center_polys: List[Polynomial]  # over the commutative u-presentation
    lifted: List[Polynomial]  # the same elements inside A


def contract_to_center(
    handle: IdealHandle, C: CenterDescription, d: int
) -> ContractionResult:
    """The reduced basis, up to degree d and ascending by lead, of J, the
    contraction of the ideal to Z(A).

    J is the kernel of u^kappa -> the normal form of x^(L*kappa), every one
    divided through one memo. `linalg.walk` with the weights L and the cap
    d finds it: d bounds the A-degree sum L_i * kappa_i of each lead, and
    when J is zero-dimensional a large enough d gives its whole basis.
    A unit ideal gives [1]. Each lifted element is certified a member of
    the ideal and central; a failure is an engine fault: RuntimeError.
    """
    if handle.status == UNKNOWN:
        raise GroebnerError("contraction needs a resolved ideal; raise the budget")
    pres, L = C.presentation, C.exponents
    center_pres = C.center_presentation()
    normal_form = normal_forms(pres, handle.basis, handle.order)
    relations = linalg.walk(pres.field, L, d, lambda level: [
        normal_form(tuple(k * l for k, l in zip(kap, L))) for kap in level
    ])
    center_polys = [Polynomial.from_raw(center_pres, r.items()) for r in relations]
    lifted = [lift_center_poly(C, f) for f in center_polys]
    if not all(is_member_left(f, handle) == "yes" and central_probe(f) for f in lifted):
        raise RuntimeError("contraction output failed certification")
    return ContractionResult(center_polys, lifted)


# ---------------------------------------------------------------------------
# commutative side: radical membership


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
        return Polynomial.from_raw(ext, [((0,) + e, c) for e, c in g.raw], ordered=True)

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
INCONCLUSIVE = "inconclusive"


@dataclass
class GeneratorVerdict:
    center_poly: Polynomial
    lifted: Polynomial
    in_radical_J: Optional[bool]  # None: radical membership unresolved
    nilpotency_m: Optional[int]

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
    inclusion_points: str  # radical(I) subset of I(V(I)): confirmed, by the lemma
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
                    # no root fails and none is unknown (evaluation decides
                    # each); the keys stay while perfbench/cli_expected.json
                    # pins them
                    "failed_roots": [],
                    "unknown_roots": [],
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
    the survivors by nilpotency exponents. The second inclusion holds by
    the lemma in `geometry`: every point ideal is A or completely prime.
    As a self-check, every certified witness must vanish at every character
    root of the ideal itself (a degenerate point is a root of everything);
    RuntimeError if one does not, since that is an engine fault. The budget
    reaches only the radical membership step.
    """
    pres = C.presentation
    budget = budget or DEFAULT_BUDGET
    notes: List[str] = []

    contraction = contract_to_center(handle, C, d)
    j_center = contraction.center_polys
    center_pres = j_center[0].pres if j_center else C.center_presentation()

    v_center = [p.coords for p in vanishing_set(center_pres, j_center, domain).roots]

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
    for v in certified:
        if v.nilpotency_m is None:
            continue
        for Z in character_roots:
            if is_root(v.lifted, Z) == "no":
                raise RuntimeError(
                    f"certified witness {v.lifted} does not vanish at the root {Z}"
                )

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
        CONFIRMED,
        notes,
    )
