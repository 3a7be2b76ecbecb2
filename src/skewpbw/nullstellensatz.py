"""Centers of quantum affine spaces and the two-inclusion radical sandwich.

The center is decided by one rule on the lattice of central monomials
(center_generators) and accepted only when it is the polynomial ring on
pure powers x_i^(L_i), as the paper's Nullstellensatz assumes. That ring
K[u] depends only on the field and n, so one is kept per pair for the
process, and every sandwich finds its caches warm. One
Buchberger-Moeller walk (`linalg.walk`) finds both the contraction J of a
two-sided ideal to it (the reduced basis of the relations among the
normal forms of central monomials, up to a degree) and the ideal of the
central points found on a finite search grid
(`geometry.commutative_points_ideal`, on the values of monomials at the
points), with no Groebner computation and no budget. Two inputs have a
closed form instead, exact for the reasons the two functions give: a
basis of monomials, whose contraction is the monomial ideal of the
u^ceil(beta/L), and points that fill the box of their coordinate sets,
whose ideal is the product of (u_i - c) over each set. With the classical
radical step (the Rabinowitsch trick inside the engine on a
trivial-relations presentation) and central nilpotency certificates they
verify the first inclusion of

    < I_Z(V_Z(J)) >  subset of  radical(I)  subset of  I(V(I))

generator by generator, over that grid, never confirming it without a
certificate. The second inclusion holds for every two-sided ideal, by the
lemma in `geometry`. The module returns results; `cli` renders them as
documents.
"""

from __future__ import annotations

import math
from operator import mul
from typing import List, NamedTuple, Optional, Sequence, Tuple

from skewpbw import linalg
from skewpbw.geometry import (
    Point,
    SearchDomain,
    VanishingReport,
    commutative_points_ideal,
    is_root,
    vanishing_set,
)
from skewpbw.groebner import (
    Budget,
    IdealHandle,
    UNIT,
    UNKNOWN,
    _check_presentation,
    left_groebner,
    normal_forms,
)
from skewpbw.normality import central_probe
from skewpbw.poly import DEGLEX, Polynomial, divides, multiply
from skewpbw.presentation import (
    Presentation, central_multiple, extend_with_central, require_commutative,
)
from skewpbw.scalars import InputError, PrimeField, Scalar, _prime_factors


def multiplicative_order(s: Scalar) -> Optional[int]:
    """Smallest k >= 1 with s^k = 1; None when s is not a root of unity.

    Every root of unity in the field has an order dividing K: K = p - 1 on
    GF(p), and on Q(zeta_m), whose roots of unity are the +-zeta_m^j,
    K = lcm(2, m) (m = 1 for Q, 4 for Q(i)). So s is one exactly when
    s^K = 1, and its order is K with each prime q divided out while
    s^(K/q) = 1.
    """
    field = s.field
    k = field.p - 1 if isinstance(field, PrimeField) else math.lcm(2, field.m)
    if s.is_zero() or s ** k != field.one:
        return None
    for q in _prime_factors(k):
        while k % q == 0 and s ** (k // q) == field.one:
            k //= q
    return k


class CenterDescription(NamedTuple):
    presentation: Presentation
    exponents: Tuple[int, ...]  # L_i per variable
    generators: Tuple[Polynomial, ...]  # x_i^(L_i)
    center_ring: Presentation  # K[u], u_i for x_i^(L_i); one per field and n
    case: str


def _center_names(n: int) -> tuple:
    if n <= 3:
        return ("u", "v", "w")[:n]
    return tuple(f"u{k + 1}" for k in range(n))


# K[u] per (field, n), kept like `scalars._FIELD_CACHE`: shared caches
_CENTER_RINGS: dict = {}

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
    InputError otherwise, naming the lex-first central x^alpha != 1 with
    alpha in prod [0, L_i); likewise for input that is not quasi-commutative,
    a sigma_i that is not the identity, a constant that is not a root of
    unity, or N above MAX_CENTER_ORDER. `case` is a label only. Each
    generator is checked central by `central_probe`; a failure is an engine
    fault and raises RuntimeError. The center ring is built once per field
    and n and then read from `_CENTER_RINGS`, with its domain partition,
    insertion cache and `_extension`.
    """
    if not pres.quasi_commutative:
        raise InputError("the center rule needs a quasi-commutative presentation")
    for name, sigma in zip(pres.names, pres.sigma_maps):
        if sigma is not None:
            raise InputError(
                f"sigma of {name} is not the identity: the center is not a K-algebra"
            )
    n = pres.n
    cs = {pair: rel.c for pair, rel in pres.relations.items()}
    orders = {}
    for pair, c in cs.items():
        orders[pair] = multiplicative_order(c)
        if orders[pair] is None:
            raise InputError(f"constant {c} for pair {pair} is not a root of unity")
    N = math.lcm(*orders.values())
    if N > MAX_CENTER_ORDER:
        raise InputError(
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
        raise InputError(
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
    key = (pres.field, n)
    if key not in _CENTER_RINGS:
        _CENTER_RINGS[key] = Presentation(pres.field, _center_names(n))
    return CenterDescription(pres, L, gens, _CENTER_RINGS[key], case)


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


def contract_to_center(handle: IdealHandle, C: CenterDescription, d: int) -> List[Polynomial]:
    """The reduced basis in K[u], up to degree d and ascending by lead, of
    J, the contraction of the ideal to Z(A).

    J is the kernel of u^kappa -> the normal form of x^(L*kappa). `linalg.walk`
    with the weights L and the cap d finds it: d bounds the A-degree sum
    L_i * kappa_i of each lead, and when J is zero-dimensional a large
    enough d gives its whole basis. A unit ideal gives [1].

    When the presentation is quasi-commutative and every basis element is
    one term x^beta, no walk runs. Each monomial is then normal, so the
    ideal is spanned by the monomials some x^beta divides: the normal form
    of x^(L*kappa) is 0 when L*kappa >= beta for some beta, and otherwise
    x^(L*kappa) itself, and distinct monomials are independent. So J is
    the monomial ideal of the u^ceil(beta/L), and its reduced basis is the
    minimal ones of weighted degree <= d, in the walk's order
    (`_monomial_contraction`).

    Either way each lifted element is certified central and a member of
    the ideal, by a zero normal form on one memo; a failure is an engine
    fault: RuntimeError.
    """
    if handle.status == UNKNOWN:
        raise InputError("contraction needs a resolved ideal; raise the budget")
    pres, L = C.presentation, C.exponents
    _check_presentation(pres, handle)
    normal_form, one = normal_forms(handle), pres.field.raw_one
    if pres.quasi_commutative and all(len(g.raw) == 1 for g in handle.basis):
        leads = _monomial_contraction([g.raw[0][0] for g in handle.basis], L, d)
        relations = [{t: one} for t in leads]
    else:
        relations = linalg.walk(pres.field, L, d, lambda level: [
            normal_form({tuple(k * l for k, l in zip(kap, L)): one}) for kap in level
        ])
    J = [Polynomial.from_raw(C.center_ring, r.items()) for r in relations]
    lifted = [lift_center_poly(C, f) for f in J]
    if any(normal_form(f.raw) or not central_probe(f) for f in lifted):
        raise RuntimeError("contraction output failed certification")
    return J


def _monomial_contraction(betas, L, d) -> list:
    """The minimal exponents among the ceil(beta / L), of weighted degree
    sum L_i * kappa_i <= d, ascending by weighted degree, then exponent
    tuple: the order in which `linalg.walk` finds the leads."""
    ceilings = {tuple(-(-b // l) for b, l in zip(beta, L)) for beta in betas}
    minimal = []
    # a proper divisor has the smaller weighted degree, so it comes first
    for w, kappa in sorted((sum(map(mul, kappa, L)), kappa) for kappa in ceilings):
        if w <= d and not any(divides(m, kappa) for m in minimal):
            minimal.append(kappa)
    return minimal


# ---------------------------------------------------------------------------
# commutative side: radical membership


def radical_membership_commutative(
    f: Polynomial, J_gens: Sequence[Polynomial], budget: Optional[Budget] = None
) -> Optional[bool]:
    """f in radical(J) in a commutative presentation, by the extra-variable
    trick: true iff 1 lies in J + <1 - t*f>; None when the Groebner basis
    of J + <1 - t*f> runs out of budget, by default `groebner.DEFAULT_BUDGET`.
    InputError on a presentation that is not commutative."""
    require_commutative(f.pres)
    ext = extend_with_central(f.pres)
    gens = [central_multiple(ext, g, 0) for g in J_gens if not g.is_zero()]
    gens.append(Polynomial.one(ext) - central_multiple(ext, f, 1))
    handle = left_groebner(gens, DEGLEX, budget)
    return None if handle.status == UNKNOWN else handle.status == UNIT


def central_nilpotency(
    w: Polynomial, handle: IdealHandle, M: int
) -> Optional[int]:
    """Smallest m <= M with w^m in the ideal; w must be central.

    A returned exponent certifies w in radical(I): for central elements,
    I-nilpotent and I-strongly-nilpotent coincide.
    """
    _check_presentation(w.pres, handle)
    if not central_probe(w):
        raise InputError("nilpotency certificates need a central element")
    if w.is_zero():
        return 1
    normal_form = normal_forms(handle)
    power = w
    for m in range(1, M + 1):
        if not normal_form(power.raw):  # w^m lies in the ideal
            return m
        if m < M:
            power = multiply(power, w)
    return None


# ---------------------------------------------------------------------------
# the sandwich pipeline


CONFIRMED = "confirmed"
INCONCLUSIVE = "inconclusive"


class GeneratorVerdict(NamedTuple):
    center_poly: Polynomial
    lifted: Polynomial
    in_radical_J: Optional[bool]  # None: radical membership unresolved
    nilpotency_m: Optional[int]

    @property
    def grid_artifact(self) -> bool:
        return self.in_radical_J is False


class SandwichReport(NamedTuple):
    j_center: List[Polynomial]
    v_center: List[Point]
    generator_verdicts: List[GeneratorVerdict]
    variety_report: VanishingReport
    inclusion_radical: str  # <I_Z(V_Z(J))> subset of radical(I)
    inclusion_points: str  # radical(I) subset of I(V(I)): confirmed, by the lemma
    notes: List[str]


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
    reaches only the radical membership step. The first inclusion is
    inconclusive when a radical membership runs out of budget, when no
    generator is certified, or when a certified one has no exponent <= M.
    """
    pres = C.presentation
    notes: List[str] = []

    j_center = contract_to_center(handle, C, d)
    center_pres = C.center_ring

    v_center = vanishing_set(center_pres, j_center, domain).roots

    verdicts: List[GeneratorVerdict] = []
    for g in commutative_points_ideal(center_pres, v_center):
        lifted = lift_center_poly(C, g)
        in_rad = radical_membership_commutative(g, j_center, budget)
        m = central_nilpotency(lifted, handle, M) if in_rad else None
        verdicts.append(GeneratorVerdict(g, lifted, in_rad, m))

    certified = [v for v in verdicts if v.in_radical_J]
    artifacts = [v for v in verdicts if v.grid_artifact]
    if artifacts:
        notes.append(
            f"{len(artifacts)} generator(s) vanish on the grid trace but lie "
            "outside radical(J); reported as grid artifacts"
        )
    if any(v.in_radical_J is None for v in verdicts):
        inclusion_radical = INCONCLUSIVE
        notes.append("radical membership unresolved for some generator")
    elif not certified:
        inclusion_radical = INCONCLUSIVE
        notes.append("no generator is certified in radical(J): first inclusion unchecked")
    elif all(v.nilpotency_m is not None for v in certified):
        inclusion_radical = CONFIRMED
    else:
        inclusion_radical = INCONCLUSIVE
        notes.append(
            "some certified generator has no nilpotency exponent within the cap"
        )

    variety = vanishing_set(pres, list(handle.generators), domain)
    degenerate = set(variety.degenerate)
    character_roots = [Z for Z in variety.roots if Z not in degenerate]
    for v in certified:
        if v.nilpotency_m is None:
            continue
        for Z in character_roots:
            if is_root(v.lifted, Z) == "no":
                raise RuntimeError(
                    f"certified witness {v.lifted} does not vanish at the root {Z}"
                )

    return SandwichReport(
        j_center, v_center, verdicts, variety, inclusion_radical, CONFIRMED, notes
    )
