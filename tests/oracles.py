"""Independent brute-force oracles used to check the engine.

These deliberately avoid the code paths they validate: commutative
multiplication is a plain convolution on exponent dicts, membership is
linear algebra over spans of shifted products, radical membership is a
power search, Groebner bases come from plain Buchberger completion
(every pair formed, restart-style inter-reduction) on the public API,
the Gebauer-Moller pair update from its quadratic definition,
ideals of points and witnesses from folds of elimination Groebner bases,
truncated ideals of points from the evaluation matrix, evaluation at a
point from a `Scalar` power per coordinate,
the point-ideal lemma from a saturation per point, seeded random polynomials,
linear algebra from Gaussian elimination on Scalars, centers
from a scan of monomials by `central_probe`, characteristic-0 coefficients from Fraction arithmetic, and the text
layer from a scalar evaluator, a formal commutative collection and a
term-by-term printer on Scalars.
"""

from __future__ import annotations

import heapq
import itertools
import random
from fractions import Fraction
from typing import List, Optional, Sequence

from skewpbw.geometry import Point, evaluate, is_character, point_generators
from skewpbw.groebner import (
    Budget,
    divide,
    intersect_left,
    is_member_left,
    left_groebner,
    two_sided_saturate,
)
from skewpbw.normality import NormalityVerdict, central_probe
from skewpbw.poly import DEGLEX, MonomialOrder, Polynomial, exponents_up_to, multiply
from skewpbw.parsing import parse_ast
from skewpbw.presentation import (
    Presentation,
    Relation,
    extend_with_central,
)
from skewpbw.scalars import (
    Field,
    InputError,
    PrimeField,
    Scalar,
    cyclotomic_polynomial,
)


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


def naive_commutative_multiply(f: Polynomial, g: Polynomial) -> Polynomial:
    """Convolution product; valid only on trivial-relations presentations."""
    pres = f.pres
    out: dict = {}
    for ea, ca in f.terms:
        for eb, cb in g.terms:
            e = tuple(x + y for x, y in zip(ea, eb))
            c = out.get(e, pres.field.zero) + ca * cb
            if c.is_zero():
                out.pop(e, None)
            else:
                out[e] = c
    return Polynomial.from_dict(pres, out)


def quantum_space(field: Field, q_pairs: dict, names) -> Presentation:
    """x_j*x_i = q_ij*x_i*x_j for each pair i < j (missing pairs commute)."""
    rels = {ij: Relation(q, (), field.zero) for ij, q in q_pairs.items()}
    return Presentation(field, names, relations=rels)


def normal_from_parts(pres: Presentation, c: Scalar, alpha: tuple, h: Polynomial):
    """(c * x^alpha * h, its verdict) with h central: normal by structure
    over a quasi-commutative presentation."""
    c = pres.field.coerce(c)
    if c.is_zero():
        raise InputError("leading scalar must be nonzero")
    if not pres.quasi_commutative:
        raise InputError("structural normality needs a quasi-commutative presentation")
    if h.pres is not pres:
        raise InputError("central part from a different presentation")
    if not central_probe(h):
        raise InputError("h is not central")
    f = multiply(Polynomial.monomial(pres, alpha, c), h)
    certificate = {"kind": "structure", "c": c, "alpha": tuple(alpha), "h": h}
    return f, NormalityVerdict("normal", certificate=certificate)


def naive_word_multiply(f: Polynomial, g: Polynomial) -> Polynomial:
    """Product by rewriting words of variable indices on Scalars.

    Independent of the engine's raw-value kernels and insertion cache: the
    leftmost adjacent inversion x_j x_i (j > i) of a word u x_j x_i v
    becomes u (c x_i x_j + sum_k a_k x_k + d) v, the relation's constants
    passing the prefix u by its sigmas, until every word is sorted. A sigma
    z |-> z^k maps c = sum_j (n_j/den) z^j to sum_j (n_j/den) z^(jk), with
    the powers of z taken on Scalars.
    """
    pres = f.pres
    field = pres.field
    z = field.primitive()

    def word(exp):
        return tuple(k for k, a in enumerate(exp) for _ in range(a))

    def sigma(k, c):
        if k == 1:
            return c
        *nums, den = c.value
        out = field.zero
        for j, n in enumerate(nums):
            out = out + field.from_fraction(Fraction(n, den)) * z ** (j * k)
        return out

    def past(prefix, c):  # prefix * c = sigma^prefix(c) * prefix
        for k in reversed(prefix):
            c = sigma(pres.sigma[k], c)
        return c

    todo: dict = {}

    def put(w, c):
        c = todo.get(w, pres.field.zero) + c
        if c.is_zero():
            todo.pop(w, None)
        else:
            todo[w] = c

    for ea, ca in f.terms:
        for eb, cb in g.terms:
            put(word(ea) + word(eb), ca * past(word(ea), cb))
    out: dict = {}
    while todo:
        w, c = todo.popitem()
        t = next((t for t in range(len(w) - 1) if w[t] > w[t + 1]), None)
        if t is None:
            e = tuple(w.count(k) for k in range(pres.n))
            out[e] = out.get(e, pres.field.zero) + c
            continue
        u, j, i, v = w[:t], w[t], w[t + 1], w[t + 2 :]
        rel = pres.relations[(i, j)]
        put(u + (i, j) + v, c * past(u, rel.c))
        for k, a in rel.linear:
            put(u + (k,) + v, c * past(u, a))
        if not rel.const.is_zero():
            put(u + v, c * past(u, rel.const))
    return Polynomial.from_dict(pres, out)


def check_products(pres: Presentation, rng: random.Random, degree: int, terms: int) -> None:
    """On 25 seeded triples, `multiply` agrees with `naive_word_multiply`
    and is associative."""
    for _ in range(25):
        f, g, h = (random_polynomial(pres, rng, degree, terms) for _ in range(3))
        assert multiply(f, g) == naive_word_multiply(f, g), (f, g)
        assert multiply(multiply(f, g), h) == multiply(f, multiply(g, h))


def _vector(f: Polynomial, monos: list, index: dict):
    field = f.pres.field
    v = [field.zero] * len(monos)
    for e, c in f.terms:
        v[index[e]] = c
    return v


def rref(rows: List[List[Scalar]], field: Field):
    """Reduced row echelon form on Scalars, and the pivot columns.

    The engine's `linalg` eliminates on raw values; the span checks use
    this copy so that they share no kernel with it.
    """
    m = [list(r) for r in rows]
    pivots = []
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        pivot = next((k for k in range(r, len(m)) if not m[k][c].is_zero()), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][c].inv()
        m[r] = [inv * v for v in m[r]]
        for k in range(len(m)):
            if k != r and not m[k][c].is_zero():
                f = m[k][c]
                m[k] = [a - f * b for a, b in zip(m[k], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def rank(rows: List[List[Scalar]], field: Field) -> int:
    if not rows:
        return 0
    return len(rref(rows, field)[1])


def in_row_span(rows: List[List[Scalar]], vec: List[Scalar], field: Field) -> bool:
    """Whether vec lies in the row span of rows."""
    if all(v.is_zero() for v in vec):
        return True
    if not rows:
        return False
    base = rank(rows, field)
    return rank(rows + [vec], field) == base


def span_intersection(a: List[List[Scalar]], b: List[List[Scalar]], field: Field):
    """Basis of span(a) ∩ span(b), rows as vectors."""
    if not a or not b:
        return []
    ncols = len(a[0])
    # solve [A^T | -B^T] (x; y) = 0; intersection vectors are A^T x
    rows = []
    for c in range(ncols):
        rows.append([a[r][c] for r in range(len(a))] + [-b[r][c] for r in range(len(b))])
    red, pivots = rref(rows, field)
    out = []
    for free in range(len(a) + len(b)):
        if free in pivots:
            continue
        # the kernel vector with 1 at this free column, -red[r][free] at pivot r
        x = [field.zero] * (len(a) + len(b))
        x[free] = field.one
        for r, pc in enumerate(pivots):
            x[pc] = -red[r][free]
        vec = [field.zero] * ncols
        for r in range(len(a)):
            for c in range(ncols):
                vec[c] = vec[c] + x[r] * a[r][c]
        if any(not v.is_zero() for v in vec):
            out.append(vec)
    # deduplicate the spanning set to an independent basis
    red, pivots = rref(out, field) if out else ([], [])
    return [row for row in red[: len(pivots)]]


def expand_certificate(cert, gens: Sequence[Polynomial], times=multiply) -> Polynomial:
    """sum p * gens[i] * q over the certificate's triples, the products
    taken by `times`: the engine's `multiply`, or `naive_word_multiply`
    for an expansion that shares no kernel with the engine."""
    out = Polynomial.zero(gens[0].pres)
    for p, i, q in cert:
        out = out + times(times(p, gens[i]), q)
    return out


def first_central_in_box(pres: Presentation, L) -> Optional[tuple]:
    """The lex-first exponent alpha != 0 in prod [0, L_i) with x^alpha
    central by `central_probe`, or None when there is none."""
    for alpha in itertools.product(*(range(l) for l in L)):
        if any(alpha) and central_probe(Polynomial.monomial(pres, alpha)):
            return alpha
    return None


def block_contraction(handle, C) -> list:
    """J, the contraction of the two-sided ideal of `handle` to the center,
    by block-order elimination: adjoin n central u_i, add u_i - x_i^(L_i)
    to the two-sided basis, and keep the u-only elements of a left GB with
    the x's as the front block, read in `C.center_ring`. Each u_i - x_i^(L_i)
    is central, so the left ideal is two-sided and its u-only part is J.
    Ascending by lead, as the u-part of the order is deglex."""
    pres, n = C.presentation, C.presentation.n
    ext = pres
    for _ in range(n):  # each new central variable goes in front
        ext = extend_with_central(ext)
    zero = (0,) * n
    gens = [Polynomial.from_raw(ext, [(zero + e, c) for e, c in g.raw]) for g in handle.basis]
    field = pres.field
    for i, L in enumerate(C.exponents):
        u = tuple(int(k == i) for k in range(n))
        x = tuple(L * t for t in u)
        gens.append(Polynomial.from_raw(
            ext, [(u + zero, field.raw_one), (zero + x, field.raw_neg(field.raw_one))]
        ))
    G = left_groebner(gens, MonomialOrder.block(range(n, 2 * n), 2 * n))
    return [
        Polynomial.from_raw(C.center_ring, [(e[:n], c) for e, c in g.raw])
        for g in G.basis
        if not any(any(e[n:]) for e, _ in g.raw)
    ]


def span_rows(polys, pres: Presentation, degree: int):
    monos = exponents_up_to(pres.n, degree)
    index = {e: k for k, e in enumerate(monos)}
    rows = []
    for p in polys:
        if not p.is_zero() and p.degree() <= degree:
            rows.append(_vector(p, monos, index))
    return rows, monos, index


def two_sided_span_membership(
    f: Polynomial, gens, degree: int
) -> bool:
    """Is f in the span of m1 * g * m2 with all written degrees <= degree?

    One-sided: a True answer certifies two-sided ideal membership; a False
    answer only says the truncated span misses f.
    """
    pres = f.pres
    products = []
    for g in gens:
        gd = g.degree()
        if gd < 0:
            continue
        for da in range(degree - gd + 1):
            for ea in exponents_up_to(pres.n, degree - gd):
                if sum(ea) != da:
                    continue
                left = multiply(Polynomial.monomial(pres, ea), g)
                for eb in exponents_up_to(pres.n, degree - gd - da):
                    products.append(
                        multiply(left, Polynomial.monomial(pres, eb))
                    )
    rows, monos, index = span_rows(products, pres, degree)
    if f.degree() > degree:
        return False
    return in_row_span(rows, _vector(f, monos, index), pres.field)


def left_span_membership(f: Polynomial, gens, degree: int) -> bool:
    """Left-ideal analogue of the truncated span oracle."""
    pres = f.pres
    products = []
    for g in gens:
        gd = g.degree()
        if gd < 0:
            continue
        for ea in exponents_up_to(pres.n, degree - gd):
            products.append(multiply(Polynomial.monomial(pres, ea), g))
    rows, monos, index = span_rows(products, pres, degree)
    if f.degree() > degree:
        return False
    return in_row_span(rows, _vector(f, monos, index), pres.field)


def naive_points_ideal(pres: Presentation, points) -> list:
    """Ideal of points as a fold of elimination GBs: for each further point,
    a left GB of the ideal so far, one of the point's maximal ideal and
    their `intersect_left`. [1] for no points; one point gives the
    x_i - z_i ascending by lead, the last variable first."""
    field = pres.field
    if not points:
        return [Polynomial.one(pres)]

    def maximal_ideal(coords):
        return [
            Polynomial.variable(pres, i) - Polynomial.constant(pres, field.coerce(z))
            for i, z in enumerate(coords)
        ][::-1]

    current = maximal_ideal(points[0])
    for coords in points[1:]:
        res = intersect_left(
            left_groebner(current, DEGLEX), left_groebner(maximal_ideal(coords), DEGLEX)
        )
        assert res.complete, "points-ideal intersection ran out of budget"
        current = res.elements
    return current


def domain_points(domain, pres: Presentation) -> List[Point]:
    """Every candidate point of a search domain, in domain order; its raw
    columns refuse an empty grid column or a domain past
    `geometry.MAX_DOMAIN_POINTS`."""
    return [Point(raw, pres.field) for raw in itertools.product(*domain._raw_columns(pres))]


def _satisfies_relations(pres: Presentation, Z: Point) -> bool:
    """The character test on Scalars, from its definition: z_i = 0 where
    sigma_i is not the identity, and z_j*z_i = c*z_i*z_j + sum a_k*z_k + d
    for every relation x_j*x_i = c*x_i*x_j + sum a_k*x_k + d."""
    z = Z.coords
    if any(k != 1 and not z[i].is_zero() for i, k in enumerate(pres.sigma)):
        return False
    for (i, j), rel in pres.relations.items():
        rhs = rel.c * z[i] * z[j] + rel.const
        for k, a in rel.linear:
            rhs = rhs + a * z[k]
        if rhs != z[j] * z[i]:
            return False
    return True


def naive_evaluate(f: Polynomial, Z: Point) -> Scalar:
    """sum c_alpha * prod z_i ** alpha_i over the terms of f, on Scalars:
    each power by `Scalar.__pow__`, no value shared between terms."""
    out = f.pres.field.zero
    for alpha, c in f.terms:
        for z, k in zip(Z.coords, alpha):
            c = c * z ** k
        out = out + c
    return out


def naive_ideal_of_points(pres: Presentation, points, d: int) -> list:
    """`geometry.ideal_of_points` from the evaluation matrix: one row of
    monomial values z^alpha per character point, on Scalars, in `rref`.
    Each free column c gives e_c - sum R[row of p][c] * e_p over the pivot
    columns p before c."""
    field = pres.field
    monos = exponents_up_to(pres.n, d)
    rows = []
    for Z in points:
        if _satisfies_relations(pres, Z):
            row = []
            for alpha in monos:
                value = field.one
                for z, k in zip(Z.coords, alpha):
                    value = value * z ** k
                row.append(value)
            rows.append(row)
    R, pivots = rref(rows, field)
    basis = []
    for c, alpha in enumerate(monos):
        if c in pivots:
            continue
        terms = {alpha: field.one}
        for r, p in enumerate(pivots):
            if p < c:
                terms[monos[p]] = -R[r][c]
        basis.append(Polynomial.from_dict(pres, terms))
    return basis


def semiprime_probe(
    pres: Presentation, Z: Point, samples: int = 50, max_degree: int = 3, seed: int = 0
) -> List[str]:
    """Counterexamples at Z to the lemma that point ideals are completely
    prime, against a saturation of x_i - z_i of Z's own.

    The saturation must end unit exactly where Z is no character. On each
    sample f, the verdicts f in <Z>, f^2 in <Z> and, at a proper point,
    evaluate(f, Z) == 0 must agree. Every other sample is a random f less
    its value at Z, so that it lies in a proper <Z>; the rest are random
    and mostly outside. An empty list is no counterexample."""
    handle = two_sided_saturate(point_generators(pres, Z))
    assert handle.status in ("proper", "unit"), f"saturation at {Z} unresolved"
    proper = handle.status == "proper"
    if proper != is_character(pres, Z):
        return [f"{Z}: saturation is {handle.status}, is_character says {not proper}"]
    rng = random.Random(seed)
    found = []
    for k in range(samples):
        f = random_polynomial(pres, rng, max_degree)
        if k % 2:
            f = f - Polynomial.constant(pres, evaluate(f, Z))
        verdicts = {
            is_member_left(f, handle) == "yes",
            is_member_left(multiply(f, f), handle) == "yes",
        }
        if proper:
            verdicts.add(evaluate(f, Z).is_zero())
        if len(verdicts) > 1:
            found.append(f"{Z}: {f}")
    return found


# far above what any witness fold in the tests needs, so an unresolved
# stage is a failure, not a budget artifact
WITNESS_FOLD_BUDGET = Budget(max_degree=40, max_pairs=1_000_000)


def naive_witness(pres: Presentation, points) -> Polynomial:
    """Witness as a fold of left-ideal intersections: the hyperplane sums
    f_Z = (x_1 - z_1) + ... + (x_n - z_n), intersected one point at a time
    by `intersect_left`, and the element of least deglex lead of the last
    intersection. x_1 + ... + x_n for no points."""
    budget = WITNESS_FOLD_BUDGET
    s = Polynomial.zero(pres)
    for i in range(pres.n):
        s = s + Polynomial.variable(pres, i)
    if not points:
        return s
    sums = [
        s - Polynomial.constant(pres, sum(Z.coords, pres.field.zero)) for Z in points
    ]
    current = [sums[0]]
    for f in sums[1:]:
        left = left_groebner(current, DEGLEX, budget)
        right = left_groebner([f], DEGLEX, budget)
        assert left.status == right.status == "proper", "witness fold ran out of budget"
        res = intersect_left(left, right, budget)
        assert res.complete and res.elements, "witness intersection ran out of budget"
        current = res.elements
    return min(current, key=lambda p: DEGLEX.key(p.leading(DEGLEX)[0]))


def brute_force_radical(f: Polynomial, J_gens, max_power: int = 6) -> bool:
    """f in radical(J) by searching f^m in J for m <= max_power (GB membership)."""
    handle = left_groebner(list(J_gens), DEGLEX)
    power = f
    for _ in range(max_power):
        if is_member_left(power, handle) == "yes":
            return True
        power = multiply(power, f)
    return False


def _remainder(f: Polynomial, basis, order) -> Polynomial:
    if f.is_zero() or not basis:
        return f
    return divide(f, basis, order).remainder


def monic(f: Polynomial, order=DEGLEX) -> Polynomial:
    """f scaled to lead coefficient 1 under the order; zero stays zero."""
    lead = f.leading(order)
    if lead is None:
        return f
    return f.scale(Scalar(f.pres.field, lead[1]).inv())


def _lead_lcm(f: Polynomial, g: Polynomial, order) -> tuple:
    return tuple(
        max(a, b) for a, b in zip(f.leading(order)[0], g.leading(order)[0])
    )


def naive_s_element(gi: Polynomial, gj: Polynomial, order=DEGLEX) -> Polynomial:
    """Left S-element: both leads shifted to their lcm, made monic, subtracted."""
    gamma = _lead_lcm(gi, gj, order)
    parts = []
    for g in (gi, gj):
        shift = tuple(c - a for c, a in zip(gamma, g.leading(order)[0]))
        parts.append(monic(multiply(Polynomial.monomial(g.pres, shift), g), order))
    return parts[0] - parts[1]


def _naive_inter_reduce(basis, order):
    changed = True
    while changed:
        changed = False
        for k in range(len(basis)):
            others = basis[:k] + basis[k + 1 :]
            if not others:
                continue
            rem = _remainder(basis[k], others, order)
            if rem != basis[k]:
                changed = True
                if rem.is_zero():
                    del basis[k]
                else:
                    basis[k] = monic(rem, order)
                break
    return sorted(basis, key=lambda g: order.key(g.leading(order)[0]))


def naive_left_gb(gens, order=DEGLEX, stats=None):
    """Reduced left GB by Buchberger completion that forms every pair,
    smallest lcm first; [1] for the unit ideal. `stats["spairs"]` counts
    the S-elements formed."""
    basis = []
    pairs = []
    for g in gens:
        if g.is_zero():
            continue
        if g.is_constant():
            return [Polynomial.one(g.pres)]
        for i, other in enumerate(basis):
            gamma = _lead_lcm(other, g, order)
            heapq.heappush(pairs, (order.key(gamma), i, len(basis)))
        basis.append(monic(g, order))
    while pairs:
        _, i, j = heapq.heappop(pairs)
        if stats is not None:
            stats["spairs"] = stats.get("spairs", 0) + 1
        rem = _remainder(naive_s_element(basis[i], basis[j], order), basis, order)
        if rem.is_zero():
            continue
        if rem.is_constant():
            return [Polynomial.one(rem.pres)]
        for t, other in enumerate(basis):
            gamma = _lead_lcm(other, rem, order)
            heapq.heappush(pairs, (order.key(gamma), t, len(basis)))
        basis.append(monic(rem, order))
    return _naive_inter_reduce(basis, order)


def naive_saturate(gens, order=DEGLEX, max_rounds=10, stats=None):
    """Reduced left GB of the two-sided ideal of gens: left completion from
    scratch, then every basis element times every variable (and the field
    primitive when some sigma twists), until nothing new reduces to a
    nonzero remainder. None when `max_rounds` rounds do not close."""
    live = [g for g in gens if not g.is_zero()]
    if not live:
        return []
    pres = live[0].pres
    right = [Polynomial.variable(pres, j) for j in range(pres.n)]
    prim = pres.field.primitive()
    if not pres.sigma_all_identity and prim is not None:
        right.append(Polynomial.constant(pres, prim))
    basis = naive_left_gb(live, order, stats)
    for _ in range(max_rounds):
        extra = [multiply(g, w) for g in basis for w in right]
        extra = [f for f in extra if not _remainder(f, basis, order).is_zero()]
        if not extra:
            return basis
        basis = naive_left_gb(basis + extra, order, stats)
    return None


def naive_gebauer_moller(pairs: dict, leads, lead) -> dict:
    """The Gebauer-Moller update by its definition, for a new lead after
    `leads`: B_k over a copy of the queued pairs (i, j) -> lcm, M by
    testing each new lcm against every other one, F by the first
    position. Drops from `pairs` and returns the new pairs as {lcm: i}."""

    def lcm(a, b):
        return tuple(max(x, y) for x, y in zip(a, b))

    def divides(a, b):
        return all(x <= y for x, y in zip(a, b))

    for (i, j), gamma in list(pairs.items()):
        if (
            divides(lead, gamma)
            and lcm(leads[i], lead) != gamma
            and lcm(leads[j], lead) != gamma
        ):
            del pairs[(i, j)]
    lcms = [lcm(other, lead) for other in leads]
    fresh: dict = {}
    for i, gamma in enumerate(lcms):
        if gamma in fresh or any(
            other != gamma and divides(other, gamma) for other in lcms
        ):
            continue
        fresh[gamma] = i
    return fresh


# ---------------------------------------------------------------------------
# characteristic-0 coefficients on Fractions: the reference for the integer
# number-field kernel in scalars. Elements are tuples of phi(m) Fractions in
# the power basis; Q(z_m) multiplies by a table of x^k mod Phi_m and inverts
# by extended Euclid in Q[x].


class FractionRationals:
    """Q on 1-tuples of Fractions."""

    def add(self, a, b):
        return (a[0] + b[0],)

    def mul(self, a, b):
        return (a[0] * b[0],)

    def neg(self, a):
        return (-a[0],)

    def inv(self, a):
        if a[0] == 0:
            raise ZeroDivisionError("inverse of 0")
        return (1 / a[0],)

    def galois(self, a, k):
        return a

    def conjugate(self, a):
        return a


class FractionGaussian:
    """Q(i) on pairs (re, im) of Fractions."""

    def add(self, a, b):
        return (a[0] + b[0], a[1] + b[1])

    def mul(self, a, b):
        ar, ai = a
        br, bi = b
        return (ar * br - ai * bi, ar * bi + ai * br)

    def neg(self, a):
        return (-a[0], -a[1])

    def inv(self, a):
        re, im = a
        n = re * re + im * im
        if n == 0:
            raise ZeroDivisionError("inverse of 0")
        return (re / n, -im / n)

    def conjugate(self, a):
        return (a[0], -a[1])

    def galois(self, a, k):
        return a if k % 4 == 1 else self.conjugate(a)


def _poly_trim(c: list) -> list:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_divmod(num: list, den: list):
    """Quotient and remainder of Fraction coefficient lists, low degree first."""
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


class FractionCyclotomic:
    """Q(z_m) on tuples of phi(m) Fractions."""

    def __init__(self, m: int):
        self.m = m
        self.modulus = cyclotomic_polynomial(m)
        self.dim = len(self.modulus) - 1
        # x^k mod Phi_m for k = 0..2*dim-2 (products) and k < m (Galois maps)
        self.xpow = []
        cur = [Fraction(1)] + [Fraction(0)] * (self.dim - 1)
        for _ in range(max(2 * self.dim - 1, m) + 1):
            self.xpow.append(tuple(cur))
            nxt = [Fraction(0)] + cur
            lead = nxt[self.dim]
            for k in range(self.dim):
                nxt[k] -= lead * self.modulus[k]
            cur = nxt[: self.dim]

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x for x in a)

    def mul(self, a, b):
        out = [Fraction(0)] * self.dim
        for ka, ca in enumerate(a):
            for kb, cb in enumerate(b):
                for k, c in enumerate(self.xpow[ka + kb]):
                    out[k] += ca * cb * c
        return tuple(out)

    def inv(self, a):
        if not any(a):
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
                for ks, cs in enumerate(s1):
                    s[kq + ks] -= cq * cs
            r0, s0 = r1, s1
            r1, s1 = _poly_trim(list(r)), _poly_trim(s) or [Fraction(0)]
        out = [Fraction(0)] * self.dim
        for k, cs in enumerate(s1):
            out[k] = cs / r1[0]
        return tuple(out)

    def galois(self, a, k):
        out = [Fraction(0)] * self.dim
        for j, c in enumerate(a):
            for t, x in enumerate(self.xpow[(j * k) % self.m]):
                out[t] += c * x
        return tuple(out)

    def conjugate(self, a):
        return self.galois(a, -1)


def fraction_field(spec):
    """The Fraction reference arithmetic for a characteristic-0 FieldSpec."""
    if spec.kind == "Q":
        return FractionRationals()
    if spec.kind == "Q(i)":
        return FractionGaussian()
    return FractionCyclotomic(spec.param)


# ---------------------------------------------------------------------------
# the text layer on Scalars: the reference for poly.parse_scalar, and for
# presentation documents, which poly reads with parse_polynomial in commuting
# variables and prints with to_string. Relation sides are collected as
# {exponent: Scalar} dicts with one convolution per product and per unit of
# an exponent.


def _reference_symbol(field, name: str, pos: int):
    kind = field.spec.kind
    if name == "i":
        if kind == "Q(i)":
            return field.primitive()
        if kind == "cyclotomic" and field.m == 4:
            return field.primitive()
        raise InputError(f"'i' is not an element of {field.spec} (at position {pos})")
    if name == "z":
        if kind == "cyclotomic":
            return field.primitive()
        raise InputError(f"'z' is not an element of {field.spec} (at position {pos})")
    raise InputError(f"unknown symbol {name!r} (at position {pos})")


def reference_eval_scalar(node, field):
    kind = node[0]
    if kind == "int":
        return field.from_int(node[1])
    if kind == "sym":
        return _reference_symbol(field, node[1], node[2])
    if kind == "neg":
        return -reference_eval_scalar(node[1], field)
    if kind == "add":
        return reference_eval_scalar(node[1], field) + reference_eval_scalar(node[2], field)
    if kind == "sub":
        return reference_eval_scalar(node[1], field) - reference_eval_scalar(node[2], field)
    if kind == "mul":
        return reference_eval_scalar(node[1], field) * reference_eval_scalar(node[2], field)
    if kind == "div":
        den = reference_eval_scalar(node[2], field)
        if den.is_zero():
            raise InputError("division by zero")
        return reference_eval_scalar(node[1], field) / den
    if kind == "pow":
        base = reference_eval_scalar(node[1], field)
        if node[2] < 0 and base.is_zero():
            raise InputError("division by zero")
        return base ** node[2]
    raise InputError(f"bad node {kind!r}")


def reference_parse_scalar(text: str, field):
    return reference_eval_scalar(parse_ast(text), field)


def _convolve(a: dict, b: dict, field) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            c = out.get(e, field.zero) + ca * cb
            if c.is_zero():
                out.pop(e, None)
            else:
                out[e] = c
    return out


def reference_collect(node, field, var_index: dict) -> dict:
    """An AST in commuting formal variables, as {exponent: Scalar}."""
    n = len(var_index)
    kind = node[0]
    if kind == "int":
        c = field.from_int(node[1])
        return {} if c.is_zero() else {(0,) * n: c}
    if kind == "sym":
        name = node[1]
        if name in var_index:
            e = [0] * n
            e[var_index[name]] = 1
            return {tuple(e): field.one}
        return {(0,) * n: _reference_symbol(field, name, node[2])}
    if kind == "neg":
        return {e: -c for e, c in reference_collect(node[1], field, var_index).items()}
    if kind in ("add", "sub"):
        out = dict(reference_collect(node[1], field, var_index))
        for e, c in reference_collect(node[2], field, var_index).items():
            c2 = out.get(e, field.zero) + (c if kind == "add" else -c)
            if c2.is_zero():
                out.pop(e, None)
            else:
                out[e] = c2
        return out
    if kind == "pow":
        k = node[2]
        base = reference_collect(node[1], field, var_index)
        if k < 0:
            if not base:
                raise InputError("division by zero")
            if len(base) != 1 or any(any(e) for e in base):
                raise InputError("negative power of a non-scalar")
            ((e, c),) = base.items()
            return {e: c ** k}
        out = {(0,) * n: field.one}
        for _ in range(k):
            out = _convolve(out, base, field)
        return out
    if kind in ("mul", "div"):
        left = reference_collect(node[1], field, var_index)
        right = reference_collect(node[2], field, var_index)
        if kind == "div":
            if not right:
                raise InputError("division by zero")
            if len(right) != 1 or any(any(e) for e in right):
                raise InputError("division by a non-scalar")
            ((_, c),) = right.items()
            right = {(0,) * n: c.inv()}
        return _convolve(left, right, field)
    raise InputError(f"bad node {kind!r}")


def reference_relation(rhs: str, field, names, i: int, j: int) -> Relation:
    """The relation x_j*x_i = rhs, collected by reference_collect."""
    n = len(names)
    terms = reference_collect(parse_ast(rhs), field, {nm: k for k, nm in enumerate(names)})
    c, const, linear = field.zero, field.zero, []
    for exp, coeff in terms.items():
        if exp == tuple(1 if k in (i, j) else 0 for k in range(n)):
            c = coeff
        elif sum(exp) == 0:
            const = coeff
        elif sum(exp) == 1:
            linear.append((exp.index(1), coeff))
        else:
            raise InputError(
                f"right side must be c*{names[i]}*{names[j]} + linear terms + constant"
            )
    if c.is_zero():
        raise InputError(f"coefficient of {names[i]}*{names[j]} must be nonzero")
    return Relation(c, tuple(sorted(linear)), const)


def _coeff_times(c, mono: str) -> str:
    text = str(c)
    if text == "1":
        return mono
    if text == "-1":
        return f"-{mono}"
    core = text[1:] if text.startswith("-") else text
    compound = any(ch in core for ch in "+-") and not text.startswith("(")
    return f"({text})*{mono}" if compound else f"{text}*{mono}"


def reference_serialize(pres: Presentation) -> str:
    """serialize_presentation, printed term by term."""
    lines = [f"field: {pres.field.spec}", "vars: " + ", ".join(pres.names)]
    m = pres.field.m
    tags = [
        f"{nm} = conj" if (k + 1) % m == 0 else f"{nm} = galois:{k}"
        for nm, k in zip(pres.names, pres.sigma)
        if k != 1
    ]
    if tags:
        lines.append("sigma: " + ", ".join(tags))
    for (i, j), rel in sorted(pres.relations.items()):
        parts = [_coeff_times(rel.c, f"{pres.names[i]}*{pres.names[j]}")]
        for k, a in rel.linear:
            parts.append(_coeff_times(a, pres.names[k]))
        if not rel.const.is_zero():
            parts.append(str(rel.const))
        rhs = parts[0]
        for p in parts[1:]:
            rhs += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        lines.append(f"relation: {pres.names[j]}*{pres.names[i]} = {rhs}")
    return "\n".join(lines) + "\n"
