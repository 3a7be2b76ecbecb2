"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v` (or -s for the verdict lines).
Randomized criteria use fixed seeds so the suite is reproducible.
"""

import random
import time

import oracles
from conftest import algebra_path
from oracles import (
    _vector,
    brute_force_radical,
    domain_points,
    normal_from_parts,
    random_polynomial,
    semiprime_probe,
    span_rows,
    two_sided_span_membership,
)
from skewpbw.geometry import (
    Point,
    SearchDomain,
    ideal_of_points,
    is_character,
    is_root,
    point_ideal,
    vanishing_set,
)
from skewpbw.groebner import (
    is_member_left,
    left_groebner,
    two_sided_saturate,
)
from skewpbw.normality import is_normal
from skewpbw.nullstellensatz import (
    center_generators,
    radical_membership_commutative,
    verify_sandwich,
)
from skewpbw.poly import (
    Polynomial,
    exponents_up_to,
    multiply,
    parse_polynomial,
)
from skewpbw.presentation import load_presentation_file, quantum_plane
from skewpbw.scalars import FieldSpec, get_field


def report(num, text):
    print(f"\nACCEPTANCE {num} PASS: {text}")


def timer():
    start = time.monotonic()
    return lambda: time.monotonic() - start


# -- 1: Witten division -------------------------------------------------------


def test_c01_witten_division(witten):
    elapsed = timer()
    from skewpbw.groebner import divide

    f = parse_polynomial("x^2*y + x*z + y*z", witten)
    divisors = [parse_polynomial(t, witten) for t in ("x-1", "y+2", "z+3")]
    res = divide(f, divisors)
    assert res.reconstruct(divisors) - f == Polynomial.zero(witten)

    q1 = parse_polynomial("1/2*x*y + 1/4*y", witten)
    q2 = parse_polynomial("1/4", witten)
    h = parse_polynomial("x*z + y*z - 1/2", witten)
    assert q1 * divisors[0] + q2 * divisors[1] + h == f

    t = elapsed()
    assert t < 1.0
    report(1, f"Witten division identity and published decomposition, {t:.3f}s")


# -- 2: unit ideal in the Weyl-type algebra -----------------------------------


def test_c02_weyl_unit_ideal(weyl_z):
    elapsed = timer()
    gens = [parse_polynomial(t, weyl_z) for t in ("x-1", "y", "z")]
    H = left_groebner(gens)
    assert H.status == "unit"
    assert is_root(Polynomial.one(weyl_z), Point.of(weyl_z, [1, 0, 0])) == "yes"
    t = elapsed()
    assert t < 1.0
    report(2, f"left ideal (x-1, y, z) is the whole ring; (1,0,0) is a root of 1, {t:.3f}s")


# -- 3: degenerate vs proper point ideals with a span cross-check -------------


def test_c03_degenerate_point_ideal(qplane_m1):
    elapsed = timer()
    pres = qplane_m1
    assert not is_character(pres, Point.of(pres, [1, 1]))
    origin = Point.of(pres, [0, 0])
    assert is_character(pres, origin)
    assert set(map(str, point_ideal(pres, origin).basis)) == {"x", "y"}

    one = Polynomial.one(pres)
    x = parse_polynomial("x", pres)
    y = parse_polynomial("y", pres)
    gens_unit = [parse_polynomial("x-1", pres), parse_polynomial("y-1", pres)]
    assert two_sided_span_membership(one, gens_unit, 3)
    assert not two_sided_span_membership(one, [x, y], 3)
    assert two_sided_span_membership(x, [x, y], 3)
    assert two_sided_span_membership(y, [x, y], 3)
    t = elapsed()
    assert t < 5.0
    report(3, f"point ideals at (1,1)/(0,0) match the degree-3 span oracle, {t:.3f}s")


# -- 4: vanishing-set / ideal-of-points property suite -------------------------


def _theorem_suite(pres, domain, instances, seed, d=2):
    rng = random.Random(seed)
    field = pres.field
    candidates = domain_points(domain, pres)
    checked = 0

    def ker_rows(polys):
        rows, monos, index = span_rows(polys, pres, d)
        return rows, monos, index

    def span_contains(basis, polys):
        if not polys:
            return True
        rows, monos, index = ker_rows(basis)
        return all(
            oracles.in_row_span(rows, _vector(p, monos, index), field)
            for p in polys
        )

    for _ in range(instances):
        f = random_polynomial(pres, rng, 2, 2)
        g = random_polynomial(pres, rng, 2, 2)
        h = random_polynomial(pres, rng, 2, 2)
        Z = candidates[rng.randrange(len(candidates))]
        handle = point_ideal(pres, Z)

        # (i)(a) roots add
        if (
            is_member_left(f, handle) == "yes"
            and is_member_left(g, handle) == "yes"
        ):
            assert is_member_left(f + g, handle) == "yes"

        # (i)(b) V(f) subset of V(gfh)
        if not f.is_zero():
            Vf = {p.coords for p in vanishing_set(pres, [f], domain).roots}
            gfh = multiply(multiply(g, f), h)
            Vgfh = {p.coords for p in vanishing_set(pres, [gfh], domain).roots}
            assert Vf <= Vgfh

        # (iii)(c) antitone in generating sets; (iii)(f) sums intersect
        S = [p for p in (f, g) if not p.is_zero()]
        T = S + [p for p in (h,) if not p.is_zero()]
        VT = {p.coords for p in vanishing_set(pres, T, domain).roots}
        VS = {p.coords for p in vanishing_set(pres, S, domain).roots}
        assert VT <= VS
        if len(T) > len(S):
            Vh = {p.coords for p in vanishing_set(pres, [h], domain).roots}
            assert VT == VS & Vh

        # point sets for the ideal-of-points laws
        X = [
            candidates[rng.randrange(len(candidates))]
            for _ in range(rng.randint(1, 2))
        ]
        Y = X + [candidates[rng.randrange(len(candidates))]]
        KX = ideal_of_points(pres, X, d)
        KY = ideal_of_points(pres, Y, d)

        # (iv)(b): X subset of Y implies I(Y) subset of I(X)
        assert span_contains(KX, KY)

        # (iv)(d): X subset of V(I(X))
        for P in X:
            assert all(is_root(p, P) == "yes" for p in KX)

        # (iv)(f): I(V(I(X))) = I(X) up to degree d
        Xprime = vanishing_set(pres, KX, domain).roots
        KXprime = ideal_of_points(pres, Xprime, d)
        assert span_contains(KX, KXprime) and span_contains(KXprime, KX)

        # (iv)(g): I(X u Y) = I(X) n I(Y) as spans
        KXY = ideal_of_points(pres, X + Y, d)
        rows_x, monos, index = ker_rows(KX)
        rows_y, _, _ = ker_rows(KY)
        inter = oracles.span_intersection(rows_x, rows_y, field)
        rows_xy, _, _ = ker_rows(KXY)
        assert len(inter) == oracles.rank(rows_xy, field)
        for v in inter:
            assert oracles.in_row_span(rows_xy, v, field)

        # (iv)(h): I({Z}) equals the degree slice of the saturated ideal
        KZ = ideal_of_points(pres, [Z], d)
        if handle.status == "proper":
            products = []
            for gg in handle.basis:
                for e in exponents_up_to(pres.n, d - gg.degree()):
                    products.append(multiply(Polynomial.monomial(pres, e), gg))
            rows_sat, monos2, index2 = span_rows(products, pres, d)
            assert oracles.rank(rows_sat, field) == len(KZ)
            for p in KZ:
                assert oracles.in_row_span(rows_sat, _vector(p, monos2, index2), field)
        else:
            assert len(KZ) == len(exponents_up_to(pres.n, d))

        # (iv)(c): generators land in I(V(gens)) over the domain
        gens = [p for p in (f, g) if not p.is_zero()]
        if gens:
            found = vanishing_set(pres, gens, domain).roots
            for P in found:
                assert all(is_root(p, P) == "yes" for p in gens)
        checked += 1
    return checked


def test_c04_variety_property_suite(qplane_gf5, QQ):
    elapsed = timer()
    n_gf = _theorem_suite(
        qplane_gf5, SearchDomain.full_prime_field(), instances=200, seed=101
    )
    pres_q = quantum_plane(QQ, QQ.from_int(2))
    grid = SearchDomain.grid([[QQ.from_int(k) for k in (-1, 0, 1)]])
    n_q = _theorem_suite(pres_q, grid, instances=200, seed=202)
    t = elapsed()
    assert n_gf == 200 and n_q == 200
    assert t < 60.0
    report(4, f"vanishing/ideal-of-points laws on {n_gf}+{n_q} instances, {t:.1f}s")


# -- 5: centers for q = zeta_m ------------------------------------------------


def test_c05_center_verification():
    elapsed = timer()
    for m in (2, 3, 4):
        F = get_field(FieldSpec.cyclotomic(m))
        P = quantum_plane(F, F.primitive())
        C = center_generators(P)
        assert C.exponents == (m, m)
        assert [str(g) for g in C.generators] == [f"x^{m}", f"y^{m}"]
        for g in C.generators:
            for j in range(P.n):
                xj = Polynomial.variable(P, j)
                assert multiply(g, xj) == multiply(xj, g)
    t = elapsed()
    assert t < 1.0
    report(5, f"centers x^m, y^m verified for m in 2,3,4, {t:.3f}s")


# -- 6: the radical sandwich ---------------------------------------------------


def test_c06_nullstellensatz_sandwich(qplane_m1, comm2, QQ):
    elapsed = timer()
    grid = SearchDomain.grid([[QQ.from_int(k) for k in range(-2, 3)]])

    C = center_generators(qplane_m1)
    I = two_sided_saturate([parse_polynomial("x^4", qplane_m1)])
    rep = verify_sandwich(I, C, grid, d=4, M=4)
    assert rep.inclusion_radical == "confirmed"
    assert rep.inclusion_points == "confirmed"
    certified = [v for v in rep.generator_verdicts if v.in_radical_J]
    assert [str(v.center_poly) for v in certified] == ["u"]
    assert certified[0].nilpotency_m == 2
    assert str(certified[0].lifted) == "x^2"

    C2 = center_generators(comm2)
    I2 = two_sided_saturate(
        [parse_polynomial("x^2", comm2), parse_polynomial("y", comm2)]
    )
    rep2 = verify_sandwich(I2, C2, grid, d=2, M=2)
    assert rep2.inclusion_radical == "confirmed"
    assert rep2.inclusion_points == "confirmed"
    assert {
        str(v.center_poly) for v in rep2.generator_verdicts if v.in_radical_J
    } == {"u", "v"}
    t = elapsed()
    assert t < 30.0
    report(6, f"both sandwich inclusions confirmed (quantum and classical), {t:.2f}s")


# -- 7: radical oracle agreement ------------------------------------------------


def test_c07_radical_oracle_agreement(comm2, comm2_gf5):
    elapsed = timer()
    total = 0
    for pres, seed in ((comm2, 71), (comm2_gf5, 72)):
        rng = random.Random(seed)
        done = 0
        while done < 100:
            gens = [
                random_polynomial(pres, rng, 3, 3)
                for _ in range(rng.randint(1, 2))
            ]
            gens = [g for g in gens if not g.is_zero()]
            f = random_polynomial(pres, rng, 2, 2)
            if not gens or f.is_zero():
                continue
            assert radical_membership_commutative(f, gens) == brute_force_radical(
                f, gens, 6
            )
            done += 1
        total += done
    t = elapsed()
    assert total == 200
    assert t < 60.0
    report(7, f"Rabinowitsch vs power search: {total}/200 agreements, {t:.1f}s")


# -- 8: normality -----------------------------------------------------------------


def test_c08_normality(qplane_m1, QQ):
    elapsed = timer()
    assert is_normal(parse_polynomial("x", qplane_m1)).status == "normal"
    verdict = is_normal(parse_polynomial("x+y", qplane_m1))
    assert verdict.status == "not_normal"
    assert verdict.counter_witness is not None

    for h_text, alpha in (("1", (1, 0)), ("x^2*y^2", (0, 0)), ("y^2", (2, 1))):
        h = parse_polynomial(h_text, qplane_m1)
        f, _ = normal_from_parts(qplane_m1, QQ.from_int(2), alpha, h)
        assert is_normal(f).status == "normal"
    t = elapsed()
    assert t < 5.0
    report(8, f"normality certificates and counter-witness recorded, {t:.2f}s")


# -- 9: commutative regression against the span oracle ----------------------------


def test_c09_commutative_regression(comm2, comm2_gf5):
    elapsed = timer()
    agreements = 0
    for pres, seed in ((comm2, 81), (comm2_gf5, 82)):
        rng = random.Random(seed)
        done = 0
        while done < 50:
            gens = [
                random_polynomial(pres, rng, 3, 2)
                for _ in range(rng.randint(1, 3))
            ]
            gens = [g for g in gens if not g.is_zero()]
            if not gens:
                continue
            H = left_groebner(gens)
            member = Polynomial.zero(pres)
            for g in gens:
                member = member + multiply(random_polynomial(pres, rng, 2, 2), g)
            probes = [member, random_polynomial(pres, rng, 3, 3)]
            for f in probes:
                if f.is_zero() or f.degree() > 6:
                    continue
                engine = is_member_left(f, H) == "yes"
                oracle = two_sided_span_membership(f, gens, 6)
                assert engine == oracle
                agreements += 1
            done += 1
    t = elapsed()
    assert t < 120.0
    report(9, f"membership matches the span oracle on {agreements} probes, {t:.1f}s")


# -- 10: point ideals are completely prime ------------------------------------


QUASI_COMMUTATIVE_ALGEBRAS = [
    "qplane_m1.alg",
    "qplane_q2_gf5.alg",
    "qspace3.alg",
    "commutative_xy.alg",
    "qplane_i.alg",
]


def _proper_points(pres, want=10):
    """Candidate points filtered to proper ideals.

    Over GF(p) the whole plane is scanned: the q = 2 quantum plane over
    GF(5) has exactly 9 proper points (every point with two nonzero
    coordinates is degenerate), so `want` caps rather than demands.
    """
    field = pres.field
    from skewpbw.scalars import PrimeField

    candidates = []
    if isinstance(field, PrimeField):
        candidates = domain_points(SearchDomain.full_prime_field(), pres)
    else:
        values = [field.from_int(k) for k in (0, 1, 2, -1, 3, -2, 4, -3)]
        seen = set()
        for axis in range(pres.n):
            for v in values:
                coords = tuple(
                    v if k == axis else field.zero for k in range(pres.n)
                )
                if coords not in seen:
                    seen.add(coords)
                    candidates.append(Point.of(pres, coords))
    out = []
    for Z in candidates:
        if is_character(pres, Z):
            out.append(Z)
        if len(out) >= want:
            break
    return out


def test_c10_point_ideals_completely_prime():
    """At every probe point, a saturation of x_i - z_i of its own agrees
    with `is_character`, and f in <Z>, f^2 in <Z> and evaluate(f, Z) == 0
    agree on 50 random f: the lemma in `geometry`, checked by an oracle."""
    elapsed = timer()
    probes = 0
    for name in QUASI_COMMUTATIVE_ALGEBRAS:
        pres = load_presentation_file(algebra_path(name))
        points = _proper_points(pres, want=10)
        floor = 9 if name == "qplane_q2_gf5.alg" else 10
        assert len(points) >= floor, f"{name}: too few proper probe points"
        for k, Z in enumerate(points):
            found = semiprime_probe(pres, Z, samples=50, max_degree=3, seed=900 + k)
            assert found == [], f"{name}: {found[0]}"
            probes += 50
    t = elapsed()
    assert t < 5.0
    report(10, f"no counterexample to the point-ideal lemma in {probes} probes, {t:.1f}s")
