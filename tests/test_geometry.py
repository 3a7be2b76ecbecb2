"""Point ideals, roots, vanishing sets, ideals of points, witnesses."""

import os
import random

import pytest

from skewpbw import geometry, groebner
from skewpbw.geometry import (
    GeometryError,
    Point,
    SearchDomain,
    algebraic_witness,
    ideal_of_points,
    is_root,
    point_ideal,
    random_polynomial,
    semiprime_probe,
    vanishing_set,
)
from skewpbw.groebner import (
    Budget,
    intersect_left,
    is_member_left,
    left_groebner,
    two_sided_saturate,
)
from skewpbw.poly import Polynomial, multiply, parse_polynomial
from skewpbw.presentation import (
    check_pbw_consistency,
    extend_with_central,
    load_presentation,
    load_presentation_file,
    quantum_plane,
)
from skewpbw.scalars import FieldSpec, get_field
from conftest import ALGEBRA_DIR, algebra_path
from oracles import in_row_span, naive_witness, rank, span_rows, _vector


SHIPPED = sorted(f for f in os.listdir(ALGEBRA_DIR) if f.endswith(".alg"))


def grid(field, lo, hi):
    return SearchDomain.grid([[field.from_int(k) for k in range(lo, hi + 1)]])


def test_point_ideal_examples(qplane_m1, weyl_z, QQ):
    cache = point_ideal(qplane_m1, Point.of(qplane_m1, [0, 0]))
    assert cache.handle.status == "proper"
    assert set(map(str, cache.handle.basis)) == {"x", "y"}

    assert point_ideal(qplane_m1, Point.of(qplane_m1, [1, 1])).handle.status == "unit"
    assert point_ideal(weyl_z, Point.of(weyl_z, [1, 0, 0])).handle.status == "unit"


def test_is_root_examples(qplane_m1, weyl_z, comm2):
    x_minus_1 = parse_polynomial("x-1", qplane_m1)
    assert is_root(x_minus_1, Point.of(qplane_m1, [1, 0])) == "yes"
    assert is_root(parse_polynomial("x", comm2), Point.of(comm2, [1, 0])) == "no"
    assert is_root(Polynomial.one(weyl_z), Point.of(weyl_z, [1, 0, 0])) == "yes"


def test_vanishing_set_commutative(comm2, QQ):
    rep = vanishing_set(
        comm2, [parse_polynomial("x", comm2)], grid(QQ, -1, 1)
    )
    assert {str(p) for p in rep.roots} == {"(0, -1)", "(0, 0)", "(0, 1)"}
    assert not rep.degenerate and not rep.unknown


def test_vanishing_set_degenerate_points(qplane_m1, QQ):
    rep = vanishing_set(
        qplane_m1, [parse_polynomial("x", qplane_m1)], grid(QQ, 0, 1)
    )
    assert {str(p) for p in rep.roots} == {"(0, 0)", "(0, 1)", "(1, 1)"}
    assert {str(p) for p in rep.degenerate} == {"(1, 1)"}
    table = dict((str(p), tag) for p, tag in rep.table())
    assert table["(1, 1)"] == "degenerate"
    assert table["(1, 0)"] == "non-root"


def test_vanishing_set_empty_generators(comm2, QQ):
    dom = grid(QQ, 0, 1)
    rep = vanishing_set(comm2, [], dom)
    assert len(rep.roots) == 4 and not rep.non_roots


def test_full_prime_field_domain(qplane_gf5):
    dom = SearchDomain.full_prime_field()
    pts = dom.points(qplane_gf5)
    assert len(pts) == 25
    rep = vanishing_set(qplane_gf5, [parse_polynomial("x", qplane_gf5)], dom)
    assert len(rep.roots) + len(rep.non_roots) == 25


def test_search_domain_size_guard(qplane_gf5, monkeypatch):
    """The count is checked before any point is built: enumerating 10^12
    points of GF(1000003)^2 would not end."""
    F = get_field(FieldSpec.prime(1_000_003))
    big = quantum_plane(F, F.from_int(2))
    with pytest.raises(GeometryError, match="1000006000009 points, above the limit of 100000"):
        SearchDomain.full_prime_field().points(big)
    monkeypatch.setattr(geometry, "MAX_DOMAIN_POINTS", 24)
    with pytest.raises(GeometryError, match="25 points, above the limit of 24"):
        SearchDomain.full_prime_field().points(qplane_gf5)
    col = [qplane_gf5.field.from_int(k) for k in range(6)]
    assert len(SearchDomain.grid([col[:4], col]).points(qplane_gf5)) == 24
    with pytest.raises(GeometryError, match="36 points"):
        SearchDomain.grid([col]).points(qplane_gf5)


def test_ideal_of_points_examples(comm2, qplane_m1):
    basis = ideal_of_points(comm2, [Point.of(comm2, [0, 0])], 1)
    assert set(map(str, basis)) == {"x", "y"}

    everything = ideal_of_points(qplane_m1, [Point.of(qplane_m1, [1, 1])], 1)
    assert len(everything) == 3  # 1, x, y: the whole degree-<=1 space

    empty = ideal_of_points(comm2, [], 1)
    assert len(empty) == 3


def test_ideal_of_points_matches_saturated_basis(qplane_m1):
    """I({Z}) up to degree d spans the same space as the degree-d slice of
    the saturated point ideal (products of monomials with basis elements)."""
    pres = qplane_m1
    Z = Point.of(pres, [1, 0])
    d = 3
    kernel = ideal_of_points(pres, [Z], d)
    handle = point_ideal(pres, Z).handle
    products = []
    from skewpbw.poly import exponents_up_to

    for g in handle.basis:
        for e in exponents_up_to(pres.n, d - g.degree()):
            products.append(multiply(Polynomial.monomial(pres, e), g))
    rows, monos, index = span_rows(products, pres, d)
    assert rank(rows, pres.field) == len(kernel)
    for f in kernel:
        assert in_row_span(rows, _vector(f, monos, index), pres.field)


def test_ideal_of_points_three_variables(witten):
    """Kernel method agrees with the saturated-basis span in three variables."""
    pres = witten
    Z = Point.of(pres, [0, 0, 0])
    d = 2
    kernel = ideal_of_points(pres, [Z], d)
    handle = point_ideal(pres, Z).handle
    assert handle.status == "proper"
    from skewpbw.poly import exponents_up_to

    products = []
    for g in handle.basis:
        for e in exponents_up_to(pres.n, d - g.degree()):
            products.append(multiply(Polynomial.monomial(pres, e), g))
    rows, monos, index = span_rows(products, pres, d)
    assert rank(rows, pres.field) == len(kernel)
    for f in kernel:
        assert in_row_span(rows, _vector(f, monos, index), pres.field)
        assert is_root(f, Z) == "yes"


def test_ideal_of_points_ignores_budget(qplane_m1):
    """(2, 3) is no character of y*x = -x*y (2*3 != -2*3), so its ideal is
    the whole ring. A budget that starves the saturation of x - 2, y - 3
    left this unresolved; evaluation gives the default-budget answer."""
    pres = qplane_m1
    Z = Point.of(pres, [2, 3])
    starved = Budget(max_degree=0, max_pairs=1, max_rounds=1)
    gens = geometry.point_generators(pres, Z)
    assert two_sided_saturate(gens, budget=starved).status == "unknown"
    assert two_sided_saturate(gens).status == "unit"
    exact = ideal_of_points(pres, [Z], 2)
    assert len(exact) == 6  # the whole degree <= 2 space
    # a unit point ideal adds no condition, as with no point at all
    assert exact == ideal_of_points(pres, [], 2)


def test_algebraic_witness_origin(qplane_m1):
    res = algebraic_witness(qplane_m1, [Point.of(qplane_m1, [0, 0])])
    assert str(res.witness) == "x + y"


@pytest.mark.parametrize("name", ["comm2", "qplane_m1", "witten"])
def test_algebraic_witness_two_points(name, request):
    """The witness vanishes at the origin and at (1, ..., 1), and is a left
    multiple of both hyperplane sums, also where the variables do not
    commute and (1, 1) is a degenerate point of the q = -1 plane."""
    pres = request.getfixturevalue(name)
    coords = ([0] * pres.n, [1] * pres.n)
    pts = [Point.of(pres, z) for z in coords]
    res = algebraic_witness(pres, pts)
    for Z in pts:
        assert is_root(res.witness, Z) == "yes"
    s = Polynomial.zero(pres)
    for i in range(pres.n):
        s = s + Polynomial.variable(pres, i)
    for z in coords:
        f = s - Polynomial.constant(pres, pres.field.from_int(sum(z)))
        assert is_member_left(res.witness, left_groebner([f])) == "yes"


def test_algebraic_witness_empty(comm2):
    res = algebraic_witness(comm2, [])
    assert str(res.witness) == "x + y"


@pytest.fixture(scope="module")
def gf7_qspace3():
    """A GF(7) quantum 3-space: yx = 2xy, zx = 3xz, zy = 5yz."""
    return load_presentation(
        "field: gf:7\nvars: x, y, z\nrelation: y*x = 2*x*y\n"
        "relation: z*x = 3*x*z\nrelation: z*y = 5*y*z\n"
    )


@pytest.mark.parametrize("name", SHIPPED + ["gf7_qspace3"])
def test_algebraic_witness_matches_intersection_fold(name, request):
    """The product of hyperplane sums is the element of least lead that a
    fold of left-ideal intersections finds, on seeded sets of 0-4 points."""
    if name.endswith(".alg"):
        pres = load_presentation_file(algebra_path(name))
    else:
        pres = request.getfixturevalue(name)
    rng = random.Random(name)
    field = pres.field
    values = [field.from_int(k) for k in (0, 1, -1, 2, 3)]
    if field.primitive() is not None:
        values.append(field.primitive())
    for k in range(5):
        pts = [
            Point(tuple(rng.choice(values) for _ in range(pres.n))) for _ in range(k)
        ]
        assert algebraic_witness(pres, pts).witness == naive_witness(pres, pts), (
            f"{name} at {pts}"
        )


def test_algebraic_witness_runs_no_groebner_basis(monkeypatch, comm2, qspace3):
    """The witness is a product: with every Groebner entry point refusing,
    it still equals the fold's answer."""
    i = qspace3.field.primitive()
    cases = [
        (comm2, [Point.of(comm2, z) for z in ([0, 0], [1, 1], [2, -1], [3, 5])]),
        (qspace3, [Point.of(qspace3, z) for z in ([1, 0, 0], [0, 1, 0], [0, 0, i])]),
    ]
    expected = [naive_witness(pres, pts) for pres, pts in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("the witness ran a Groebner computation")

    for name in ("left_groebner", "intersect_left", "_groebner"):
        monkeypatch.setattr(groebner, name, refuse)
    assert [algebraic_witness(pres, pts).witness for pres, pts in cases] == expected


@pytest.mark.parametrize("q", ["1", "-1"])
def test_witness_and_intersection_with_a_variable_named_t(q):
    """The added elimination variable avoids the algebra's own names: on
    `s, t` the answers are those on `x, y` with the variables renamed."""
    st = load_presentation(f"field: Q\nvars: s, t\nrelation: t*s = {q}*s*t\n")
    xy = load_presentation(f"field: Q\nvars: x, y\nrelation: y*x = {q}*x*y\n")

    def shape(f):
        return [(e, str(c)) for e, c in f.terms]

    coords = [[0, 0], [1, 0]]
    w_st = algebraic_witness(st, [Point.of(st, z) for z in coords]).witness
    w_xy = algebraic_witness(xy, [Point.of(xy, z) for z in coords]).witness
    assert w_st is not None and shape(w_st) == shape(w_xy)

    meet = {}
    for pres in (st, xy):
        a, b = (Polynomial.variable(pres, k) for k in range(2))
        res = intersect_left(left_groebner([a]), left_groebner([b - 1]))
        assert res.complete
        meet[pres.names] = [shape(g) for g in res.elements]
    assert meet[("s", "t")] == meet[("x", "y")]
    assert extend_with_central(load_presentation("field: Q\nvars: t, t1\n")).names == (
        "t2", "t", "t1",
    )


def test_semiprime_probe_commutative(comm2):
    rep = semiprime_probe(comm2, Point.of(comm2, [0, 0]), samples=50, seed=3)
    assert rep.proper and not rep.counterexamples
    assert rep.consistent == 50


def test_semiprime_probe_spec_cases(comm2, qplane_m1):
    Z = Point.of(comm2, [0, 0])
    handle = point_ideal(comm2, Z).handle
    x = parse_polynomial("x", comm2)
    x1 = parse_polynomial("x+1", comm2)
    assert is_member_left(multiply(x, x), handle) == "yes"
    assert is_member_left(x, handle) == "yes"
    assert is_member_left(multiply(x1, x1), handle) == "no"
    assert is_member_left(x1, handle) == "no"

    degenerate = semiprime_probe(
        qplane_m1, Point.of(qplane_m1, [1, 1]), samples=20, seed=3
    )
    assert degenerate.proper is False and not degenerate.counterexamples


def test_witten_proper_locus_is_z_axis(witten):
    """Saturation derives x and y from the commutators z*x - x*z = -x and
    z*y - y*z = 2y, so point ideals are proper exactly on the z-axis."""
    proper = Point.of(witten, [0, 0, 2])
    h = point_ideal(witten, proper).handle
    assert h.status == "proper"
    assert set(map(str, h.basis)) == {"x", "y", "z - 2"}
    for coords in ([1, 0, 0], [0, 1, 0], [1, 1, 1]):
        assert point_ideal(witten, Point.of(witten, coords)).handle.status == "unit"
    # x vanishes on the whole grid: degenerate points plus the z-axis trace
    field = witten.field
    grid = SearchDomain.grid([[field.from_int(k) for k in (-1, 0, 1)]])
    rep = vanishing_set(witten, [parse_polynomial("x", witten)], grid)
    assert len(rep.roots) == 27
    assert len(rep.degenerate) == 24


def test_weyl_pair_makes_every_point_degenerate(weyl_z):
    """y*(x-a) - (x-a)*y = -1 puts a unit in every point ideal."""
    for coords in ([0, 0, 0], [1, 0, 0], [2, -1, 3]):
        h = point_ideal(weyl_z, Point.of(weyl_z, coords)).handle
        assert h.status == "unit"


# -- closure properties of vanishing sets (smoke; the full randomized suite
#    is exercised by the acceptance module) ----------------------------------


def test_sum_of_roots_is_root(qplane_gf5, rng):
    pres = qplane_gf5
    Z = Point.of(pres, [0, 3])
    handle = point_ideal(pres, Z).handle
    for _ in range(20):
        f = random_polynomial(pres, rng, 3)
        g = random_polynomial(pres, rng, 3)
        if is_member_left(f, handle) == "yes" and is_member_left(g, handle) == "yes":
            assert is_member_left(f + g, handle) == "yes"


def test_sandwiching_products_keep_roots(qplane_gf5, rng):
    pres = qplane_gf5
    dom = SearchDomain.full_prime_field()
    f = parse_polynomial("x", pres)
    Vf = {p.coords for p in vanishing_set(pres, [f], dom).roots}
    for _ in range(5):
        g = random_polynomial(pres, rng, 2)
        h = random_polynomial(pres, rng, 2)
        gfh = multiply(multiply(g, f), h)
        Vgfh = {p.coords for p in vanishing_set(pres, [gfh], dom).roots}
        assert Vf <= Vgfh


# -- evaluation against the saturation oracle ---------------------------------


@pytest.fixture(scope="module")
def gf5_affine3():
    """A GF(5) 3-space with linear and constant relation terms."""
    pres = load_presentation(
        "field: gf:5\nvars: x, y, z\nrelation: y*x = 4*x*y + 1\n"
        "relation: z*x = 4*x*z + y\nrelation: z*y = 4*y*z + 4*x\n"
    )
    assert check_pbw_consistency(pres, 4).consistent
    return pres


def _saturated(pres, Z):
    return two_sided_saturate(geometry.point_generators(pres, Z))


def _test_points(pres, rng):
    """Random points over small values, plus two points on each axis: on
    the x-axis of a sigma-twisted plane only sigma makes a point degenerate."""
    field = pres.field
    values = [field.from_int(k) for k in (0, 0, 1, -1, 2, 3)]
    if field.primitive() is not None:
        values.append(field.primitive())
    points = {Point(tuple(rng.choice(values) for _ in range(pres.n))) for _ in range(12)}
    for i in range(pres.n):
        for v in values[2:4]:
            points.add(Point(tuple(v if k == i else field.zero for k in range(pres.n))))
    return points


@pytest.mark.parametrize("name", SHIPPED + ["conj_qplane", "gf5_affine3"])
def test_points_agree_with_saturation(name, request):
    """point_ideal writes down the basis that saturating x_i - z_i reaches,
    and is_root agrees with membership in that saturation, at degenerate
    and character points alike."""
    if name.endswith(".alg"):
        pres = load_presentation_file(algebra_path(name))
    else:
        pres = request.getfixturevalue(name)
    rng = random.Random(name)
    points = _test_points(pres, rng)
    if name == "gf5_affine3":
        # characters: 3xy + 1 = 3xz + y = 3yz + 4x = 0 (mod 5)
        points |= {Point.of(pres, [1, 3, 4]), Point.of(pres, [2, 4, 1])}
    statuses = set()
    for Z in sorted(points, key=repr):
        oracle = _saturated(pres, Z)
        handle = point_ideal(pres, Z).handle
        statuses.add(oracle.status)
        assert (handle.status, handle.basis, handle.note) == (
            oracle.status, oracle.basis, oracle.note
        ), f"{name} at {Z}"
        assert geometry.is_character(pres, Z) == (oracle.status == "proper")
        for _ in range(6):
            f = random_polynomial(pres, rng, 3, 4)
            g, h = random_polynomial(pres, rng, 2, 2), random_polynomial(pres, rng, 1, 2)
            i = rng.randrange(pres.n)
            for p in (
                f,
                f - Polynomial.constant(pres, geometry.evaluate(f, Z)),
                multiply(multiply(g, geometry.point_generators(pres, Z)[i]), h),
            ):
                assert is_root(p, Z) == is_member_left(p, oracle), f"{p} at {Z}"
    if name in ("conj_qplane", "gf5_affine3", "qplane_m1.alg", "witten.alg"):
        assert statuses == {"proper", "unit"}


def test_vanishing_set_matches_saturation_per_point(qplane_gf5, rng):
    pres = qplane_gf5
    polys = [parse_polynomial("x*y", pres), random_polynomial(pres, rng, 3, 3)]
    for gens in ([polys[0]], polys):
        rep = vanishing_set(pres, gens, SearchDomain.full_prime_field())
        table = {p.coords: tag for p, tag in rep.table()}
        assert len(table) == 25 and not rep.unknown
        for Z in SearchDomain.full_prime_field().points(pres):
            oracle = _saturated(pres, Z)
            if oracle.status == "unit":
                expected = "degenerate"
            elif all(is_member_left(f, oracle) == "yes" for f in gens):
                expected = "root"
            else:
                expected = "non-root"
            assert table[Z.coords] == expected, f"{Z}"
