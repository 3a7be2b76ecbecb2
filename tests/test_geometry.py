"""Point ideals, roots, vanishing sets, ideals of points, witnesses."""

import pytest

from skewpbw import geometry
from skewpbw.geometry import (
    GeometryError,
    Point,
    SearchDomain,
    algebraic_witness,
    classify_hypersurface,
    ideal_of_points,
    is_root,
    point_ideal,
    random_polynomial,
    semiprime_probe,
    vanishing_set,
)
from skewpbw.groebner import Budget, is_member_left, left_groebner
from skewpbw.linalg import in_row_span, rank
from skewpbw.poly import Polynomial, multiply, parse_polynomial
from skewpbw.presentation import quantum_plane
from skewpbw.scalars import FieldSpec, get_field
from oracles import span_rows, _vector


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


def test_ideal_of_points_budget_error(qplane_m1):
    pres = qplane_m1
    with pytest.raises(GeometryError):
        # unresolvable point under a starvation budget that blocks saturation
        pres._point_ideals.clear()
        ideal_of_points(
            pres,
            [Point.of(pres, [2, 3])],
            2,
            budget=Budget(max_degree=0, max_pairs=1, max_rounds=1),
        )
    pres._point_ideals.clear()


def test_algebraic_witness_origin(qplane_m1):
    res = algebraic_witness(qplane_m1, [Point.of(qplane_m1, [0, 0])])
    assert str(res.witness) == "x + y"


def test_algebraic_witness_two_points(comm2):
    pts = [Point.of(comm2, [0, 0]), Point.of(comm2, [1, 1])]
    res = algebraic_witness(comm2, pts)
    assert res.witness is not None
    for Z in pts:
        assert is_root(res.witness, Z) == "yes"
    # the witness is a left multiple of both hyperplane sums
    for coords in ([0, 0], [1, 1]):
        s = parse_polynomial("x + y", comm2) - Polynomial.constant(
            comm2, comm2.field.from_int(sum(coords))
        )
        assert is_member_left(res.witness, left_groebner([s])) == "yes"


def test_algebraic_witness_empty(comm2):
    res = algebraic_witness(comm2, [])
    assert str(res.witness) == "x + y"


def test_semiprime_probe_commutative(comm2):
    rep = semiprime_probe(comm2, Point.of(comm2, [0, 0]), samples=50, seed=3)
    assert rep.proper and rep.passed
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
    assert degenerate.proper is False and degenerate.passed


def test_classify_hypersurface(comm2, witten):
    t = classify_hypersurface(parse_polynomial("x + y - 1", comm2))
    assert t.tags == {"hypersurface", "plane-curve", "hyperplane", "line"}
    t3 = classify_hypersurface(parse_polynomial("x*y + z", witten))
    assert t3.tags == {"hypersurface"}
    none = classify_hypersurface(parse_polynomial("5", comm2))
    assert not none.tags and none.note


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
