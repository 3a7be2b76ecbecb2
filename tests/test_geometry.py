"""Point ideals, roots, vanishing sets, ideals of points, witnesses."""

import importlib
import os
import pkgutil
import random
import sys
from fractions import Fraction
from operator import le

import pytest

import skewpbw
from skewpbw import cli, geometry, groebner, linalg, nullstellensatz
from skewpbw.geometry import (
    Point,
    SearchDomain,
    algebraic_witness,
    ideal_of_points,
    is_root,
    is_character,
    point_ideal,
    vanishing_set,
)
from skewpbw.groebner import (
    Budget,
    intersect_left,
    is_member_left,
    left_groebner,
    two_sided_saturate,
)
from skewpbw.normality import is_normal
from skewpbw.poly import Polynomial, exponents_up_to, multiply, parse_polynomial
from skewpbw.presentation import (
    Presentation,
    check_pbw_consistency,
    extend_with_central,
    load_presentation,
    load_presentation_file,
    quantum_plane,
)
from skewpbw.scalars import FieldSpec, InputError, Scalar, get_field
from conftest import ALGEBRA_DIR, algebra_path
from documents import GF7SPACE, INLINE
from oracles import (
    _satisfies_relations,
    _vector,
    domain_points,
    in_row_span,
    naive_evaluate,
    naive_ideal_of_points,
    naive_witness,
    random_polynomial,
    random_scalar,
    rank,
    semiprime_probe,
    span_rows,
)
from test_scalars import ORACLE_SPECS


SHIPPED = sorted(f for f in os.listdir(ALGEBRA_DIR) if f.endswith(".alg"))


def grid(field, lo, hi):
    return SearchDomain.grid([[field.from_int(k) for k in range(lo, hi + 1)]])


def test_point_ideal_examples(qplane_m1, weyl_z, QQ):
    origin = Point.of(qplane_m1, [0, 0])
    assert is_character(qplane_m1, origin)
    assert set(map(str, point_ideal(qplane_m1, origin).basis)) == {"x", "y"}

    assert not is_character(qplane_m1, Point.of(qplane_m1, [1, 1]))
    assert not is_character(weyl_z, Point.of(weyl_z, [1, 0, 0]))


def test_is_root_examples(qplane_m1, weyl_z, comm2):
    x_minus_1 = parse_polynomial("x-1", qplane_m1)
    assert is_root(x_minus_1, Point.of(qplane_m1, [1, 0])) == "yes"
    assert is_root(parse_polynomial("x", comm2), Point.of(comm2, [1, 0])) == "no"
    assert is_root(Polynomial.one(weyl_z), Point.of(weyl_z, [1, 0, 0])) == "yes"


def test_character_test_is_built_once_per_presentation(monkeypatch, QQ):
    """is_character (so point_ideal and is_root), vanishing_set and
    ideal_of_points share one character test per presentation, built on
    first use. Two presentations over one field keep their own: (1, 1) is
    a character of the commutative plane and not of the q = -1 plane."""
    builds = []
    new_test = geometry._new_character_test
    monkeypatch.setattr(
        geometry, "_new_character_test", lambda p: builds.append(p) or new_test(p)
    )
    plane = quantum_plane(QQ, QQ.from_int(-1))
    ring = load_presentation("field: Q\nvars: x, y\n")
    answers = []
    for pres in (plane, ring):
        Z = Point.of(pres, [1, 1])
        f = parse_polynomial("x - y", pres)
        answers.append((
            is_character(pres, Z),
            is_root(f, Z),
            point_ideal(pres, Z).status,
            len(vanishing_set(pres, [f], grid(QQ, 0, 1)).degenerate),
            len(ideal_of_points(pres, [Z], 1)),
        ))
    assert builds == [plane, ring]
    assert answers == [(False, "yes", "unit", 1, 3), (True, "yes", "proper", 0, 2)]
    assert geometry._character_test(plane) is not geometry._character_test(ring)


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


@pytest.mark.parametrize(
    "texts", [["x^2*y + 3*x - y + 1"], ["x*y - 2", "x^3 + y^2 + x*y + 4"], []]
)
def test_vanishing_set_with_no_character_point(texts):
    """On Weyl algebras no point is a character, so every point of a
    domain is degenerate and a generator of several terms is summed at no
    point: each report, cold and warm, over the whole GF(5)^2 and a grid
    of Q^3, lists every point as a root, in domain order, and none as a
    non-root."""
    weyl_gf5 = load_presentation("field: gf:5\nvars: x, y\nrelation: y*x = x*y + 1\n")
    weyl_q = load_presentation_file(algebra_path("weyl_z.alg"))
    for pres, dom in (
        (weyl_gf5, SearchDomain.full_prime_field()),
        (weyl_q, grid(weyl_q.field, -1, 1)),
    ):
        polys = [parse_polynomial(t, pres) for t in texts]
        points = domain_points(dom, pres)
        for _ in range(2):
            rep = vanishing_set(pres, polys, dom)
            assert rep.roots == rep.degenerate == points
            assert not rep.non_roots and not rep.unknown


def test_full_prime_field_domain(qplane_gf5):
    dom = SearchDomain.full_prime_field()
    pts = domain_points(dom, qplane_gf5)
    assert len(pts) == 25
    rep = vanishing_set(qplane_gf5, [parse_polynomial("x", qplane_gf5)], dom)
    assert len(rep.roots) + len(rep.non_roots) == 25


def _report_coords(rep):
    return tuple(
        [Z.raw for Z in part] for part in (rep.roots, rep.non_roots, rep.degenerate, rep.unknown)
    )


def test_vanishing_set_domain_cache(GF5, monkeypatch):
    """One presentation keeps the character partition of the last domain:
    a warm call tests no point, a new domain replaces the entry, and two
    grids that list the same points share it; the whole field is keyed by
    itself, so a grid of all its points does not. The character test is
    built once, by the first call. Every report equals a fresh
    presentation's and agrees with is_root point by point."""
    pres = quantum_plane(GF5, GF5.from_int(2))
    lists = [["x - 1"], ["y^2 - 4*y", "x - 2"], [], ["x^3*y + 2*x - y^2"]]
    lists = [[parse_polynomial(t, pres) for t in ts] for ts in lists]
    full = SearchDomain.full_prime_field()
    grid_a = SearchDomain.grid([[0, 1, 2]])
    grid_a_scalars = SearchDomain.grid([[GF5.from_int(k) for k in (0, 1, 2)]])
    grid_b = SearchDomain.grid([[0, 3], [1, 2, 4]])
    whole_field = SearchDomain.grid([range(5)])
    # (domain, whether the call finds its partition cached)
    calls = [
        (full, False), (full, True), (whole_field, False),
        (grid_a, False), (grid_a_scalars, True), (grid_b, False),
        (grid_b, True), (grid_a_scalars, False), (full, False),
    ]
    builds, tests = [], []
    character_test = geometry._new_character_test

    def counting(p):
        builds.append(p)
        test = character_test(p)

        def counted(z):
            tests.append(z)
            return test(z)

        return counted

    for k, (domain, warm) in enumerate(calls):
        polys = lists[k % len(lists)]
        builds.clear()
        tests.clear()
        monkeypatch.setattr(geometry, "_new_character_test", counting)
        rep = vanishing_set(pres, polys, domain)
        monkeypatch.setattr(geometry, "_new_character_test", character_test)
        assert builds == ([pres] if k == 0 else []), k
        if warm:
            assert tests == [], k
        else:
            assert len(tests) == len(domain_points(domain, pres)), k
        assert len(pres._domain_partition) == 1

        fresh = quantum_plane(GF5, GF5.from_int(2))
        fresh_polys = [Polynomial.from_raw(fresh, f.raw) for f in polys]
        assert _report_coords(rep) == _report_coords(
            vanishing_set(fresh, fresh_polys, domain)
        ), k
        table = rep.table()
        assert len(table) == len(domain_points(domain, pres))
        for Z, tag in table:
            root = all(is_root(f, Z) == "yes" for f in polys)
            assert root == (tag in ("root", "degenerate")), (k, Z, tag)


def _partition(pres):
    """pres's one domain partition: (points, character positions, columns,
    degenerate points, kept monomial values)."""
    (entry,) = pres._domain_partition.values()
    return entry


def _seeded_lists(pres, domain, rng, count, degree=3):
    """count lists of one to three generators; the last of each vanishes
    at one seeded point of the domain, so that roots occur."""
    points = domain_points(domain, pres)
    lists = []
    for _ in range(count):
        polys = [random_polynomial(pres, rng, degree, 3) for _ in range(rng.randint(1, 2))]
        f = polys[-1]
        polys.append(f - Polynomial.constant(pres, naive_evaluate(f, rng.choice(points))))
        lists.append(polys)
    return lists


def _document(name):
    """The text of a shipped algebra, or name itself, a document."""
    if name.endswith(".alg"):
        with open(algebra_path(name), encoding="utf-8") as fh:
            return fh.read()
    return name


def _fresh_report(document, polys, domain):
    fresh = load_presentation(document)
    return _report_coords(
        vanishing_set(fresh, [Polynomial.from_raw(fresh, f.raw) for f in polys], domain)
    )


KEPT_VALUE_RUNS = {
    "gf7space": (GF7SPACE, SearchDomain.full_prime_field()),
    "qplane_m1": ("qplane_m1.alg", SearchDomain.grid([range(-2, 3)])),
    "commutative_xy": ("commutative_xy.alg", SearchDomain.grid([range(-3, 4), range(0, 5)])),
}


@pytest.mark.parametrize("name", KEPT_VALUE_RUNS)
def test_kept_values_give_a_fresh_presentations_answers(name):
    """Fifty seeded lists on one presentation, each report equal to that of
    a fresh presentation, which keeps no values. The kept values hold
    every monomial the run asked for, so a warm call walks only new ones."""
    document, domain = KEPT_VALUE_RUNS[name]
    document = _document(document)
    pres = load_presentation(document)
    asked = set()
    for polys in _seeded_lists(pres, domain, random.Random(name), 50):
        rep = vanishing_set(pres, polys, domain)
        assert _report_coords(rep) == _fresh_report(document, polys, domain)
        asked.update(e for f in polys for e, _ in f.raw)
    assert asked <= set(_partition(pres)[-1])


def test_domain_change_drops_kept_values():
    """A new domain replaces the partition and its kept values: the values
    of the old domain's points are never read at the new one's, and
    returning to a domain starts again from x^0. What the walk keeps is
    the monomials asked for and divisors of them, which it climbed."""
    document = _document("qplane_m1.alg")
    pres = load_presentation(document)
    domains = [SearchDomain.grid([range(-2, 3)]), SearchDomain.grid([[0, 1], [3, 4, 5]])]
    rng = random.Random("domain change")
    for k in range(6):
        domain = domains[k % 2]
        polys = _seeded_lists(pres, domain, rng, 1)[0]
        before = pres._domain_partition.copy()
        rep = vanishing_set(pres, polys, domain)
        assert _report_coords(rep) == _fresh_report(document, polys, domain), k
        _, positions, _, _, kept = _partition(pres)
        assert all(kept is not entry[-1] for entry in before.values()), k
        asked = {e for f in polys for e, _ in f.raw}
        assert all(any(all(map(le, o, t)) for t in asked | {(0, 0)}) for o in kept), k
        assert all(len(v) == len(positions) for v in kept.values()), k


def _oracle_report(pres, polys, domain):
    """The report's lists from their definition, in domain order: a point
    that is no character is a degenerate root, and a character is a root
    when every generator's naive value there is zero."""
    roots, non_roots, degenerate = [], [], []
    for Z in domain_points(domain, pres):
        if not _satisfies_relations(pres, Z):
            degenerate.append(Z.raw)
        elif not all(naive_evaluate(f, Z).is_zero() for f in polys):
            non_roots.append(Z.raw)
            continue
        roots.append(Z.raw)
    return roots, non_roots, degenerate, []


ORDER_RUNS = {  # a domain, a generator some characters kill, and one all do
    # every point a character, so no point is degenerate
    "commutative_xy": (
        "commutative_xy.alg", SearchDomain.grid([range(-3, 4), range(0, 5)]),
        "x^2 - y", "x*(x^2 - 1)*(x^2 - 4)*(x^2 - 9)",
    ),
    # 19 characters, on the axes, among 343 points
    "gf7space": (GF7SPACE, SearchDomain.full_prime_field(), "x + y + z - 1", "x*y"),
}


@pytest.mark.parametrize("name", ORDER_RUNS)
def test_roots_merge_in_domain_order(name):
    """Warm and fresh reports list their roots, non-roots and degenerate
    points in domain order, as the oracle does, when no character point
    vanishes (1), when some do (seeded lists and one more polynomial) and
    when all do (0, and a product that every character kills)."""
    document, domain, some, every = ORDER_RUNS[name]
    document = _document(document)
    pres = load_presentation(document)
    rng = random.Random(name)
    cases = [[Polynomial.one(pres)], [parse_polynomial(some, pres)], [], [Polynomial.zero(pres)]]
    cases.append([parse_polynomial(every, pres)])
    seeded = _seeded_lists(pres, domain, rng, 6)
    cases += seeded + [polys[-1:] for polys in seeded]
    vanishing = []
    for k, polys in enumerate(cases):
        expected = roots, non_roots, degenerate, _ = _oracle_report(pres, polys, domain)
        assert _report_coords(vanishing_set(pres, polys, domain)) == expected, k
        assert _fresh_report(document, polys, domain) == expected, k
        vanishing.append("all" if not non_roots else len(roots) > len(degenerate))
    assert vanishing[:5] == [False, True, "all", "all", "all"]
    assert vanishing.count(True) >= 7


@pytest.mark.parametrize("name", ["qplane_m1.alg", "weyl_z.alg"])
def test_kept_values_stay_bounded(monkeypatch, name):
    """Past MAX_DOMAIN_POINTS values the kept values are dropped, so between
    calls a presentation keeps at most that many; a monomial counts once
    when no point is a character (weyl_z has none), so the keys are
    bounded too. The answers do not change."""
    limit = 40
    monkeypatch.setattr(geometry, "MAX_DOMAIN_POINTS", limit)
    document = _document(name)
    pres = load_presentation(document)
    domain = SearchDomain.grid([range(-1, 2)])
    sizes = []
    for polys in _seeded_lists(pres, domain, random.Random(name), 30, degree=6):
        rep = vanishing_set(pres, polys, domain)
        assert _report_coords(rep) == _fresh_report(document, polys, domain)
        _, positions, _, _, kept = _partition(pres)
        assert len(kept) * max(len(positions), 1) <= limit
        sizes.append(len(kept))
    assert max(sizes) > 1 and min(sizes) == 0  # values were kept, and dropped


def _counting_scalars(monkeypatch) -> list:
    """The raw values of the Scalars built from now on, in order."""
    init, built = Scalar.__init__, []

    def counted_init(self, field, value):
        built.append(value)
        init(self, field, value)

    monkeypatch.setattr(Scalar, "__init__", counted_init)
    return built


def test_cold_vanishing_set_builds_no_scalar(monkeypatch):
    """A cold call over GF(7)^3 builds each Point from the raw tuple the
    character test reads, and no Scalar."""
    pres = load_presentation(GF7SPACE)
    polys = [parse_polynomial(t, pres) for t in ("x*y - z", "y^2*z - 3*x")]
    domain = SearchDomain.full_prime_field()
    expected = _fresh_report(GF7SPACE, polys, domain)
    built = _counting_scalars(monkeypatch)
    rep = vanishing_set(pres, polys, domain)
    assert built == []
    assert _report_coords(rep) == expected


def test_warm_vanishing_set_builds_no_scalar(monkeypatch):
    """A grid's partition is keyed by its raw columns, and the whole
    field's by None: Points are built once for the whole field and once
    for `grid([range(7)])`, not on a warm call nor for another grid that
    lists the same points, and a whole-field call builds no Scalar."""
    pres = load_presentation(GF7SPACE)
    polys = [parse_polynomial(t, pres) for t in ("x*y - z", "y^2*z - 3*x")]
    domains = [
        SearchDomain.full_prime_field(), SearchDomain.full_prime_field(),
        SearchDomain.grid([range(7)]), SearchDomain.grid([range(7)] * 3),
    ]
    expected = [_fresh_report(GF7SPACE, polys, domain) for domain in domains]
    points, calls = geometry._points, []

    def counted_points(field, raw):
        calls.append(field)
        return points(field, raw)

    monkeypatch.setattr(geometry, "_points", counted_points)
    built = _counting_scalars(monkeypatch)
    for k, domain in enumerate(domains + domains[:1]):
        built.clear()
        rep = vanishing_set(pres, polys, domain)
        assert len(calls) == [1, 1, 2, 2, 3][k], k
        if domain.columns is None:
            assert built == [], k
        assert _report_coords(rep) == expected[k % len(domains)], k


def test_warm_full_field_call_builds_no_columns(monkeypatch):
    """A warm call over the whole prime field finds its partition without
    building raw columns; a cold one builds them once. A grid of the same
    points is keyed by its raw columns, not by None, so each change
    between the two builds a new partition."""
    pres = load_presentation(GF7SPACE)
    polys = [parse_polynomial("x*y - z", pres)]
    full, same = SearchDomain.full_prime_field(), SearchDomain.grid([range(7)])
    expected = _fresh_report(GF7SPACE, polys, full)
    raw_columns, built, points, partitions = SearchDomain._raw_columns, [], geometry._points, []

    def counted_columns(domain, pres):
        built.append(domain)
        return raw_columns(domain, pres)

    def counted_points(field, raw):
        partitions.append(field)
        return points(field, raw)

    monkeypatch.setattr(SearchDomain, "_raw_columns", counted_columns)
    monkeypatch.setattr(geometry, "_points", counted_points)
    counts = []
    for domain in (same, full, full, same, full):
        built.clear()
        assert _report_coords(vanishing_set(pres, polys, domain)) == expected
        counts.append(len(built))
    assert counts == [1, 1, 0, 1, 1]
    assert len(partitions) == 4


def test_cli_domain_builds_no_scalar(monkeypatch):
    """The CLI checks a domain through its raw columns: reading `gf` on a
    one-variable gf:32003 presentation builds no Scalar, and a domain that
    does not fit is still refused with the same message."""
    pres = load_presentation("field: gf:32003\nvars: x\n")
    built = _counting_scalars(monkeypatch)
    assert cli._domain("gf", pres) == SearchDomain.full_prime_field()
    assert built == []
    with pytest.raises(InputError, match="grid arity does not match the presentation"):
        cli._domain("grid:0..2;0..2", pres)


@pytest.mark.parametrize("text", ["1", "x", "x*y - z"])
def test_reports_share_no_list_with_the_partition(text):
    """Clearing or appending to one report's lists changes no later report:
    each warm report equals a fresh presentation's, when no character
    point vanishes (1) and when some do."""
    pres = load_presentation(GF7SPACE)
    domain = SearchDomain.full_prime_field()
    polys = [parse_polynomial(text, pres)]
    expected = _fresh_report(GF7SPACE, polys, domain)
    extra = Point.of(pres, (1, 2, 3))
    for edit in (list.clear, list.clear, lambda part: part.append(extra)):
        rep = vanishing_set(pres, polys, domain)
        assert _report_coords(rep) == expected
        for part in (rep.roots, rep.non_roots, rep.degenerate):
            edit(part)
    assert _report_coords(vanishing_set(pres, polys, domain)) == expected


def test_search_domain_size_guard(qplane_gf5, monkeypatch):
    """The count is checked before any point is built: enumerating 10^12
    points of GF(1000003)^2 would not end."""
    F = get_field(FieldSpec.prime(1_000_003))
    big = quantum_plane(F, F.from_int(2))
    with pytest.raises(InputError, match="1000006000009 points, above the limit of 100000"):
        domain_points(SearchDomain.full_prime_field(), big)
    monkeypatch.setattr(geometry, "MAX_DOMAIN_POINTS", 24)
    with pytest.raises(InputError, match="25 points, above the limit of 24"):
        domain_points(SearchDomain.full_prime_field(), qplane_gf5)
    col = [qplane_gf5.field.from_int(k) for k in range(6)]
    assert len(domain_points(SearchDomain.grid([col[:4], col]), qplane_gf5)) == 24
    with pytest.raises(InputError, match="36 points"):
        domain_points(SearchDomain.grid([col]), qplane_gf5)


def test_empty_grid_column_is_refused(qplane_gf5):
    """A grid with no values for some coordinate has no points; it is
    refused by name, not searched as an empty domain."""
    col = [qplane_gf5.field.from_int(k) for k in range(3)]
    for columns, i in (([col, []], 2), ([[], col], 1), ([[]], 1)):
        with pytest.raises(InputError, match=f"^grid has no values for coordinate {i}$"):
            domain_points(SearchDomain.grid(columns), qplane_gf5)


@pytest.mark.parametrize(
    "entry",
    ["evaluate", "is_root", "point_ideal", "is_character", "vanishing_set",
     "ideal_of_points", "algebraic_witness", "commutative_points_ideal"],
)
def test_inputs_of_another_presentation_are_refused(
    entry, witten, comm2, qplane_m1, qplane_gf5
):
    """A point needs one coordinate per variable, each in the presentation's
    field, and a generator must be over the presentation. Otherwise the
    answer is about no algebra at all: x*y*z + 1 on witten would evaluate
    to 2 at (1, 1), ideal_of_points would give [1, x, y, z], qplane_m1's x
    would tag (1, 1) of the commutative plane a non-root, and a GF(5)
    generator over Q would end in a TypeError. commutative_points_ideal
    checks its points the same way, on the plane."""
    f = parse_polynomial("x*y*z + 1", witten)
    domain = SearchDomain.grid([range(2)])
    calls = {
        "evaluate": lambda Z: geometry.evaluate(f, Z),
        "is_root": lambda Z: is_root(f, Z),
        "point_ideal": lambda Z: point_ideal(witten, Z),
        "is_character": lambda Z: is_character(witten, Z),
        "ideal_of_points": lambda Z: ideal_of_points(witten, [Z], 1),
        "algebraic_witness": lambda Z: algebraic_witness(witten, [Z]),
        "commutative_points_ideal": lambda Z: geometry.commutative_points_ideal(
            comm2, [Z]
        ),
        "vanishing_set": lambda pres: vanishing_set(
            comm2, [parse_polynomial("x", pres)], domain
        ),
    }
    if entry == "vanishing_set":
        cases = [(qplane_m1, "another presentation"), (qplane_gf5, "another presentation")]
    elif entry == "commutative_points_ideal":
        cases = [
            (Point.of(witten, [1, 2, 3]), "point has 3 coordinates, presentation has 2"),
            (Point.of(qplane_gf5, [1, 1]), "coordinate outside Q"),
        ]
    else:
        cases = [
            (Point.of(comm2, [1, 1]), "point has 2 coordinates, presentation has 3"),
            (Point((1, 1, 1), qplane_gf5.field), "coordinate outside Q"),
        ]
    for arg, message in cases:
        with pytest.raises(InputError, match=message):
            calls[entry](arg)


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
    handle = point_ideal(pres, Z)
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
    handle = point_ideal(pres, Z)
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


# x is twisted, so its characters are the points of the y-axis
CYCLOTOMIC5_PLANE = (
    "field: cyclotomic:5\nvars: x, y\nsigma: x = galois:2\nrelation: y*x = z*x*y\n"
)


def _point_sets(pres, rng):
    """Seeded point sets over small values: the empty set first, then sets
    of up to five points, some of them repeated, many coordinates 0."""
    field = pres.field
    values = [field.from_int(k) for k in (0, 0, 0, 1, -1, 2, 3)]
    if field.primitive() is not None:
        values += [field.zero, field.primitive()]
    sets = [[]]
    for _ in range(11):
        points = [Point.of(pres, (rng.choice(values) for _ in range(pres.n)))]
        for _ in range(rng.randrange(5)):
            points.append(rng.choice(points) if rng.random() < 0.25 else
                          Point.of(pres, (rng.choice(values) for _ in range(pres.n))))
        sets.append(points)
    return sets


@pytest.mark.parametrize("name", SHIPPED + ["cyclotomic5_plane"])
def test_ideal_of_points_matches_evaluation_matrix_oracle(name):
    """ideal_of_points equals, element for element and in order, the
    relations read off the reduced evaluation matrix on Scalars, for every
    d <= 4, with repeated, non-character and no points."""
    if name.endswith(".alg"):
        pres = load_presentation_file(algebra_path(name))
    else:
        pres = load_presentation(CYCLOTOMIC5_PLANE)
    characters, repeated = set(), 0
    for points in _point_sets(pres, random.Random(name)):
        characters.update(geometry.is_character(pres, Z) for Z in points)
        repeated += len(set(points)) < len(points)
        for d in range(5):
            expected = naive_ideal_of_points(pres, points, d)
            got = ideal_of_points(pres, points, d)
            assert [str(g) for g in got] == [str(g) for g in expected], (points, d)
            assert got == expected
    assert repeated
    # every point of the commutative plane is a character, and weyl_z has
    # none: z_y*z_x = z_x*z_y - 1 has no solution
    assert characters == {"commutative_xy.alg": {True}, "weyl_z.alg": {False}}.get(
        name, {True, False}
    )


def test_no_library_code_calls_nullspace(monkeypatch, qplane_m1, QQ):
    """`linalg.nullspace` stays for the benchmark's tracer only: with it
    raising, ideals of points, the sandwich and the README CLI examples
    run unchanged, and no module of the package binds the name."""
    for info in pkgutil.iter_modules(skewpbw.__path__):
        if info.name not in ("__main__", "linalg"):
            module = importlib.import_module(f"skewpbw.{info.name}")
            assert "nullspace" not in vars(module), info.name

    def boom(*args, **kwargs):
        raise AssertionError("linalg.nullspace called")

    monkeypatch.setattr(linalg, "nullspace", boom)
    pres = load_presentation(CYCLOTOMIC5_PLANE)
    points = [Point.of(pres, [0, 2]), Point.of(pres, [1, 1]), Point.of(pres, [0, 2])]
    assert [str(g) for g in ideal_of_points(pres, points, 2)] == [
        "x", "y - 2", "x^2", "x*y", "y^2 - 4"
    ]
    C = nullstellensatz.center_generators(qplane_m1)
    I = two_sided_saturate([parse_polynomial("x^4", qplane_m1)])
    rep = nullstellensatz.verify_sandwich(I, C, grid(QQ, -2, 2), 4, 4)
    assert rep.inclusion_radical == "confirmed"
    monkeypatch.syspath_prepend(os.path.join(ALGEBRA_DIR, "..", "perfbench"))
    monkeypatch.chdir(os.path.join(ALGEBRA_DIR, ".."))
    import cli_capture
    assert cli_capture.capture() == cli_capture.expected()


def test_every_evaluation_reads_the_one_value_walk(monkeypatch, qplane_m1, QQ):
    """`evaluate`, `vanishing_set` (cold and warm), `ideal_of_points` and
    `commutative_points_ideal` each compute monomial values through
    `geometry._monomial_values`, so a second walk fails here; the
    sandwich's points ideal is the same function. Its points are no box,
    since the ideal of a box is written down without values."""
    assert nullstellensatz.commutative_points_ideal is geometry.commutative_points_ideal
    for gone in ("_power_table", "_top_degrees", "_sparse_terms"):
        assert not hasattr(geometry, gone), gone
    walk = geometry._monomial_values
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return walk(*args, **kwargs)

    monkeypatch.setattr(geometry, "_monomial_values", counted)
    f = parse_polynomial("x^2*y - y + 3", qplane_m1)
    Z = Point.of(qplane_m1, [0, 3])
    comm = load_presentation("field: Q\nvars: u, v\n")
    runs = {
        "evaluate": lambda: geometry.evaluate(f, Z),
        "is_root": lambda: is_root(f, Z),
        "vanishing_set cold": lambda: vanishing_set(qplane_m1, [f], grid(QQ, -3, 3)),
        "vanishing_set warm": lambda: vanishing_set(qplane_m1, [f, f], grid(QQ, -3, 3)),
        "ideal_of_points": lambda: ideal_of_points(qplane_m1, [Z], 2),
        "commutative_points_ideal": lambda: geometry.commutative_points_ideal(
            comm, [Point.of(comm, [1, 0]), Point.of(comm, [0, 1])]
        ),
    }
    for name, run in runs.items():
        calls.clear()
        run()
        assert calls, name


@pytest.mark.parametrize("field_spec", ["gf:7", "Q"])
def test_value_walk_is_a_loop(field_spec):
    """x^3000 is 3000 steps of one loop, not 3000 nested calls: evaluate,
    is_root and a vanishing set of x^3000 - 1 run under the default
    recursion limit, and agree with Scalar powers (and Fermat over GF(7),
    where 6 divides 3000)."""
    assert sys.getrecursionlimit() < 3000
    pres = load_presentation(f"field: {field_spec}\nvars: x, y\nrelation: y*x = -x*y\n")
    field = pres.field
    big = Polynomial.monomial(pres, (3000, 1))
    x_big = Polynomial.monomial(pres, (3000, 0)) - Polynomial.one(pres)
    for coords in ([2, 5], [-3, 0], [0, 4]):
        Z = Point.of(pres, coords)
        zx, zy = Z.coords
        expected = zx ** 3000 * zy
        if field_spec == "gf:7":
            assert expected == (zy if not zx.is_zero() else field.zero)
        assert geometry.evaluate(big, Z) == expected
        root = not is_character(pres, Z) or (zx ** 3000 - field.one).is_zero()
        assert is_root(x_big, Z) == ("yes" if root else "no")
    domain = grid(field, -2, 2)
    rep = vanishing_set(pres, [x_big], domain)
    tags = {Z.coords: tag for Z, tag in rep.table()}
    for Z in domain_points(domain, pres):
        zx = Z.coords[0]
        if not is_character(pres, Z):
            assert tags[Z.coords] == "degenerate"
        else:
            root = (zx ** 3000 - field.one).is_zero()
            assert tags[Z.coords] == ("root" if root else "non-root"), Z
    expected_roots = 4 if field_spec == "gf:7" else 2  # nonzero x on the x-axis
    assert len([t for t in tags.values() if t == "root"]) == expected_roots


def _exponent_runs(n, rng):
    """Named lists of exponents: every monomial up to degree 3 ascending,
    descending and shuffled; sparse seeded monomials up to degree 12; and
    long powers among one low monomial."""
    dense = exponents_up_to(n, 3)
    shuffled = dense[:]
    rng.shuffle(shuffled)
    sparse = [tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(6)]
    long = [(0,) * (n - 1) + (40,), (37,) + (1,) * (n - 1), (1,) * n, (64,) + (0,) * (n - 1)]
    return {
        "ascending": dense, "descending": dense[::-1], "shuffled": shuffled,
        "sparse": sparse, "long": long,
    }


@pytest.mark.parametrize("name", sorted(INLINE))
def test_value_walk_matches_naive_evaluation(name):
    """Seeded runs of `_monomial_values` at one point and at five, with
    exponents ascending, descending, shuffled, sparse and long, each on a
    new dict and on one dict that every run extends, as a kept dict is:
    every value equals the naive power product. What a dict holds is the
    monomials asked for and divisors of them, and a long power takes at
    most 2 log2 products per exponent."""
    pres = load_presentation(INLINE[name])
    field, n = pres.field, pres.n
    rng = random.Random(name)
    runs = _exponent_runs(n, rng)
    for count in (1, 5):
        raw = [tuple(random_scalar(field, rng).value for _ in range(n)) for _ in range(count)]
        columns = [[z[i] for z in raw] for i in range(n)]
        points = [Point(z, field) for z in raw]
        kept, asked, products = {}, set(), []

        class Counting:  # the field, counting its vector products
            raw_one = field.raw_one

            @staticmethod
            def raw_products(a, b):
                products.append(None)
                return field.raw_products(a, b)

        for run, exps in runs.items():
            products.clear()
            fresh = geometry._monomial_values(Counting, columns, count, exps)
            if run == "long":
                assert 0 < len(products) <= sum(2 * d.bit_length() for t in exps for d in t)
            geometry._monomial_values(field, columns, count, exps, kept)
            for values in (fresh, kept):
                for t in exps:
                    f = Polynomial.monomial(pres, t)
                    assert values[t] == [naive_evaluate(f, Z).value for Z in points], (run, t)
            asked.update(exps)
            assert all(any(all(map(le, o, t)) for t in asked) for o in kept), run


def _oracle_presentation(name, request):
    if name.endswith(".alg"):
        return load_presentation_file(algebra_path(name))
    if name == "cyclotomic5_plane":
        return load_presentation(CYCLOTOMIC5_PLANE)
    return request.getfixturevalue(name)


@pytest.mark.parametrize("name", SHIPPED + ["gf7_qspace3", "cyclotomic5_plane"])
def test_evaluation_matches_naive_oracle(name, request):
    """evaluate and the vanishing-set partition agree with sums of Scalar
    powers at every point of seeded domains, over GF(5), GF(7), Q, Q(i) and
    Q(zeta5): character and non-character points, an empty generator list,
    and domains with no character point."""
    pres = _oracle_presentation(name, request)
    field = pres.field
    rng = random.Random(name)
    values = [field.from_int(k) for k in (0, 1, -1, 2)]
    if field.primitive() is not None:
        values.append(field.primitive())
    domains = [SearchDomain.grid([values]), SearchDomain.grid([values[1:3]])]
    character_counts = set()
    for k in range(6):
        domain = domains[k % 2]
        points = domain_points(domain, pres)
        polys = [random_polynomial(pres, rng, 3, 4) for _ in range(k % 3)]
        if polys:
            # a generator that vanishes at one seeded point
            Z = rng.choice(points)
            polys.append(polys[0] - Polynomial.constant(pres, naive_evaluate(polys[0], Z)))
        for f in polys:
            for Z in points:
                assert geometry.evaluate(f, Z) == naive_evaluate(f, Z), (f, Z)
        rep = vanishing_set(pres, polys, domain)
        expected = []
        for Z in points:
            if not _satisfies_relations(pres, Z):
                expected.append((Z, "degenerate"))
            elif all(naive_evaluate(f, Z).is_zero() for f in polys):
                expected.append((Z, "root"))
            else:
                expected.append((Z, "non-root"))
        assert sorted(rep.table(), key=repr) == sorted(expected, key=repr), k
        assert rep.roots == [Z for Z, tag in expected if tag != "non-root"]
        assert rep.non_roots == [Z for Z, tag in expected if tag == "non-root"]
        character_counts.add(sum(tag != "degenerate" for _, tag in expected))
    if name == "commutative_xy.alg":
        assert 0 not in character_counts  # every point is a character
    else:
        assert 0 in character_counts
    assert (max(character_counts) == 0) == (name == "weyl_z.alg")


@pytest.mark.parametrize("spec", ["gf:7", "Q", "Q(i)", "cyclotomic:5"])
def test_commutative_points_ideal_of_none_one_and_repeated_points(spec):
    """No points give [1], one point gives the x_i - z_i ascending by lead,
    and a repeated point counts once."""
    pres = load_presentation(f"field: {spec}\nvars: u, v, w\n")
    field = pres.field
    rng = random.Random(spec)
    assert geometry.commutative_points_ideal(pres, []) == [Polynomial.one(pres)]
    for _ in range(4):
        z = Point.of(pres, [random_scalar(field, rng) for _ in range(pres.n)])
        expected = [
            Polynomial.variable(pres, i) - Polynomial.constant(pres, z.coords[i])
            for i in reversed(range(pres.n))
        ]
        assert geometry.commutative_points_ideal(pres, [z]) == expected
        assert geometry.commutative_points_ideal(pres, [z, z, z]) == expected
        others = [
            Point.of(pres, [random_scalar(field, rng) for _ in range(pres.n)]) for _ in range(3)
        ]
        once = geometry.commutative_points_ideal(pres, others + [z])
        assert geometry.commutative_points_ideal(pres, [z] + others + [z, others[0]]) == once


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


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_points_keep_raw_values_and_print_their_scalars(spec):
    """A Point holds raw values and its field; `coords` gives back the
    Scalars it was built from, `Point.of` of them gives an equal Point
    with an equal hash, and it prints them in parentheses."""
    field = get_field(FieldSpec.from_string(spec))
    pres = Presentation(field, ("u", "v", "w"))
    rng = random.Random(spec)
    for _ in range(4):
        values = tuple(random_scalar(field, rng) for _ in range(pres.n))
        Z = Point.of(pres, values)
        assert Z.raw == tuple(c.value for c in values) and Z.field is field
        assert Z.coords == values
        assert Point.of(pres, Z.coords) == Z and hash(Point.of(pres, Z.coords)) == hash(Z)
        assert repr(Z) == str(Z) == "(" + ", ".join(str(c) for c in values) + ")"


def test_points_of_two_fields_with_equal_raw_values_differ():
    """(1, 2) over GF(5) and over GF(7) have equal raw values, yet they are
    different points, and each field's routines refuse the other's."""
    planes = {p: load_presentation(f"field: gf:{p}\nvars: x, y\n") for p in (5, 7)}
    points = {p: Point.of(pres, [1, 2]) for p, pres in planes.items()}
    assert points[5].raw == points[7].raw
    assert points[5] != points[7] and len(set(points.values())) == 2
    for p, q in ((5, 7), (7, 5)):
        pres, Z = planes[p], points[q]
        f = parse_polynomial("x - 1", pres)
        calls = [
            lambda: geometry.evaluate(f, Z), lambda: is_root(f, Z),
            lambda: is_character(pres, Z), lambda: point_ideal(pres, Z),
            lambda: ideal_of_points(pres, [Z], 1), lambda: algebraic_witness(pres, [Z]),
            lambda: geometry.commutative_points_ideal(pres, [Z]),
        ]
        for call in calls:
            with pytest.raises(InputError, match=f"coordinate outside gf:{p}$"):
                call()


def test_points_built_directly_refuse_raw_values_that_are_not_canonical():
    """On y*x = 2*x*y over GF(5), the raw value 5 would make (5, 1) a
    degenerate point, a root of x*y - 1, though it is (0, 1), where
    x*y - 1 is -1. So `Point`, `_replace` and `Point.of` of a Scalar built
    directly refuse it, and every other raw value that is not canonical,
    while `Point.of` reduces the int 5 and the answer is no."""
    pres = load_presentation("field: gf:5\nvars: x, y\nrelation: y*x = 2*x*y\n")
    assert is_root(parse_polynomial("x*y - 1", pres), Point.of(pres, [5, 1])) == "no"
    assert Point.of(pres, [5, 1]) == Point((0, 1), pres.field)
    Q, Qi = get_field(FieldSpec.rationals()), get_field(FieldSpec.gaussian())
    refused = [
        ((5, 1), pres.field), ((-1,), pres.field), ((True,), pres.field),
        ((1.0,), pres.field), (((1, 1),), pres.field),
        (((2, 4),), Q), (((1, -2),), Q), (((0, 0),), Q), ((1,), Q),
        (((1, 1),), Qi), (((2, 0, 2),), Qi), (((1, 0, 1.0),), Qi),
    ]
    for raw, field in refused:
        with pytest.raises(InputError, match="not a canonical raw value"):
            Point(raw, field)
    with pytest.raises(InputError, match="not a canonical raw value"):
        Point.of(pres, [1, 1])._replace(raw=(5, 1))
    with pytest.raises(InputError, match="not a canonical raw value"):
        Point.of(pres, [Scalar(pres.field, 5), 1])
    assert Point(((1, 2), (0, 1)), Q).coords == (Q.from_fraction(Fraction(1, 2)), Q.zero)
    three_minus_i_halves = (Qi.from_int(3) - Qi.primitive()) / Qi.from_int(2)
    assert Point(((3, -1, 2),), Qi) == Point.of(Presentation(Qi, ("u",)), [three_minus_i_halves])


def test_points_of_fractions_over_a_prime_field(qplane_gf5):
    """`Point.of` reduces a Fraction mod p, 1/2 to 3 over GF(5), and
    refuses one whose denominator p divides."""
    assert Point.of(qplane_gf5, [Fraction(1, 2), 0]) == Point((3, 0), qplane_gf5.field)
    with pytest.raises(InputError, match="^denominator 5 vanishes mod 5$"):
        Point.of(qplane_gf5, [Fraction(1, 5), 0])


def test_full_prime_field_domain_needs_a_prime_field(qplane_m1):
    with pytest.raises(
        InputError, match=r"^full-prime-field domain needs a GF\(p\) presentation$"
    ):
        vanishing_set(qplane_m1, [], SearchDomain.full_prime_field())


@pytest.mark.parametrize("spec", ["gf:5", "Q"])
def test_point_routines_on_the_space_of_no_coordinates(spec):
    """K^0 has one point, (), a character: A is K, so a constant is a root
    exactly when it is zero, the ideal of the point is 0 and that of no
    point is A, and no nonzero witness vanishes at the point."""
    field = get_field(FieldSpec.from_string(spec))
    pres = Presentation(field, ())
    Z = Point.of(pres, [])
    three, zero = Polynomial.constant(pres, field.from_int(3)), Polynomial.zero(pres)
    assert Z == Point((), field) and repr(Z) == "()" and Z.coords == ()
    assert exponents_up_to(0, 3) == [()]
    assert is_character(pres, Z) and point_ideal(pres, Z).basis == ()
    assert geometry.evaluate(three, Z) == 3 and geometry.evaluate(zero, Z) == 0
    assert (is_root(three, Z), is_root(zero, Z)) == ("no", "yes")
    domains = [SearchDomain.grid([])]
    if spec.startswith("gf"):
        domains.append(SearchDomain.full_prime_field())
    for domain in domains:
        assert domain_points(domain, pres) == [Z]
        for polys, roots in (([three], []), ([zero], [Z]), ([], [Z])):
            rep = vanishing_set(pres, polys, domain)
            assert rep.roots == roots and rep.non_roots == [Z][len(roots):]
            assert rep.degenerate == rep.unknown == []
    for d in range(3):
        assert ideal_of_points(pres, [Z], d) == []
        assert ideal_of_points(pres, [], d) == [Polynomial.one(pres)]
    assert geometry.commutative_points_ideal(pres, [Z, Z]) == []
    assert geometry.commutative_points_ideal(pres, []) == [Polynomial.one(pres)]
    assert algebraic_witness(pres, []).witness == Polynomial.one(pres)
    with pytest.raises(InputError, match="no nonzero polynomial vanishes"):
        algebraic_witness(pres, [Z])
    assert check_pbw_consistency(pres).consistent
    assert is_normal(three).status == "normal"


@pytest.fixture(scope="module")
def gf7_qspace3():
    """A GF(7) quantum 3-space: yx = 2xy, zx = 3xz, zy = 5yz."""
    return load_presentation(GF7SPACE)


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
            Point.of(pres, (rng.choice(values) for _ in range(pres.n))) for _ in range(k)
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
    assert semiprime_probe(comm2, Point.of(comm2, [0, 0]), samples=50, seed=3) == []


def test_semiprime_probe_spec_cases(comm2, qplane_m1):
    """x and x^2 lie in the ideal of the origin, x + 1 and its square do
    not; at the degenerate (1, 1) of y*x = -x*y the saturation is the whole
    ring, as `is_character` says, and the probe finds nothing."""
    Z = Point.of(comm2, [0, 0])
    handle = _saturated(comm2, Z)
    x = parse_polynomial("x", comm2)
    x1 = parse_polynomial("x+1", comm2)
    assert is_member_left(multiply(x, x), handle) == "yes"
    assert is_member_left(x, handle) == "yes"
    assert is_member_left(multiply(x1, x1), handle) == "no"
    assert is_member_left(x1, handle) == "no"

    degenerate = Point.of(qplane_m1, [1, 1])
    assert _saturated(qplane_m1, degenerate).status == "unit"
    assert not is_character(qplane_m1, degenerate)
    assert semiprime_probe(qplane_m1, degenerate, samples=20, seed=3) == []


def test_witten_proper_locus_is_z_axis(witten):
    """Saturation derives x and y from the commutators z*x - x*z = -x and
    z*y - y*z = 2y, so point ideals are proper exactly on the z-axis."""
    proper = Point.of(witten, [0, 0, 2])
    assert is_character(witten, proper)
    assert set(map(str, point_ideal(witten, proper).basis)) == {"x", "y", "z - 2"}
    for coords in ([1, 0, 0], [0, 1, 0], [1, 1, 1]):
        assert not is_character(witten, Point.of(witten, coords))
    # x vanishes on the whole grid: degenerate points plus the z-axis trace
    field = witten.field
    grid = SearchDomain.grid([[field.from_int(k) for k in (-1, 0, 1)]])
    rep = vanishing_set(witten, [parse_polynomial("x", witten)], grid)
    assert len(rep.roots) == 27
    assert len(rep.degenerate) == 24


def test_weyl_pair_makes_every_point_degenerate(weyl_z):
    """y*(x-a) - (x-a)*y = -1 puts a unit in every point ideal."""
    for coords in ([0, 0, 0], [1, 0, 0], [2, -1, 3]):
        assert not is_character(weyl_z, Point.of(weyl_z, coords))


# -- closure properties of vanishing sets (smoke; the full randomized suite
#    is exercised by the acceptance module) ----------------------------------


def test_sum_of_roots_is_root(qplane_gf5, rng):
    pres = qplane_gf5
    Z = Point.of(pres, [0, 3])
    handle = point_ideal(pres, Z)
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
    points = {Point.of(pres, (rng.choice(values) for _ in range(pres.n))) for _ in range(12)}
    for i in range(pres.n):
        for v in values[2:4]:
            points.add(Point.of(pres, (v if k == i else field.zero for k in range(pres.n))))
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
        handle = point_ideal(pres, Z)
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
        for Z in (Point.of(pres, [a, b]) for a in range(5) for b in range(5)):
            oracle = _saturated(pres, Z)
            if oracle.status == "unit":
                expected = "degenerate"
            elif all(is_member_left(f, oracle) == "yes" for f in gens):
                expected = "root"
            else:
                expected = "non-root"
            assert table[Z.coords] == expected, f"{Z}"
