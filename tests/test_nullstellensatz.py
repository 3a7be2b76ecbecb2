"""Centers, contraction, radical membership and the sandwich verifier."""

import inspect
import itertools
import math
import operator
import random
import re
import sys

import pytest

from conftest import algebra_path
from oracles import (
    block_contraction,
    brute_force_radical,
    first_central_in_box,
    naive_points_ideal,
    quantum_space,
    random_polynomial,
    random_scalar,
    rref,
)
from skewpbw import cli, groebner, nullstellensatz
from skewpbw.geometry import Point, SearchDomain, evaluate
from skewpbw.groebner import (
    Budget,
    divide,
    is_member_left,
    left_groebner,
    two_sided_saturate,
)
from skewpbw.normality import central_probe
from skewpbw.nullstellensatz import (
    center_generators,
    central_nilpotency,
    commutative_points_ideal,
    contract_to_center,
    multiplicative_order,
    radical_membership_commutative,
    verify_sandwich,
)
from skewpbw.poly import (
    Polynomial,
    divides,
    exponents_up_to,
    multiply,
    parse_polynomial,
)
from skewpbw.presentation import (
    Presentation,
    load_presentation,
    load_presentation_file,
    quantum_plane,
)
from skewpbw.scalars import FieldSpec, InputError, get_field


def qgrid(field, lo, hi):
    return SearchDomain.grid([[field.from_int(k) for k in range(lo, hi + 1)]])


# -- multiplicative orders and center cases ----------------------------------


def test_multiplicative_order(QQ, GF5):
    assert multiplicative_order(QQ.from_int(-1)) == 2
    assert multiplicative_order(QQ.from_int(2)) is None
    assert multiplicative_order(GF5.from_int(2)) == 4
    C4 = get_field(FieldSpec.cyclotomic(4))
    assert multiplicative_order(C4.primitive()) == 4


@pytest.mark.parametrize(
    "spec",
    [FieldSpec.rationals(), FieldSpec.gaussian()]
    + [FieldSpec.cyclotomic(m) for m in (3, 5, 6, 8, 12)],
    ids=str,
)
def test_number_field_order_matches_scan(spec):
    """Every root of unity +-z^j, whose order the bound lcm(2, m) must
    reach (-z in Q(z_5) has order 10), and a value that is none."""
    F = get_field(spec)
    z = F.primitive() or F.from_int(-1)
    for s in [z ** j for j in range(F.m)] + [-(z ** j) for j in range(F.m)]:
        scan = next(k for k in range(1, 2 * F.m + 1) if s ** k == F.one)
        assert multiplicative_order(s) == scan
    assert multiplicative_order(F.from_int(2) * z) is None


@pytest.mark.parametrize("p", [5, 7, 101])
def test_prime_field_order_matches_scan(p):
    F = get_field(FieldSpec.prime(p))
    for v in range(1, p):
        scan = next(k for k in range(1, p) if pow(v, k, p) == 1)
        assert multiplicative_order(F.from_int(v)) == scan


@pytest.mark.parametrize(
    "p, factors",
    [(1_000_003, (2, 3, 166667)), (2**61 - 1, (2, 3, 5, 7, 11, 13, 31, 41, 61, 151, 331, 1321))],
)
def test_prime_field_order_large_field(p, factors):
    """No scan: these orders are far too large to search for."""
    F = get_field(FieldSpec.prime(p))
    k = multiplicative_order(F.from_int(3))
    assert (p - 1) % k == 0 and pow(3, k, p) == 1
    # minimal: 3^(k/q) != 1 for each prime q dividing k (the primes of p - 1)
    assert all(pow(3, k // q, p) != 1 for q in factors if k % q == 0)
    assert multiplicative_order(F.from_int(p - 1)) == 2


@pytest.mark.parametrize("m", [2, 3, 4])
def test_center_quantum_plane_roots_of_unity(m):
    F = get_field(FieldSpec.cyclotomic(m))
    P = quantum_plane(F, F.primitive())
    C = center_generators(P)
    assert C.exponents == (m, m)
    assert [str(g) for g in C.generators] == [f"x^{m}", f"y^{m}"]
    for g in C.generators:
        assert central_probe(g)


def test_center_q_minus_one(qplane_m1):
    C = center_generators(qplane_m1)
    assert C.exponents == (2, 2)
    # centrality witness: y * x^2 = x^2 * y
    x2 = parse_polynomial("x^2", qplane_m1)
    y = parse_polynomial("y", qplane_m1)
    assert multiply(y, x2) == multiply(x2, y)


def test_center_commutative(comm2):
    C = center_generators(comm2)
    assert C.case == "commutative" and C.exponents == (1, 1)


def test_center_uniform_even(GF5):
    P = quantum_space(
        GF5,
        {(i, j): GF5.from_int(4) for i in range(4) for j in range(i + 1, 4)},
        ("a", "b", "c", "d"),
    )
    C = center_generators(P)
    assert C.case == "uniform" and C.exponents == (2, 2, 2, 2)


def test_center_refusals(witten, qspace3, GF5, QQ):
    with pytest.raises(InputError):
        center_generators(witten)  # not quasi-commutative
    with pytest.raises(InputError, match="root of unity"):
        center_generators(qspace3)  # 2i, 3i are not roots of unity
    with pytest.raises(InputError, match=r"a\*b\*c is central"):
        center_generators(
            quantum_space(
                QQ,
                {(i, j): QQ.from_int(-1) for i in range(3) for j in range(i + 1, 3)},
                ("a", "b", "c"),
            )
        )
    with pytest.raises(InputError, match=r"a\*c is central"):
        center_generators(
            quantum_space(
                GF5,
                {(0, 1): GF5.from_int(4), (0, 2): GF5.one, (1, 2): GF5.from_int(4)},
                ("a", "b", "c"),
            )
        )


def test_center_multiparametric_lcm(GF5):
    # orders: 4 (q=2), 2 (q=4), 4 (q=3); a^4, b^4, c^4 are central, but so
    # is a*b^2*c^3, so the center is not K[a^4, b^4, c^4]
    P = quantum_space(
        GF5,
        {(0, 1): GF5.from_int(2), (0, 2): GF5.from_int(4), (1, 2): GF5.from_int(3)},
        ("a", "b", "c"),
    )
    with pytest.raises(InputError, match=r"a\*b\^2\*c\^3 is central"):
        center_generators(P)
    assert central_probe(parse_polynomial("a*b^2*c^3", P))


def _pair_lcms(P):
    """lcm over the pairs at each variable of the constants' orders."""
    orders = {pair: multiplicative_order(rel.c) for pair, rel in P.relations.items()}
    return tuple(
        math.lcm(*(orders[min(i, j), max(i, j)] for j in range(P.n) if j != i))
        for i in range(P.n)
    )


def _roots_of_unity(F):
    if F.spec.kind == "gf":
        return [F.from_int(v) for v in range(1, F.spec.param)]
    gens = [F.from_int(-1)] + ([F.primitive()] if F.spec.kind == "cyclotomic" else [])
    if F.spec.kind == "Q(i)":
        gens.append(F.primitive())
    out = {F.one}
    for g in gens:
        out |= {r * g ** k for r in out for k in range(24)}
    return sorted(out, key=str)


_ORACLE_FIELDS = ["gf:5", "gf:7", "gf:11", "gf:13", "Q", "Q(i)",
                  "cyclotomic:3", "cyclotomic:5", "cyclotomic:12"]
# an accepted space costs prod L_i probes in the box scan, so 4-variable
# spaces are drawn over the fields with at most 6 roots of unity
_SMALL_GROUP_FIELDS = ["gf:5", "gf:7", "Q", "Q(i)", "cyclotomic:3"]


def test_center_rule_matches_box_scan():
    """Accept or refuse as a central_probe scan of prod [0, L_i) says, on
    seeded random quantum spaces with root-of-unity constants (1 included);
    an accepted center has the pair-order lcms as exponents, a refusal
    names the scan's first central monomial."""
    rng = random.Random(20261018)
    seen = {"accepted": 0, "refused": 0}
    for _ in range(120):
        n = rng.choice([2, 3, 4])
        spec = rng.choice(_ORACLE_FIELDS if n < 4 else _SMALL_GROUP_FIELDS)
        F = get_field(FieldSpec.from_string(spec))
        roots = _roots_of_unity(F)
        P = quantum_space(
            F,
            {(i, j): rng.choice(roots) for i in range(n) for j in range(i + 1, n)},
            ("a", "b", "c", "d")[:n],
        )
        L = _pair_lcms(P)
        alpha = first_central_in_box(P, L)
        if alpha is None:
            assert center_generators(P).exponents == L
            seen["accepted"] += 1
        else:
            extra = str(Polynomial.monomial(P, alpha))
            with pytest.raises(InputError, match=rf"^{re.escape(extra)} is central"):
                center_generators(P)
            seen["refused"] += 1
    assert min(seen.values()) >= 30


def _space(spec, names, constants):
    F = get_field(FieldSpec.from_string(spec))
    pairs = [(i, j) for i in range(len(names)) for j in range(i + 1, len(names))]
    return quantum_space(
        F, {p: F.from_int(c) for p, c in zip(pairs, constants)}, names
    )


@pytest.mark.parametrize(
    "spec, names, constants, extra",
    [
        ("gf:13", ("x", "y", "z"), (9, 5, 8), "x^3*y^3"),
        ("gf:7", ("x", "y", "z"), (2, 3, 5), "x*y*z^4"),  # gf7space
        ("Q", ("a", "b", "c"), (-1, -1, -1), "a*b*c"),
    ],
)
def test_center_refuses_extra_central_monomial(spec, names, constants, extra):
    P = _space(spec, names, constants)
    with pytest.raises(InputError, match=rf"^{re.escape(extra)} is central"):
        center_generators(P)
    assert central_probe(parse_polynomial(extra, P))


@pytest.mark.parametrize(
    "spec, names, constants, exponents",
    [
        ("Q", ("x", "y", "z"), (-1, 1, 1), (2, 2, 1)),
        ("gf:7", ("a", "b", "c", "d"), (2, 5, 3, 6, 4, 5), (6, 6, 6, 6)),
    ],
)
def test_center_accepts_polynomial_center(spec, names, constants, exponents):
    P = _space(spec, names, constants)
    C = center_generators(P)
    assert C.exponents == exponents and C.case == "multiparametric"
    assert first_central_in_box(P, exponents) is None


def test_center_refuses_twisting_sigma(conj_qplane):
    """i*x^4 commutes with x and y but not with i: no K-algebra center."""
    with pytest.raises(InputError, match="sigma of x is not the identity"):
        center_generators(conj_qplane)


def test_center_order_limit(qplane_gf5, qplane_m1, monkeypatch):
    F = get_field(FieldSpec.prime(1009))
    with pytest.raises(InputError, match="1008 roots of unity, above the limit 512"):
        center_generators(quantum_plane(F, F.from_int(11)))
    monkeypatch.setattr(nullstellensatz, "MAX_CENTER_ORDER", 3)
    with pytest.raises(InputError, match="4 roots of unity, above the limit 3"):
        center_generators(qplane_gf5)
    assert center_generators(qplane_m1).exponents == (2, 2)


def test_central_probe_at_order_1000_needs_no_recursion():
    """What MAX_CENTER_ORDER bounds is tables and product degrees, not
    recursion: over gf:3001 with q of order 1000, the probe decides x^1000
    central and x^500 not within 100 frames of its caller."""
    F = get_field(FieldSpec.prime(3001))
    g = next(k for k in range(2, 3001) if multiplicative_order(F.from_int(k)) == 3000)
    P = quantum_plane(F, F.from_int(g) ** 3)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        assert central_probe(Polynomial.monomial(P, (1000, 0)))
        assert not central_probe(Polynomial.monomial(P, (500, 0)))
    finally:
        sys.setrecursionlimit(limit)


def test_sandwich_mixed_trivial_constants():
    """yx = -xy with z central: accepted with L = (2, 2, 1)."""
    P = _space("Q", ("x", "y", "z"), (-1, 1, 1))
    C = center_generators(P)
    I = two_sided_saturate(
        [parse_polynomial(g, P) for g in ("x^4", "x^2*z - z", "y^2 - z^2")]
    )
    rep = verify_sandwich(I, C, qgrid(P.field, -2, 2), d=4, M=4)
    assert (rep.inclusion_radical, rep.inclusion_points) == ("confirmed", "confirmed")


# -- contraction --------------------------------------------------------------


def test_contract_power_ideal(qplane_m1):
    C = center_generators(qplane_m1)
    x = parse_polynomial("x", qplane_m1)
    I = two_sided_saturate([x ** 4])
    J = contract_to_center(I, C, 4)
    assert [str(g) for g in J] == ["u^2"]
    lifted = [nullstellensatz.lift_center_poly(C, g) for g in J]
    assert [str(f) for f in lifted] == ["x^4"]
    assert all(is_member_left(f, I) == "yes" and central_probe(f) for f in lifted)


@pytest.mark.parametrize("probe", ["is_member_left", "central_probe"])
def test_contract_refuses_an_uncertified_element(qplane_m1, monkeypatch, probe):
    """Each lifted element is certified a member of I and central, or the
    contraction raises; a failing probe must reach the caller. Membership
    fails when the lift adds 1, which is central and leaves I."""
    C = center_generators(qplane_m1)
    I = two_sided_saturate([parse_polynomial("x", qplane_m1) ** 4])
    if probe == "is_member_left":
        lift = nullstellensatz.lift_center_poly
        monkeypatch.setattr(nullstellensatz, "lift_center_poly", lambda *args: lift(*args) + 1)
    else:
        monkeypatch.setattr(nullstellensatz, probe, lambda *args: False)
    with pytest.raises(RuntimeError, match="failed certification"):
        contract_to_center(I, C, 4)


def test_contract_variable_ideal(qplane_m1):
    C = center_generators(qplane_m1)
    I = two_sided_saturate([parse_polynomial("x", qplane_m1)])
    assert [str(g) for g in contract_to_center(I, C, 2)] == ["u"]


def test_contract_unit_ideal(qplane_m1):
    C = center_generators(qplane_m1)
    I = two_sided_saturate(
        [parse_polynomial("x-1", qplane_m1), parse_polynomial("y-1", qplane_m1)]
    )
    J = contract_to_center(I, C, 4)
    # every normal form is 0, so J's reduced basis is [1]
    assert [str(g) for g in J] == ["1"]
    assert nullstellensatz.lift_center_poly(C, J[0]) == Polynomial.one(qplane_m1)


@pytest.mark.parametrize(
    "gens, basis",
    [
        ("x^3 - x*y^2, y^4 - 1", ["v^2 - 1", "u^2 - u*v"]),
        ("x^2*y^2 - 1, x^6 - y^2", ["u*v - 1", "u^2 - v^2", "v^3 - u"]),
        ("x^4, y^2", ["v", "u^2"]),
    ],
)
def test_contraction_gives_reduced_bases(qplane_m1, gens, basis):
    """J's reduced basis on the three zero-dimensional inputs, already at
    d = 8; the walk ends there, so a higher cap adds nothing."""
    C = center_generators(qplane_m1)
    I = two_sided_saturate([parse_polynomial(g, qplane_m1) for g in gens.split(",")])
    J = contract_to_center(I, C, 8)
    assert [str(g) for g in J] == basis
    assert [str(g) for g in contract_to_center(I, C, 40)] == basis


def test_contractions_share_one_center_ring(qplane_m1):
    """Contractions of one ideal at two caps live in the description's one
    K[u]: they compare equal and combine in one Groebner computation. So
    do contractions on two separately loaded copies of one algebra, whose
    descriptions share the K[u] of their field and arity."""
    C = center_generators(qplane_m1)
    gens = ("x^3 - x*y^2", "y^4 - 1")
    I = two_sided_saturate([parse_polynomial(g, qplane_m1) for g in gens])
    J40 = contract_to_center(I, C, 40)
    J8 = contract_to_center(I, C, 8)
    assert J40 == J8
    assert tuple(str(g) for g in left_groebner(J40 + J8).basis) == ("v^2 - 1", "u^2 - u*v")
    assert all(g.pres is C.center_ring for g in J40)
    copies = []
    for _ in range(2):
        pres = load_presentation_file(algebra_path("qplane_m1.alg"))
        I = two_sided_saturate([parse_polynomial(g, pres) for g in gens])
        copies.append(contract_to_center(I, center_generators(pres), 40))
    assert copies[0] == copies[1] == J40


def test_center_rings_are_shared_per_field_and_arity():
    """One K[u] per (field, number of variables): two presentations over Q
    with two variables share it, while another arity or another field
    gets a ring of its own, with its own field and n variables."""
    qplane, comm = (
        center_generators(load_presentation_file(algebra_path(name))).center_ring
        for name in ("qplane_m1.alg", "commutative_xy.alg")
    )
    assert qplane is comm
    assert (qplane.field.spec, qplane.names) == (FieldSpec.rationals(), ("u", "v"))
    Q = get_field(FieldSpec.rationals())
    space = quantum_space(Q, {(0, 1): Q.from_int(-1)}, ("x", "y", "z"))
    gf5 = load_presentation_file(algebra_path("qplane_q2_gf5.alg"))
    for pres in (space, gf5):
        ring = center_generators(pres).center_ring
        assert ring is not qplane
        assert (ring.field, ring.n) == (pres.field, pres.n)
        assert ring is center_generators(pres).center_ring


def test_second_center_description_builds_no_presentation(qplane_m1, monkeypatch):
    """A second description over one field and arity reads its K[u] from
    the kept rings: center_generators builds no Presentation."""
    center_generators(qplane_m1)
    init, built = Presentation.__init__, []

    def counted_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Presentation, "__init__", counted_init)
    C = center_generators(qplane_m1)
    assert built == []
    assert C.center_ring.names == ("u", "v")


def test_shared_center_ring_keeps_one_domain_partition(qplane_m1, QQ):
    """Sandwiches over two grids leave at most one domain partition on the
    shared K[u], the last grid's."""
    C = center_generators(qplane_m1)
    I = two_sided_saturate([parse_polynomial("x^4", qplane_m1)])
    for lo, hi in ((-2, 2), (-1, 1)):
        verify_sandwich(I, C, qgrid(QQ, lo, hi), 4, 4)
    partition = C.center_ring._domain_partition
    assert list(partition) == [qgrid(QQ, -1, 1)._raw_columns(C.center_ring)]


@pytest.mark.parametrize(
    "gens", ["x^3 - x*y^2, y^4 - 1", "x^2*y^2 - 1, x^6 - y^2", "x^4, y^2"]
)
def test_contraction_matches_block_elimination(qplane_m1, gens):
    """On the zero-dimensional qplane_m1 inputs, J at d = 40 is the
    block-order elimination's u-only basis, element by element."""
    C = center_generators(qplane_m1)
    I = two_sided_saturate([parse_polynomial(g, qplane_m1) for g in gens.split(",")])
    assert contract_to_center(I, C, 40) == block_contraction(I, C)


def test_seeded_contractions_match_block_elimination():
    """On seeded ideals whose generators lead with a pure power of each
    variable, so that A/I and hence K[u]/J are finite-dimensional, J at
    d = 40 generates the ideal the block-order elimination finds: its
    reduced deglex basis is the elimination's u-only basis. (J is reduced
    in the walk's weighted order, which differs from deglex on u when the
    L_i differ.)"""
    Q, GF7, C5 = (get_field(FieldSpec.from_string(s)) for s in ("Q", "gf:7", "cyclotomic:5"))
    spaces = [
        quantum_space(Q, {(0, 1): Q.from_int(-1)}, ("x", "y")),
        quantum_space(GF7, {(0, 1): GF7.from_int(2), (1, 2): GF7.from_int(6)}, ("x", "y", "w")),
        quantum_space(C5, {(0, 1): C5.primitive()}, ("x", "y")),
    ]
    rng = random.Random(28)
    proper = 0
    for pres in spaces:
        C = center_generators(pres)
        for _ in range(4):
            gens = []
            for i in range(pres.n):
                a = rng.randint(1, 4)
                lead = Polynomial.monomial(pres, tuple(a if k == i else 0 for k in range(pres.n)))
                gens.append(lead + random_polynomial(pres, rng, max_degree=a - 1, max_terms=3))
            I = two_sided_saturate(gens)
            J = contract_to_center(I, C, 40)
            assert list(left_groebner(J).basis) == block_contraction(I, C)
            proper += I.status == "proper"
    assert proper >= 4


def test_elements_of_another_presentation_are_refused(qplane_m1):
    """Membership, nilpotency and contraction divide elements of one
    presentation by an ideal's basis: over a copy of the algebra they
    raise, also against the unit ideal, which used to answer yes."""
    other = load_presentation_file(algebra_path("qplane_m1.alg"))
    x2 = parse_polynomial("x^2", other)
    for gens in ("x^4", "x - 1, y - 1"):
        I = two_sided_saturate([parse_polynomial(g, qplane_m1) for g in gens.split(",")])
        with pytest.raises(InputError, match="^divisors from a different presentation$"):
            is_member_left(x2, I)
        with pytest.raises(InputError, match="^divisors from a different presentation$"):
            central_nilpotency(x2, I, 4)
        with pytest.raises(InputError, match="^divisors from a different presentation$"):
            contract_to_center(I, center_generators(other), 4)


def _memo_divisions(monkeypatch) -> list:
    """The (terms, memo, remainder) of every division run on a memo from
    now on, in call order."""
    calls = []
    divide = groebner.divide

    def spy(f, divisors, *args, **kwargs):
        result = divide(f, divisors, *args, **kwargs)
        if kwargs.get("memo") is not None:
            calls.append((dict(f), kwargs["memo"], dict(result.remainder)))
        return result

    monkeypatch.setattr(groebner, "divide", spy)
    return calls


@pytest.mark.parametrize("d", [4, 6])
def test_contraction_divides_through_one_memo(qplane_m1, monkeypatch, d):
    """Every division of the contraction runs on one memo: the walk's
    normal forms of central monomials, each equal to the monomial's own
    division, then the certification's of each lifted element of J."""
    gens = [parse_polynomial(t, qplane_m1) for t in ("x^4 + x*y^2", "x^2*y^2 - y^3")]
    handle = two_sided_saturate(gens)
    assert handle.status == "proper" and len(handle.basis) > 1
    C = center_generators(qplane_m1)
    calls = _memo_divisions(monkeypatch)
    J = contract_to_center(handle, C, d)
    assert len(calls) > len(J) > 0 and len({id(memo) for _, memo, _ in calls}) == 1
    walk, certification = calls[: -len(J)], calls[-len(J) :]
    for f, _, remainder in walk:
        (e,) = f
        alone = divide(Polynomial.monomial(qplane_m1, e), handle.basis)
        assert remainder == dict(alone.remainder.raw)
    lifted = [nullstellensatz.lift_center_poly(C, g) for g in J]
    assert [(f, remainder) for f, _, remainder in certification] == [
        (dict(g.raw), {}) for g in lifted
    ]
    calls.clear()
    contract_to_center(two_sided_saturate([]), C, d)
    assert calls == []


def test_central_nilpotency_divides_every_power_through_one_memo(qplane_m1, monkeypatch):
    """central_nilpotency divides w, w^2, ... through one memo, one
    division per power, until a power lies in the ideal or M is reached."""
    x, y = (parse_polynomial(t, qplane_m1) for t in ("x", "y"))
    I = two_sided_saturate([x ** 6])
    calls = _memo_divisions(monkeypatch)
    for w, M, m in ((x * x, 4, 3), (y * y, 3, None)):
        calls.clear()
        assert central_nilpotency(w, I, M) == m
        assert [f for f, _, _ in calls] == [dict((w ** k).raw) for k in range(1, (m or M) + 1)]
        assert len({id(memo) for _, memo, _ in calls}) == 1


def _contraction_by_scalars(handle, C, d):
    """J up to degree d, as `contract_to_center` lists it, built apart from
    it: each central monomial's own remainder (the monomial itself when
    the basis is empty), the kernel of their coefficient vectors on
    Scalars by `oracles.rref`, one vector per dependent column with 1
    there."""
    pres, L = C.presentation, C.exponents
    field = pres.field
    weighted = sorted(
        (sum(k * l for k, l in zip(kap, L)), kap)
        for kap in itertools.product(*(range(d // l + 1) for l in L))
    )
    kappas = [kap for w, kap in weighted if w <= d]
    forms = [Polynomial.monomial(pres, tuple(k * l for k, l in zip(kap, L))) for kap in kappas]
    if handle.basis:
        forms = [divide(f, handle.basis, handle.order).remainder for f in forms]
    forms = [dict(f.terms) for f in forms]
    support = sorted(set().union(*forms))
    red, pivots = rref([[f.get(mu, field.zero) for f in forms] for mu in support], field)
    center_pres = C.center_ring
    out = []
    for free in range(len(kappas)):
        if free in pivots:
            continue
        vec = {kappas[free]: field.one}
        for r, pc in enumerate(pivots):
            vec[kappas[pc]] = -red[r][free]
        out.append(Polynomial.from_dict(center_pres, vec))
    return out


def _seeded_generator(pres, L, rng):
    """A scaled monomial or a binomial, which may have a constant term or be
    central (exponents that are multiples of L): random polynomials almost
    always saturate to the unit ideal."""
    monos = exponents_up_to(pres.n, 4)
    if rng.random() < 0.3:
        monos = [tuple(a * l for a, l in zip(e, L)) for e in exponents_up_to(pres.n, 2)]
    g = Polynomial.monomial(pres, rng.choice(monos[1:]), random_scalar(pres.field, rng))
    if rng.random() < 0.6:
        g = g + Polynomial.monomial(pres, rng.choice(monos), random_scalar(pres.field, rng))
    return g


def _seeded_monomials(pres, rng):
    """One to three scaled monomials of degree 1 to 6."""
    monos = exponents_up_to(pres.n, 6)[1:]
    return [
        Polynomial.monomial(pres, rng.choice(monos), random_scalar(pres.field, rng))
        for _ in range(rng.randint(1, 3))
    ]


@pytest.mark.parametrize(
    "name", ["commutative_xy.alg", "qplane_i.alg", "qplane_m1.alg", "qplane_q2_gf5.alg"]
)
def test_contraction_matches_scalar_kernel(name):
    """contract_to_center at every d <= 8 against the kernel on Scalars, on
    every shipped algebra with a center: the unit ideal (J is [1]), the
    zero ideal (proper with an empty basis; J is zero), <x_1^(L_1) - 1>
    (J holds u_1 - 1), seeded ideals, and seeded two-sided and left
    ideals of monomials. J is an ordered sub-list of the kernel's span
    basis that generates every element of it; under equal L_i its order is
    deglex, and J is a reduced left Groebner basis, the elements of the
    block-order elimination's whose lead has weighted degree <= d.

    A basis of monomials takes the closed form, any other the walk; both
    kinds are checked, each more than once."""
    pres = load_presentation_file(algebra_path(name))
    C = center_generators(pres)
    rng = random.Random(name)
    handles = [
        two_sided_saturate([Polynomial.one(pres)]),
        two_sided_saturate([Polynomial.zero(pres)]),
        two_sided_saturate([C.generators[0] - Polynomial.one(pres)]),
    ]
    while len(handles) < 8:
        gens = [_seeded_generator(pres, C.exponents, rng) for _ in range(rng.randint(1, 2))]
        handle = two_sided_saturate([g for g in gens if not g.is_zero()])
        if handle.status == "proper":
            handles.append(handle)
    for _ in range(3):
        handles.append(two_sided_saturate(_seeded_monomials(pres, rng)))
        handles.append(left_groebner(_seeded_monomials(pres, rng)))
    assert handles[0].status == "unit" and handles[1].basis == ()
    monomial = [all(len(g.terms) == 1 for g in h.basis) for h in handles]
    assert sum(monomial) >= 8 and monomial.count(False) >= 2
    assert {h.sidedness for h in handles} == {"left", "two-sided"}
    equal_weights = len(set(C.exponents)) == 1
    for handle in handles:
        block = block_contraction(handle, C)
        for d in range(9):
            J = contract_to_center(handle, C, d)
            if equal_weights:
                assert J == [
                    g for g in block
                    if sum(map(operator.mul, g.leading()[0], C.exponents)) <= d
                ]
            expected = _contraction_by_scalars(handle, C, d)
            remaining = iter([str(g) for g in expected])
            assert all(str(g) in remaining for g in J)
            if handle is handles[1]:
                assert J == []
            if not J:
                assert expected == []
                continue
            ideal = left_groebner(J)
            for g in expected:
                assert is_member_left(parse_polynomial(str(g), J[0].pres), ideal) == "yes"
            if equal_weights:
                assert list(ideal.basis) == J
    assert [str(g) for g in contract_to_center(handles[0], C, 6)] == ["1"]


# -- commutative side ----------------------------------------------------------


def test_radical_membership_examples(comm2):
    u = parse_polynomial("x", comm2)
    assert radical_membership_commutative(u, [u * u])
    assert not radical_membership_commutative(u + 1, [u * u])
    v = parse_polynomial("y", comm2)
    assert radical_membership_commutative(u * v, [u * u * v, u * v * v])
    # a Rabinowitsch basis that runs out of budget leaves membership open
    assert radical_membership_commutative(u + 1, [u * u], Budget(max_degree=2)) is None
    assert radical_membership_commutative(u + 1, [u * u], Budget(max_degree=3)) is False


def test_radical_membership_defaults_to_the_default_budget(comm2):
    """With no budget the radical step reads `groebner.DEFAULT_BUDGET`, as
    every other entry point does. x lies in radical(<x^13>), but the first
    S-pair, of x^13 and 1 - t*x, has lcm t*x^13 of degree 14, above the
    default's 12: so both calls leave it unresolved, and a degree budget
    of 14 decides it."""
    x = parse_polynomial("x", comm2)
    J = [parse_polynomial("x^13", comm2)]
    assert radical_membership_commutative(x, J) is None
    assert radical_membership_commutative(x, J, groebner.DEFAULT_BUDGET) is None
    assert radical_membership_commutative(x, J, Budget(max_degree=14)) is True


def test_radical_steps_share_one_extension_ring(monkeypatch):
    """The ring with the extra variable t is built on the first radical
    step and kept on the ring it extends, so later steps on that ring
    reuse it and its insertion cache."""
    P = load_presentation("field: gf:7\nvars: u, v\n")
    built = []
    init = Presentation.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Presentation, "__init__", counted)
    u, v = (parse_polynomial(t, P) for t in ("u", "v"))
    assert radical_membership_commutative(u * v, [u * u, v * v * v])
    assert not radical_membership_commutative(u + 1, [u * u])
    assert len(built) == 1 and P._extension is built[0]


@pytest.mark.parametrize("entry", ["commutative_points_ideal", "radical_membership"])
def test_center_ring_functions_refuse_rings_that_are_not_commutative(entry, qplane_m1):
    """Both functions work in the commutative center ring. On qplane_m1,
    where y*x = -x*y, the points ideal of (1, 1) used to come back as
    [y - 1, x - 1], whose two-sided saturation is the unit ideal. On Q(i)
    with sigma x = conj, radical membership used to answer True or False."""
    G = [parse_polynomial(t, qplane_m1) for t in ("y - 1", "x - 1")]
    assert two_sided_saturate(G).status == "unit"
    twisted = load_presentation("field: Q(i)\nvars: x, y\nsigma: x = conj\n")
    cases = [
        (qplane_m1, r"not commutative: y\*x is not x\*y"),
        (twisted, "not commutative: sigma of x is not the identity"),
    ]
    for pres, message in cases:
        x = parse_polynomial("x", pres)
        with pytest.raises(InputError, match=message):
            if entry == "commutative_points_ideal":
                commutative_points_ideal(pres, [Point.of(pres, [1, 1])])
            else:
                radical_membership_commutative(x, [x * x])


def test_radical_membership_vs_power_search(comm2, comm2_gf5):
    for pres in (comm2, comm2_gf5):
        rng = random.Random(29)
        agreements = 0
        while agreements < 50:
            gens = [
                random_polynomial(pres, rng, 3, 3)
                for _ in range(rng.randint(1, 2))
            ]
            gens = [g for g in gens if not g.is_zero()]
            f = random_polynomial(pres, rng, 2, 2)
            if not gens or f.is_zero():
                continue
            rab = radical_membership_commutative(f, gens)
            brect = brute_force_radical(f, gens, 6)
            assert rab == brect
            agreements += 1


def test_commutative_points_ideal_examples(comm2, QQ):
    G = commutative_points_ideal(comm2, [Point.of(comm2, [0, 0])])
    assert set(map(str, G)) == {"x", "y"}
    # one order, ascending by lead, whatever the multiplicity
    p = Point.of(comm2, [0, 2])
    for pts in ([p], [p, p]):
        assert [str(g) for g in commutative_points_ideal(comm2, pts)] == ["y - 2", "x"]
    assert commutative_points_ideal(comm2, []) == [Polynomial.one(comm2)]

    pts = [Point.of(comm2, [1, 0]), Point.of(comm2, [0, 1])]
    G2 = commutative_points_ideal(comm2, pts)
    # evaluation oracle on a 5x5 grid: vanishing exactly on the two points
    for a in range(-2, 3):
        for b in range(-2, 3):
            Z = Point.of(comm2, [a, b])
            vanish_all = all(evaluate(g, Z).is_zero() for g in G2)
            assert vanish_all == (Z in pts)
    u2_minus_u = parse_polynomial("x^2 - x", comm2)
    assert is_member_left(u2_minus_u, left_groebner(G2)) == "yes"


def test_central_nilpotency(qplane_m1):
    x = parse_polynomial("x", qplane_m1)
    y = parse_polynomial("y", qplane_m1)
    I = two_sided_saturate([x ** 4])
    assert central_nilpotency(x * x, I, 6) == 2
    assert central_nilpotency(y * y, I, 6) is None
    assert central_nilpotency(Polynomial.zero(qplane_m1), I, 6) == 1
    with pytest.raises(InputError):
        central_nilpotency(x, I, 6)  # x is not central at q = -1


# -- the sandwich -------------------------------------------------------------


def sandwich_document(*flags):
    """(result, exit code) of the CLI sandwich of x^4 on qplane_m1 over the
    -2..2 grid, with d = M = 4."""
    args = cli.build_parser().parse_args([
        "sandwich", "--algebra", algebra_path("qplane_m1.alg"), "--gens", "x^4",
        "--domain", "grid:-2..2", *flags,
    ])
    doc, code = cli.run_command(args)
    return doc["result"], code


def test_sandwich_quantum_plane(qplane_m1, QQ):
    C = center_generators(qplane_m1)
    I = two_sided_saturate([parse_polynomial("x^4", qplane_m1)])
    rep = verify_sandwich(I, C, qgrid(QQ, -2, 2), d=4, M=4)
    assert rep.inclusion_radical == "confirmed"
    assert rep.inclusion_points == "confirmed"
    certified = [v for v in rep.generator_verdicts if v.in_radical_J]
    assert len(certified) == 1
    assert str(certified[0].center_poly) == "u"
    assert str(certified[0].lifted) == "x^2"
    assert certified[0].nilpotency_m == 2
    artifacts = [v for v in rep.generator_verdicts if v.grid_artifact]
    assert artifacts and artifacts[0].nilpotency_m is None
    doc, code = sandwich_document()
    assert code == cli.EXIT_OK and doc["inclusion_radical"] == "confirmed"


def test_sandwich_commutative_classical(comm2, QQ):
    C = center_generators(comm2)
    I = two_sided_saturate(
        [parse_polynomial("x^2", comm2), parse_polynomial("y", comm2)]
    )
    rep = verify_sandwich(I, C, qgrid(QQ, -2, 2), d=2, M=2)
    assert rep.inclusion_radical == "confirmed"
    assert rep.inclusion_points == "confirmed"
    radically = {
        str(v.center_poly): v.nilpotency_m
        for v in rep.generator_verdicts
        if v.in_radical_J
    }
    assert radically == {"u": 2, "v": 1}


def test_sandwich_unit_ideal(qplane_m1, QQ):
    C = center_generators(qplane_m1)
    I = two_sided_saturate(
        [parse_polynomial("x-1", qplane_m1), parse_polynomial("y-1", qplane_m1)]
    )
    rep = verify_sandwich(I, C, qgrid(QQ, -2, 2), d=4, M=4)
    assert rep.inclusion_radical == "confirmed"
    assert rep.inclusion_points == "confirmed"
    assert [str(v.center_poly) for v in rep.generator_verdicts] == ["1"]
    assert rep.generator_verdicts[0].nilpotency_m == 1
    assert rep.v_center == []


def test_sandwich_cyclotomic_plane():
    """Full pipeline over Q(zeta_4) with q = i: center F[x^4, y^4]."""
    F = get_field(FieldSpec.cyclotomic(4))
    P = quantum_plane(F, F.primitive())
    C = center_generators(P)
    assert C.exponents == (4, 4)
    I = two_sided_saturate([parse_polynomial("x^8", P)])
    grid = SearchDomain.grid([[F.from_int(k) for k in range(-2, 3)]])
    rep = verify_sandwich(I, C, grid, d=8, M=4)
    assert rep.inclusion_radical == "confirmed"
    assert rep.inclusion_points == "confirmed"
    certified = [v for v in rep.generator_verdicts if v.in_radical_J]
    assert [str(v.lifted) for v in certified] == ["x^4"]
    assert certified[0].nilpotency_m == 2


def test_sandwich_unresolved_radical_is_no_grid_artifact(qplane_m1, QQ):
    """A starved radical step leaves membership undecided (None), and an
    undecided generator is not reported as lying outside radical(J)."""
    C = center_generators(qplane_m1)
    I = two_sided_saturate([parse_polynomial("x^4", qplane_m1)])
    full = verify_sandwich(I, C, qgrid(QQ, -2, 2), d=4, M=4)
    rep = verify_sandwich(
        I, C, qgrid(QQ, -2, 2), d=4, M=4, budget=Budget(max_degree=2)
    )
    assert rep.inclusion_radical == "inconclusive"
    assert "radical membership unresolved for some generator" in rep.notes
    assert [str(v.center_poly) for v in rep.generator_verdicts] == [
        str(v.center_poly) for v in full.generator_verdicts
    ]
    unresolved = [v for v in rep.generator_verdicts if v.in_radical_J is None]
    assert unresolved
    assert not any(v.grid_artifact for v in unresolved)
    # the artifact note counts only the generators decided outside radical(J)
    outside = [v for v in rep.generator_verdicts if v.in_radical_J is False]
    assert [note.split(" ", 1)[0] for note in rep.notes if "grid artifacts" in note] == (
        [str(len(outside))] if outside else []
    )
    doc, code = sandwich_document("--budget-degree", "2")
    assert code == cli.EXIT_UNKNOWN
    assert all(
        g["grid_artifact"] is False
        for g in doc["generators"]
        if g["in_radical_J"] is None
    )


def test_sandwich_refuses_assumed_center(GF5):
    """The sandwich needs a center description, and a center that is not
    K[x_i^(L_i)] gets none."""
    P = quantum_space(
        GF5,
        {(0, 1): GF5.from_int(2), (0, 2): GF5.from_int(4), (1, 2): GF5.from_int(3)},
        ("a", "b", "c"),
    )
    with pytest.raises(InputError, match="is central: the center is not"):
        center_generators(P)


def test_sandwich_gf5(qplane_gf5):
    C = center_generators(qplane_gf5)
    assert C.exponents == (4, 4)
    I = two_sided_saturate([parse_polynomial("x^4", qplane_gf5)])
    rep = verify_sandwich(
        I, C, SearchDomain.full_prime_field(), d=8, M=4
    )
    assert rep.inclusion_radical == "confirmed"
    assert rep.inclusion_points == "confirmed"


# -- ideals of points against the elimination fold ------------------------------


def _random_point_sets():
    """Seeded point sets over six fields, 1-3 variables, 0-8 points, with
    repeated points."""
    rng = random.Random(7177)
    specs = [
        FieldSpec.prime(2), FieldSpec.prime(5), FieldSpec.prime(7),
        FieldSpec.rationals(), FieldSpec.gaussian(), FieldSpec.cyclotomic(5),
    ]
    for k in range(48):
        field = get_field(specs[k % len(specs)])
        n = 1 + k // len(specs) % 3
        pres = Presentation(field, ("u", "v", "w")[:n])
        points = []
        for _ in range(k % 9):
            if points and rng.random() < 0.25:
                points.append(rng.choice(points))
            else:
                points.append(Point.of(pres, [random_scalar(field, rng) for _ in range(n)]))
        yield pres, points


def _assert_matches_elimination_fold(pres, points):
    """The points ideal is the fold's basis, monic, vanishing on the
    points and reduced, with one standard monomial per distinct point."""
    G = commutative_points_ideal(pres, points)
    naive = naive_points_ideal(pres, [Z.coords for Z in points])
    assert [str(g) for g in G] == [str(g) for g in naive]
    leads = [g.leading()[0] for g in G]
    for g in G:
        assert g.leading()[1] == pres.field.raw_one
        assert all(evaluate(g, Z).is_zero() for Z in points)
        for e, _ in g.terms[1:]:
            assert not any(divides(lead, e) for lead in leads)
    for k, lead in enumerate(leads):
        assert not any(divides(o, lead) for j, o in enumerate(leads) if j != k)
    distinct = set(points)
    standard = [
        e for e in exponents_up_to(pres.n, len(distinct))
        if not any(divides(lead, e) for lead in leads)
    ]
    assert len(standard) == len(distinct)


def test_points_ideal_matches_elimination_fold():
    for pres, points in _random_point_sets():
        _assert_matches_elimination_fold(pres, points)


def _box_point_sets():
    """Seeded boxes S_1 x ... x S_n over five fields, 0-3 variables, each
    shuffled, then with a repeated point, and without one point; single
    points and the empty set."""
    rng = random.Random(4611)
    for spec in ("gf:5", "gf:7", "Q", "Q(i)", "cyclotomic:5"):
        field = get_field(FieldSpec.from_string(spec))
        for n in range(4):
            pres = Presentation(field, ("u", "v", "w")[:n])
            yield pres, []
            for _ in range(3):
                sets = [
                    list(dict.fromkeys(random_scalar(field, rng) for _ in range(rng.randint(1, 3))))
                    for _ in range(n)
                ]
                box = [Point.of(pres, c) for c in itertools.product(*sets)]
                rng.shuffle(box)
                yield pres, box
                yield pres, box + [rng.choice(box)]
                yield pres, box[1:]
                yield pres, box[:1]


def test_box_points_ideal_matches_elimination_fold():
    """Point sets on both sides of the box test, whose ideal is written
    down when the distinct points fill the box of their coordinate sets,
    against the fold; each side is met more than once."""
    boxes = []
    for pres, points in _box_point_sets():
        coordinates = [dict.fromkeys(Z.raw[i] for Z in points) for i in range(pres.n)]
        boxes.append(bool(points) and set(points) == set(
            Point(raw, pres.field) for raw in itertools.product(*coordinates)
        ))
        _assert_matches_elimination_fold(pres, points)
    assert boxes.count(True) >= 100 and boxes.count(False) >= 40
