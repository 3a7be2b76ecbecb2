"""Division identities, completion, saturation, intersection, membership."""

import argparse
import hashlib
import os
import random
import zlib

import pytest

from conftest import ALGEBRA_DIR, algebra_path
from documents import INLINE
from oracles import (
    check_products,
    expand_certificate,
    left_span_membership,
    naive_gebauer_moller,
    naive_left_gb,
    naive_s_element,
    naive_saturate,
    naive_word_multiply,
    random_polynomial,
    random_scalar,
    two_sided_span_membership,
)
from skewpbw import cli, groebner
from skewpbw.geometry import Point
from skewpbw.groebner import (
    Budget,
    divide,
    intersect_left,
    is_member_left,
    left_groebner,
    two_sided_saturate,
)
from skewpbw.poly import (
    DEGLEX,
    DEGREVLEX,
    MonomialOrder,
    Polynomial,
    _mono_times_dict,
    deglex_key,
    divides,
    exponents_up_to,
    multiply,
    parse_polynomial,
)
from skewpbw.presentation import (
    Presentation,
    extend_with_central,
    load_presentation,
    load_presentation_file,
)
from skewpbw.scalars import InputError


def leading_exp(f):
    return f.leading(DEGLEX)[0]


# -- division ---------------------------------------------------------------


def test_witten_division_identity(witten):
    f = parse_polynomial("x^2*y + x*z + y*z", witten)
    divisors = [
        parse_polynomial(t, witten) for t in ("x-1", "y+2", "z+3")
    ]
    res = divide(f, divisors)
    assert res.reconstruct(divisors) == f
    # the remainder is reduced: no term divisible by the linear leads
    leads = [leading_exp(d) for d in divisors]
    for exp, _ in res.remainder.terms:
        assert all(any(l > e for l, e in zip(le, exp)) for le in leads)
    # the published decomposition re-expands to f through the product oracle
    q1 = parse_polynomial("1/2*x*y + 1/4*y", witten)
    q2 = parse_polynomial("1/4", witten)
    h = parse_polynomial("x*z + y*z - 1/2", witten)
    rebuilt = q1 * divisors[0] + q2 * divisors[1] + h
    assert rebuilt == f


def test_divide_by_self(witten):
    f = parse_polynomial("x^2*y + 3*z", witten)
    res = divide(f, [f])
    assert res.quotients[0] == Polynomial.one(witten)
    assert res.remainder.is_zero()


def test_divide_commutative_classic(comm2):
    f = parse_polynomial("x^2*y", comm2)
    x = parse_polynomial("x", comm2)
    res = divide(f, [x])
    assert str(res.quotients[0]) == "x*y"
    assert res.remainder.is_zero()


def test_divide_errors(witten):
    f = parse_polynomial("x", witten)
    with pytest.raises(InputError):
        divide(f, [])
    with pytest.raises(InputError):
        divide(f, [Polynomial.zero(witten)])


def test_deep_division_runs_in_a_loop(qplane_m1):
    """x^1500 is cancelled by multiples of x + 1 up to x^1499, deeper than
    the default recursion limit: the memo climbs its ladder iteratively."""
    f = parse_polynomial("x^1500 + y", qplane_m1)
    res = divide(f, [parse_polynomial("x + 1", qplane_m1)])
    assert res.remainder == parse_polynomial("y + 1", qplane_m1)


@pytest.mark.parametrize(
    "fixture", ["witten", "weyl_z", "qplane_m1", "qplane_gf5", "qspace3"]
)
def test_division_identity_random(fixture, request):
    """Identity, reducedness and the leading-monomial max formula."""
    pres = request.getfixturevalue(fixture)
    rng = random.Random(zlib.crc32(fixture.encode()))
    checked = 0
    while checked < 500:
        f = random_polynomial(pres, rng, 4, 4)
        divisors = [
            random_polynomial(pres, rng, 2, 2) for _ in range(rng.randint(1, 3))
        ]
        divisors = [d for d in divisors if not d.is_zero()]
        if f.is_zero() or not divisors:
            continue
        checked += 1
        res = divide(f, divisors)
        assert res.reconstruct(divisors) == f
        leads = [leading_exp(d) for d in divisors]
        for exp, _ in res.remainder.terms:
            assert all(any(l > e for l, e in zip(le, exp)) for le in leads)
        # lm(f) = max over lm(lm(q_i) lm(f_i)) and lm(h)
        candidates = []
        for q, le in zip(res.quotients, leads):
            if not q.is_zero():
                candidates.append(
                    tuple(a + b for a, b in zip(q.leading(DEGLEX)[0], le))
                )
        if not res.remainder.is_zero():
            candidates.append(leading_exp(res.remainder))
        assert max(candidates, key=DEGLEX.key) == leading_exp(f)
    assert checked == 500


# -- left completion ---------------------------------------------------------


def test_gb_commutative_monomials(comm2):
    x, y = (parse_polynomial(t, comm2) for t in ("x", "y"))
    H = left_groebner([x, y])
    assert H.status == "proper"
    assert set(map(str, H.basis)) == {"x", "y"}


def test_gb_quantum_plane_unit(qplane_m1):
    gens = [parse_polynomial("x-1", qplane_m1), parse_polynomial("y-1", qplane_m1)]
    H = left_groebner(gens, track=True)
    assert H.status == "unit"
    assert expand_certificate(H.certificates[0], H.generators) == Polynomial.one(
        qplane_m1
    )
    # brute-force confirmation: 1 lies in the left span at degree <= 2
    assert left_span_membership(Polynomial.one(qplane_m1), gens, 2)


def test_gb_weyl_z_unit(weyl_z):
    gens = [
        parse_polynomial("x-1", weyl_z),
        parse_polynomial("y", weyl_z),
        parse_polynomial("z", weyl_z),
    ]
    H = left_groebner(gens, track=True)
    assert H.status == "unit"
    assert expand_certificate(H.certificates[0], H.generators) == Polynomial.one(
        weyl_z
    )


def test_membership_examples(qplane_q2, comm2, weyl_z):
    y = parse_polynomial("y", qplane_q2)
    H = left_groebner([y])
    assert is_member_left(parse_polynomial("x^2*y", qplane_q2), H) == "yes"

    Hc = left_groebner([parse_polynomial("x", comm2), parse_polynomial("y", comm2)])
    assert is_member_left(Polynomial.one(comm2), Hc) == "no"

    Hw = left_groebner(
        [
            parse_polynomial("x-1", weyl_z),
            parse_polynomial("y", weyl_z),
            parse_polynomial("z", weyl_z),
        ]
    )
    assert is_member_left(Polynomial.one(weyl_z), Hw) == "yes"


def test_gb_unknown_on_tiny_budget(weyl_z):
    gens = [parse_polynomial("x^3*y + z", weyl_z), parse_polynomial("y^2*z - x", weyl_z)]
    H = left_groebner(gens, budget=Budget(max_degree=2))
    assert H.status == "unknown"
    assert is_member_left(parse_polynomial("x", weyl_z), H) == "unknown"
    # a zero remainder against the partial basis still certifies membership
    assert is_member_left(Polynomial.zero(weyl_z), H) == "yes"
    assert is_member_left(H.basis[0], H) == "yes"


def test_shared_budgets_and_results_are_immutable(weyl_z):
    """No caller can change the default budgets that every later call
    reads, nor a handle or point another caller holds; a variant budget
    is a new record."""
    H = left_groebner([parse_polynomial("x - 1", weyl_z)])
    for record, name in (
        (groebner.DEFAULT_BUDGET, "max_degree"),
        (H, "status"),
        (Point.of(weyl_z, [1, 0, 0]), "coords"),
    ):
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    assert repr(Budget()) == "Budget(max_degree=12, max_pairs=100000, max_rounds=50)"
    flags = argparse.Namespace(budget_degree=3, budget_pairs=7)
    assert cli._budget_from_flags(flags) == Budget(max_degree=3, max_pairs=7)
    assert groebner.DEFAULT_BUDGET == Budget()


@pytest.mark.parametrize("fixture", ["witten", "qplane_m1", "qplane_gf5", "qspace3"])
def test_gb_soundness_certificates(fixture, request):
    """Every basis element re-expands from its recorded combination."""
    pres = request.getfixturevalue(fixture)
    rng = random.Random(zlib.crc32(fixture.encode()) + 1)
    for _ in range(10):
        gens = [random_polynomial(pres, rng, 2, 2) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        H = left_groebner(gens, track=True)
        for element, cert in zip(H.basis, H.certificates):
            assert expand_certificate(cert, H.generators) == element


@pytest.mark.parametrize("fixture", ["witten", "qplane_m1", "qplane_gf5"])
def test_gb_completeness_surrogate(fixture, request):
    """Random small combinations of the generators are recognized members."""
    pres = request.getfixturevalue(fixture)
    rng = random.Random(zlib.crc32(fixture.encode()) + 2)
    for _ in range(10):
        gens = [random_polynomial(pres, rng, 2, 2) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        H = left_groebner(gens)
        if H.status != "proper":
            continue
        for _ in range(10):
            f = Polynomial.zero(pres)
            for g in gens:
                f = f + multiply(random_polynomial(pres, rng, 2, 2), g)
            assert is_member_left(f, H) == "yes"


@pytest.mark.parametrize("fixture", ["witten", "qplane_m1", "qplane_gf5"])
def test_gb_characterization_lm_divides(fixture, request):
    """Some basis leading monomial divides the lead of any nonzero member."""
    pres = request.getfixturevalue(fixture)
    rng = random.Random(zlib.crc32(fixture.encode()) + 3)
    gens = [
        parse_polynomial("x^2", pres) if pres.n == 2 else parse_polynomial("x*y", pres),
        random_polynomial(pres, rng, 2, 2) + Polynomial.variable(pres, 0),
    ]
    H = left_groebner(gens)
    assert H.status in ("proper", "unit")  # unit: lm(1) divides everything
    lead_exps = [leading_exp(g) for g in H.basis]
    for _ in range(30):
        f = Polynomial.zero(pres)
        for g in gens:
            f = f + multiply(random_polynomial(pres, rng, 2, 2), g)
        if f.is_zero():
            continue
        fe = leading_exp(f)
        assert any(all(l <= e for l, e in zip(le, fe)) for le in lead_exps)


# -- two-sided saturation ----------------------------------------------------


def test_saturate_monomial_ideal(qplane_m1):
    x, y = (parse_polynomial(t, qplane_m1) for t in ("x", "y"))
    H = two_sided_saturate([x, y])
    assert H.status == "proper"
    assert set(map(str, H.basis)) == {"x", "y"}


def test_saturate_unit_point(qplane_m1):
    gens = [parse_polynomial("x-1", qplane_m1), parse_polynomial("y-1", qplane_m1)]
    H = two_sided_saturate(gens)
    assert H.status == "unit"
    # brute-force: 1 lies in the two-sided span truncated at degree 3
    assert two_sided_span_membership(Polynomial.one(qplane_m1), gens, 3)


def test_saturate_proper_point(qplane_m1):
    gens = [parse_polynomial("x-1", qplane_m1), parse_polynomial("y", qplane_m1)]
    H = two_sided_saturate(gens)
    assert H.status == "proper"
    assert set(map(str, H.basis)) == {"x - 1", "y"}
    assert is_member_left(parse_polynomial("x", qplane_m1), H) == "no"
    # matches the truncated two-sided span oracle
    assert not two_sided_span_membership(
        parse_polynomial("x", qplane_m1), gens, 3
    )


@pytest.mark.parametrize("fixture", ["witten", "qplane_m1", "qplane_gf5", "qspace3"])
def test_saturation_fixpoint(fixture, request):
    """Right multiples of every basis element reduce to zero at the fixpoint."""
    pres = request.getfixturevalue(fixture)
    rng = random.Random(zlib.crc32(fixture.encode()) + 4)
    for _ in range(5):
        gens = [random_polynomial(pres, rng, 2, 2) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        H = two_sided_saturate(gens)
        if H.status != "proper" or not H.basis:
            continue
        for g in H.basis:
            for j in range(pres.n):
                prod = multiply(g, Polynomial.variable(pres, j))
                assert is_member_left(prod, H) == "yes"


def test_saturation_two_sided_certificates(qplane_m1):
    gens = [parse_polynomial("x^2 - x", qplane_m1)]
    H = two_sided_saturate(gens, track=True)
    for element, cert in zip(H.basis, H.certificates):
        assert expand_certificate(cert, H.generators) == element


@pytest.mark.parametrize("engine", [left_groebner, two_sided_saturate])
@pytest.mark.parametrize("texts", [("0", "x-1", "y-1"), ("x^2 - x", "0", "y^3")])
def test_certificates_index_generators_as_given(engine, texts, qplane_m1):
    """A zero generator keeps its place: certificate indices point into the
    generators as given, zeros included."""
    gens = [parse_polynomial(t, qplane_m1) for t in texts]
    H = engine(gens, track=True)
    assert H.generators == tuple(gens)
    assert H.basis
    for element, cert in zip(H.basis, H.certificates):
        assert expand_certificate(cert, H.generators) == element
        assert all(not H.generators[i].is_zero() for _, i, _ in cert)


def test_saturation_closes_under_scalars_with_sigma_twist():
    """With x*r = conj(r)*x, the two-sided ideal of x+1 contains
    (x+1)*i + i*(x+1) = 2i: right closure by variables alone would miss it."""
    from skewpbw.presentation import Presentation
    from skewpbw.scalars import FieldSpec, get_field

    G = get_field(FieldSpec.gaussian())
    pres = Presentation(G, ("x",), sigma=(-1,))
    f = parse_polynomial("x + 1", pres)
    assert left_groebner([f]).status == "proper"
    assert two_sided_saturate([f]).status == "unit"


# -- engine against the every-pair oracle ------------------------------------

SHIPPED = sorted(f for f in os.listdir(ALGEBRA_DIR) if f.endswith(".alg"))
NAMED = ["dispin", "woronowicz", "q_heisenberg", "lie_gf32003"]


def _algebra(name):
    if name in INLINE:
        return load_presentation(INLINE[name])
    return load_presentation_file(algebra_path(name))


def _random_gens(pres, rng, degree, terms):
    while True:
        gens = [
            random_polynomial(pres, rng, degree, terms)
            for _ in range(rng.randint(2, 3))
        ]
        gens = [g for g in gens if not g.is_zero()]
        if gens:
            return gens


@pytest.mark.parametrize("name", SHIPPED + ["gf7space", "zeta5plane"])
def test_reduced_bases_match_naive_oracle(name):
    """Pruned pairs, incremental saturation and right multiples of the
    minimal new elements only give the reduced bases of completion over
    every pair and right closure of every element, with and without
    certificates; certificates still expand, by the engine's product and
    by the word-rewriting one."""
    pres = _algebra(name)
    rng = random.Random(zlib.crc32(name.encode()))
    for _ in range(6):
        gens = _random_gens(pres, rng, 3, 4)
        left = left_groebner(gens)
        assert left.status in ("proper", "unit")
        assert list(left.basis) == naive_left_gb(gens)
        two = two_sided_saturate(gens)
        assert two.status in ("proper", "unit")
        assert list(two.basis) == naive_saturate(gens)
    _check_tracked_bases(pres, rng, 3)


def _check_tracked_bases(pres, rng, rounds):
    """On seeded inputs of degree 2 with 3 terms, tracked left bases and
    saturations are the oracles' reduced bases, and each certificate
    expands to its element by the engine's product and by the
    word-rewriting one."""
    for _ in range(rounds):
        gens = _random_gens(pres, rng, 2, 3)
        for engine, oracle in (
            (left_groebner, naive_left_gb),
            (two_sided_saturate, naive_saturate),
        ):
            H = engine(gens, track=True)
            assert H.status in ("proper", "unit"), (gens, H.note)
            assert list(H.basis) == oracle(gens)
            for element, cert in zip(H.basis, H.certificates):
                _check_certificate_parts(cert)
                assert expand_certificate(cert, H.generators) == element
                assert expand_certificate(cert, H.generators, naive_word_multiply) == element


def _check_certificate_parts(cert):
    """No part of a certificate is zero, and each (gen_index, q) occurs in
    one part only."""
    assert all(not p.is_zero() for p, _, _ in cert), cert
    keys = [(i, q) for _, i, q in cert]
    assert len(set(keys)) == len(keys), cert


@pytest.mark.parametrize("name", NAMED)
def test_named_presentations_multiply_by_word_rewriting(name):
    """Each named presentation loads with lower terms; its products agree
    with `naive_word_multiply` and associate."""
    pres = _algebra(name)
    assert not pres.quasi_commutative
    check_products(pres, random.Random(f"products {name}"), 2, 3)


@pytest.mark.parametrize("name", NAMED)
def test_named_presentations_match_naive_oracle(name):
    """Tracked bases on the named presentations match the oracles. Inputs
    stay at degree 2 with 3 terms: on the Woronowicz algebra, a degree-3
    left basis over Q can outgrow every budget (ROADMAP item 2)."""
    _check_tracked_bases(_algebra(name), random.Random(f"bases {name}"), 6)


@pytest.mark.parametrize("name", SHIPPED)
def test_tracked_and_untracked_computations_agree(name):
    """The memo carries each basis element's certificate beside it. On
    seeded inputs over every shipped algebra, a tracked left GB and
    saturation give the untracked status, note and basis, and each
    certificate expands to its element."""
    pres = _algebra(name)
    rng = random.Random(zlib.crc32(b"tracked and untracked " + name.encode()))
    for _ in range(6):
        gens = _random_gens(pres, rng, 3, 4)
        for engine in (left_groebner, two_sided_saturate):
            H, G = engine(gens, track=True), engine(gens)
            assert (H.status, H.note, H.basis) == (G.status, G.note, G.basis)
            assert G.certificates is None and len(H.certificates) == len(H.basis)
            for element, cert in zip(H.basis, H.certificates):
                _check_certificate_parts(cert)
                assert expand_certificate(cert, gens) == element


# SHA-256 prefix of what the test below prints, recorded when certificates
# were still summed as Polynomials: it pins every part and the order of
# the parts, which a certificate that still expands need not keep.
CERTIFICATE_DIGEST = "fa8d35d0441f7864"


def test_printed_certificates_are_pinned():
    """Seeded tracked left bases and saturations over every shipped algebra
    and inline document print the recorded statuses, bases and
    certificates, byte for byte."""
    digest = hashlib.sha256()
    for name in SHIPPED + sorted(INLINE):
        pres = _algebra(name)
        rng = random.Random(zlib.crc32(b"pinned certificates " + name.encode()))
        for _ in range(8):
            gens = _random_gens(pres, rng, 2, 3)
            for engine in (left_groebner, two_sided_saturate):
                H = engine(gens, track=True)
                certs = [[(str(p), i, str(q)) for p, i, q in c] for c in H.certificates]
                printed = (name, H.status, H.note, [str(g) for g in H.basis], certs)
                digest.update(repr(printed).encode())
    assert digest.hexdigest()[:16] == CERTIFICATE_DIGEST


def test_tracked_left_bases_multiply_and_scale_no_polynomial(monkeypatch):
    """Certificates are summed and scaled on raw values: a tracked left
    basis calls neither `groebner.multiply` nor `Polynomial.scale`, though
    its certificates expand to its elements."""
    calls = []
    multiply_, scale = groebner.multiply, Polynomial.scale

    def spy_multiply(f, g):
        calls.append("multiply")
        return multiply_(f, g)

    def spy_scale(f, c):
        calls.append("scale")
        return scale(f, c)

    cases = []
    for name in SHIPPED:
        pres = _algebra(name)
        rng = random.Random(zlib.crc32(b"raw certificates " + name.encode()))
        cases += [_random_gens(pres, rng, 2, 3) for _ in range(3)]
    monkeypatch.setattr(groebner, "multiply", spy_multiply)
    monkeypatch.setattr(Polynomial, "scale", spy_scale)
    handles = [left_groebner(gens, track=True) for gens in cases]
    assert calls == []
    monkeypatch.undo()
    assert sum(len(H.basis) > 1 for H in handles) > len(handles) // 2
    for gens, H in zip(cases, handles):
        for element, cert in zip(H.basis, H.certificates):
            assert expand_certificate(cert, gens) == element


@pytest.mark.parametrize("engine", [left_groebner, two_sided_saturate])
def test_tracked_ideal_of_no_generators_has_no_certificates(engine):
    """Tracking an ideal of no generators, or of zeros only, gives an empty
    tuple of certificates, one per basis element, so zipping them with the
    basis works; untracked, there are none."""
    pres = _algebra("qplane_m1.alg")
    for gens in ([], [Polynomial.zero(pres)]):
        H = engine(gens, track=True)
        assert (H.status, H.basis, H.certificates) == ("proper", (), ())
        assert list(zip(H.basis, H.certificates)) == []
        assert engine(gens).certificates is None


def _inter_reduce_by_the_others(memo):
    """Inter-reduction by whole elements: each minimal element divided by
    the other minimal elements, through a memo of its own."""
    keep = groebner._minimal(memo.leads)
    order = memo.order
    out = []
    for k in keep:
        others = groebner._Memo(memo.pres, order)
        for j in keep:
            if j != k:
                others.append(memo.basis[j], memo.leads[j], memo.certs[j])
        g, cert = memo.basis[k], memo.certs[k]
        out.append(groebner._reduce_with_cert(g, cert, others) if others.basis else (g, cert))
    out.sort(key=lambda item: order.key(item[0].leading(order)[0]))
    return out


def test_tail_reduction_keeps_bases_and_valid_certificates(monkeypatch):
    """Dividing the tails by the whole basis on the completion's memo gives
    the reduced basis that dividing each element by the other minimal ones
    gives, on seeded tracked left and two-sided GBs of every shipped
    algebra. The certificates may differ: where they do, both expand to
    the element, by the engine's product and by the word-rewriting one,
    and the basis is the every-pair oracle's."""
    cases = []
    for name in SHIPPED:
        pres = _algebra(name)
        rng = random.Random(zlib.crc32(b"tail reduction " + name.encode()))
        for _ in range(15):
            gens = _random_gens(pres, rng, 2, 3)
            cases += [(engine, oracle, gens) for engine, oracle in (
                (left_groebner, naive_left_gb),
                (two_sided_saturate, naive_saturate),
            )]
    tails = [engine(gens, track=True) for engine, _, gens in cases]
    monkeypatch.setattr(groebner, "_inter_reduce", _inter_reduce_by_the_others)
    wholes = [engine(gens, track=True) for engine, _, gens in cases]
    differ = 0
    for (_, oracle, gens), H, G in zip(cases, tails, wholes):
        assert (H.status, H.basis) == (G.status, G.basis)
        if H.certificates == G.certificates:
            continue
        differ += 1
        assert list(H.basis) == oracle(gens)
        for element, *certs in zip(H.basis, H.certificates, G.certificates):
            for cert in certs:
                assert expand_certificate(cert, gens) == element
                assert expand_certificate(cert, gens, naive_word_multiply) == element
    assert 0 < differ < len(cases)


@pytest.mark.parametrize(
    "name, texts",
    [
        ("qplane_q2_gf5.alg", ("x^2*y - y^2", "x*y^2 + x")),
        ("witten.alg", ("x^2*y + x*z", "y*z - x")),
    ],
)
def test_left_basis_ignores_round_budget(name, texts):
    """max_rounds counts right-closure rounds, which a left basis never runs."""
    pres = _algebra(name)
    gens = [parse_polynomial(t, pres) for t in texts]
    default = left_groebner(gens)
    assert default.status == "proper"
    for rounds in (0, 1):
        H = left_groebner(gens, budget=Budget(max_rounds=rounds))
        assert (H.status, H.basis) == (default.status, default.basis)


def test_round_budget_zero_runs_the_first_round(comm2):
    """The first right-closure round always runs, so max_rounds=0 acts as 1:
    a commutative ideal closes in that round and is decided."""
    gens = [parse_polynomial("x^2 - x", comm2), parse_polynomial("x*y", comm2)]
    zero = two_sided_saturate(gens, budget=Budget(max_rounds=0))
    one = two_sided_saturate(gens, budget=Budget(max_rounds=1))
    assert zero.status == "proper"
    assert (zero.status, zero.basis) == (one.status, one.basis)
    assert zero.basis == left_groebner(gens).basis


def test_round_budget_ends_saturation_unknown(qplane_m1):
    """x + y^2 on the q = -1 plane needs a second right-closure round, so
    max_rounds=1 stops it `unknown`; what it returns still lies in the
    two-sided ideal."""
    gens = [parse_polynomial("x + y^2", qplane_m1)]
    full = two_sided_saturate(gens)
    assert (full.status, len(full.basis)) == ("proper", 3)
    cut = two_sided_saturate(gens, budget=Budget(max_rounds=1))
    assert (cut.status, cut.note) == ("unknown", "saturation round budget exhausted")
    assert all(divide(g, full.basis).remainder.is_zero() for g in cut.basis)


@pytest.mark.parametrize("order", ["deglex", "degrevlex", "block"])
@pytest.mark.parametrize(
    "name", ["qplane_q2_gf5.alg", "gf7space", "qplane_m1.alg", "qspace3.alg", "zeta5plane"]
)
def test_raw_elements_give_the_oracle_bases_under_every_order(name, order):
    """S-elements, right multiples and remainders stay raw dicts until
    they join the basis. Over GF(5), GF(7), Q, Q(i) and Q(zeta5), under
    deglex, degrevlex and the block order `intersect_left` eliminates
    with (on the presentation with its central variable), seeded left
    bases and saturations equal the every-pair oracle's, a tracked run
    gives the untracked basis, and each element is monic under the order
    and stores its terms in descending deglex order."""
    pres = _algebra(name)
    if order == "block":
        pres = extend_with_central(pres)
    mono_order = {
        "deglex": DEGLEX, "degrevlex": DEGREVLEX, "block": MonomialOrder.block([0], pres.n)
    }[order]
    rng = random.Random(zlib.crc32(f"raw path {name} {order}".encode()))
    for _ in range(6):
        gens = _random_gens(pres, rng, 2, 3)
        for engine, oracle in (
            (left_groebner, naive_left_gb),
            (two_sided_saturate, naive_saturate),
        ):
            H = engine(gens, mono_order)
            assert H.status in ("proper", "unit")
            assert list(H.basis) == oracle(gens, mono_order)
            assert engine(gens, mono_order, track=True).basis == H.basis
            for g in H.basis:
                assert g.raw == tuple(sorted(g.raw, key=lambda t: deglex_key(t[0]), reverse=True))
                assert g.leading(mono_order)[1] == pres.field.raw_one


def test_raw_remainder_is_sorted_into_deglex_under_other_orders():
    """A raw remainder lists its terms in the computation's order, lead
    first; the basis element built from it is sorted into deglex, the
    order of `Polynomial.raw`, and scaled to lead coefficient 1."""
    pres = _algebra("gf7space")
    z3 = parse_polynomial("z^3", pres)
    f = parse_polynomial("3*y^2 + x*z + x", pres)
    memo = groebner._divisor_memo(pres, [z3], DEGREVLEX)
    res = divide(groebner._Raw(f.raw), [z3], DEGREVLEX, memo=memo, _quotients=False)
    rem = res.remainder
    assert isinstance(rem, groebner._Raw)
    assert list(rem) == [(0, 2, 0), (1, 0, 1), (1, 0, 0)]  # y^2 > x*z in degrevlex
    g, _ = groebner._monic(memo, rem, None)
    assert g == f.scale(pres.field.from_int(3).inv())
    assert [e for e, _ in g.raw] == [(1, 0, 1), (0, 2, 0), (1, 0, 0)]
    assert divide(f, [z3], DEGREVLEX).remainder == f


def test_chain_criterion_forms_fewer_pairs(monkeypatch):
    pres = _algebra("qplane_q2_gf5.alg")
    rng = random.Random(5)
    formed = [0]
    s_element = groebner._s_element

    def counting(*args):
        formed[0] += 1
        return s_element(*args)

    monkeypatch.setattr(groebner, "_s_element", counting)
    stats = {}
    for _ in range(10):
        gens = [random_polynomial(pres, rng, 4, 4) for _ in range(3)]
        assert list(left_groebner(gens).basis) == naive_left_gb(gens, stats=stats)
        assert list(two_sided_saturate(gens).basis) == naive_saturate(gens, stats=stats)
    assert 0 < formed[0] < stats["spairs"]
    # the update by degree queues the pairs of the quadratic update, less
    # the pairs of two monomials, whose S-element is 0 on this plane
    assert formed[0] == 65


# commutative rings, on which `_completion` applies the product criterion:
# a shipped one over Q, and, named by their field, the rings a radical
# membership runs on, a central variable in front of a commutative plane
COMMUTATIVE = ["commutative_xy.alg", "gf:7", "Q(i)"]


def _commutative(name):
    if name.endswith(".alg"):
        return _algebra(name)
    return extend_with_central(load_presentation(f"field: {name}\nvars: x, y\n"))


@pytest.mark.parametrize("order", ["deglex", "degrevlex"])
@pytest.mark.parametrize("name", COMMUTATIVE)
def test_product_criterion_gives_the_oracle_bases(name, order):
    """With pairs of coprime leads never formed, seeded left bases and
    saturations on commutative rings equal the every-pair oracle's, a
    tracked run gives the untracked basis, and each certificate expands
    to its element."""
    pres = _commutative(name)
    assert pres.commutative
    mono_order = {"deglex": DEGLEX, "degrevlex": DEGREVLEX}[order]
    rng = random.Random(zlib.crc32(f"product criterion {name} {order}".encode()))
    for _ in range(6):
        gens = _random_gens(pres, rng, 3, 3)
        for engine, oracle in (
            (left_groebner, naive_left_gb),
            (two_sided_saturate, naive_saturate),
        ):
            H = engine(gens, mono_order)
            assert H.status in ("proper", "unit")
            assert list(H.basis) == oracle(gens, mono_order)
            T = engine(gens, mono_order, track=True)
            assert T.basis == H.basis
            for element, cert in zip(T.basis, T.certificates):
                assert expand_certificate(cert, T.generators) == element


def _sympy_poly(sympy, f, domain, symbols):
    """f as a sympy Poly over domain, from its raw terms."""
    value = {"gf": int, "Q": lambda c: sympy.Rational(*c)}.get(
        f.pres.field.spec.kind, lambda c: (c[0] + c[1] * sympy.I) / c[2]  # Q(i)
    )
    terms = {e: value(c) for e, c in f.raw}
    return sympy.Poly.from_dict(terms or {(0,) * len(symbols): 0}, symbols, domain=domain)


@pytest.mark.parametrize("name", COMMUTATIVE)
def test_product_criterion_agrees_with_sympy(name):
    """Seeded reduced deglex bases on commutative rings equal sympy's
    `groebner` under grlex, the same order on the same variable order."""
    sympy = pytest.importorskip("sympy")
    pres = _commutative(name)
    kind = pres.field.spec.kind
    domain = {"gf": sympy.GF(7), "Q": sympy.QQ}.get(kind) or sympy.QQ_I
    symbols = sympy.symbols(pres.names)
    rng = random.Random(zlib.crc32(f"sympy {name}".encode()))
    for _ in range(8):
        gens = _random_gens(pres, rng, 3, 3)
        want = sympy.groebner(
            [_sympy_poly(sympy, g, domain, symbols) for g in gens],
            *symbols, order="grlex", domain=domain,
        )
        got = [_sympy_poly(sympy, g, domain, symbols) for g in left_groebner(gens).basis]
        assert sorted(map(str, got)) == sorted(map(str, want.polys))


def test_product_criterion_only_on_commutative_rings(monkeypatch):
    """A pair whose leads share no variable is never formed on a
    commutative ring, and still formed on the q = -1 plane, where
    x + 1 and y + 1 generate the unit left ideal through that pair alone.
    A saturation of no generators, on no presentation, completes."""
    coprime = []
    s_element = groebner._s_element

    def spying(memo, i, j, gamma):
        coprime.append(not any(map(min, memo.leads[i], memo.leads[j])))
        return s_element(memo, i, j, gamma)

    monkeypatch.setattr(groebner, "_s_element", spying)
    plane, ring = _algebra("qplane_m1.alg"), _algebra("commutative_xy.alg")
    assert not plane.commutative and ring.commutative
    gens = [parse_polynomial(t, plane) for t in ("x + 1", "y + 1")]
    assert left_groebner(gens).status == "unit" and coprime == [True]
    coprime.clear()
    gens = [parse_polynomial(t, ring) for t in ("x + 1", "y + 1")]
    assert left_groebner(gens).status == "proper" and coprime == []
    for pres in (plane, ring):
        coprime.clear()
        rng = random.Random(17)
        for _ in range(6):
            gens = _random_gens(pres, rng, 3, 3)
            left_groebner(gens)
            two_sided_saturate(gens)
        assert any(coprime) == (pres is plane) and coprime
    empty = two_sided_saturate([])
    assert (empty.status, empty.basis) == ("proper", ())


# quasi-commutative presentations, on which every monomial is normal; the
# last has a sigma that moves the field primitive
QUASI_COMMUTATIVE = [
    n for n in SHIPPED if n not in ("weyl_z.alg", "witten.alg")
] + ["gf7space", "zeta5plane", "conjplane"]


def _seeded_monomial(pres, rng):
    """c * x^e with c a nonzero seeded scalar and e of degree 1 to 3."""
    c = pres.field.zero
    while c.is_zero():
        c = random_scalar(pres.field, rng)
    return Polynomial.monomial(pres, rng.choice(exponents_up_to(pres.n, 3)[1:]), c)


@pytest.mark.parametrize("name", QUASI_COMMUTATIVE)
def test_monomials_are_normal_on_quasi_commutative_presentations(name):
    """A seeded monomial's right multiples, by each variable and by the
    field primitive, divide to 0 by the monomial, and the S-element of two
    seeded monomials is 0. So `_groebner` forms no such right multiple,
    and `_completion` queues no such pair."""
    pres = _algebra(name)
    assert pres.quasi_commutative
    rng = random.Random(zlib.crc32(f"normal monomials {name}".encode()))
    right = [Polynomial.variable(pres, j) for j in range(pres.n)]
    if pres.field.primitive() is not None:
        right.append(Polynomial.constant(pres, pres.field.primitive()))
    for _ in range(8):
        m, other = _seeded_monomial(pres, rng), _seeded_monomial(pres, rng)
        for w in right:
            assert divide(multiply(m, w), [m]).remainder.is_zero()
        assert naive_s_element(m, other).is_zero()


def test_monomials_are_not_normal_elsewhere(weyl_z, witten):
    """Where lower terms stand in a relation, a monomial's right multiples
    and the pairs of two monomials still count: on weyl_z, y*x = x*y - 1
    makes both the two-sided ideal of x and the left ideal of x and y
    the unit ideal, and on Witten's algebra the right multiples of z give
    x and y."""
    x, y, _ = (Polynomial.variable(weyl_z, j) for j in range(3))
    assert two_sided_saturate([x]).status == "unit"
    assert left_groebner([x, y]).status == "unit"
    z = Polynomial.variable(witten, 2)
    H = two_sided_saturate([z])
    assert H.status == "proper"
    assert [str(g) for g in H.basis] == ["z", "y", "x"]


def test_monomials_form_no_right_multiple_and_no_pair(monkeypatch):
    """A saturation on a quasi-commutative plane forms no right multiple
    of a monomial and no S-element of two monomials, though monomials
    join its bases."""
    pres = _algebra("qplane_q2_gf5.alg")
    s_element, multiply_raw = groebner._s_element, groebner._multiply_raw
    pairs = []  # the term counts of the two elements of each S-element
    left_factors = []  # the term count of the left factor of each right multiple

    def spy_s_element(memo, i, j, gamma):
        pairs.append((len(memo.basis[i].raw), len(memo.basis[j].raw)))
        return s_element(memo, i, j, gamma)

    def spy_multiply_raw(pres, f_raw, g_raw, out):
        left_factors.append(len(f_raw))
        return multiply_raw(pres, f_raw, g_raw, out)

    monkeypatch.setattr(groebner, "_s_element", spy_s_element)
    monkeypatch.setattr(groebner, "_multiply_raw", spy_multiply_raw)
    rng = random.Random(5)
    monomials = 0
    for _ in range(10):
        gens = [random_polynomial(pres, rng, 4, 4) for _ in range(3)]
        H = two_sided_saturate(gens)
        monomials += sum(len(g.raw) == 1 for g in H.basis)
    assert monomials and pairs and left_factors
    assert (1, 1) not in pairs
    assert 1 not in left_factors


def test_monomial_pairs_above_the_degree_budget_are_decided():
    """The pair of x^7 and y^7 has an lcm of degree 14, above the default
    degree budget of 12. It is never queued, so the basis is exact."""
    pres = _algebra("qplane_q2_gf5.alg")
    gens = [parse_polynomial(t, pres) for t in ("x^7", "y^7")]
    for engine in (left_groebner, two_sided_saturate):
        H = engine(gens)
        assert (H.status, H.note) == ("proper", "")
        assert [str(g) for g in H.basis] == ["y^7", "x^7"]


@pytest.mark.parametrize("n", [2, 3])
def test_gebauer_moller_update_matches_its_definition(n):
    """After each insertion into seeded lead sequences, with some queued
    pairs processed in between, the update by degree leaves exactly the
    queued pairs of the quadratic definition; B_k, M and F all fire."""
    rng = random.Random(zlib.crc32(b"gebauer-moller %d" % n))
    dropped = pruned = 0
    for _ in range(60):
        leads: list = []
        fast: dict = {}
        slow: dict = {}
        for k in range(rng.randint(2, 16)):
            lead = tuple(rng.randint(0, 4) for _ in range(n))
            queued = len(slow)
            new_fast = groebner._gebauer_moller(fast, leads, lead)
            new_slow = naive_gebauer_moller(slow, leads, lead)
            dropped += queued - len(slow)
            pruned += len(leads) - len(new_slow)
            assert new_fast == new_slow
            for gamma, i in new_slow.items():
                fast[(i, k)] = slow[(i, k)] = gamma
            assert fast == slow
            leads.append(lead)
            for ij in rng.sample(sorted(slow), len(slow) // 3):
                del fast[ij], slow[ij]
    assert dropped > 0 and pruned > 0


def _multiply_every_new_element(monkeypatch):
    """Make right closure multiply every new element, minimal or not, as
    the engine did before minimal closure; inter-reduction still drops
    the non-minimal elements."""
    minimal, inter_reduce = groebner._minimal, groebner._inter_reduce

    def every(leads, start=0):
        return list(range(start, len(leads)))

    def reduce_minimal(*args):
        monkeypatch.setattr(groebner, "_minimal", minimal)
        try:
            return inter_reduce(*args)
        finally:
            monkeypatch.setattr(groebner, "_minimal", every)

    monkeypatch.setattr(groebner, "_minimal", every)
    monkeypatch.setattr(groebner, "_inter_reduce", reduce_minimal)


def test_right_multiples_only_of_minimal_elements(monkeypatch):
    """No right multiple is formed of a new element whose lead another
    lead divides, and fewer are formed than when every new element is
    multiplied."""
    pres = _algebra("qplane_q2_gf5.alg")
    rng = random.Random(11)
    inputs = [
        [random_polynomial(pres, rng, 4, 4) for _ in range(3)] for _ in range(10)
    ]
    completion, multiply_raw = groebner._completion, groebner._multiply_raw
    formed = []  # (raw pairs of the left factor, basis it was formed against)
    bases = []

    def spy_completion(*args):
        out = completion(*args)
        bases.append([g for g, _ in out[1]])
        return out

    def spy_multiply_raw(pres, f_raw, g_raw, out):
        formed.append((f_raw, bases[-1]))
        return multiply_raw(pres, f_raw, g_raw, out)

    monkeypatch.setattr(groebner, "_completion", spy_completion)
    monkeypatch.setattr(groebner, "_multiply_raw", spy_multiply_raw)
    minimal = [two_sided_saturate(gens).basis for gens in inputs]
    assert formed
    for f_raw, basis in formed:
        k = next(k for k, g in enumerate(basis) if g.raw is f_raw)
        lead = leading_exp(basis[k])
        assert not any(
            divides(leading_exp(g), lead)
            and (leading_exp(g) != lead or j < k)
            for j, g in enumerate(basis)
            if j != k
        )
    count = len(formed)

    formed.clear()
    _multiply_every_new_element(monkeypatch)
    assert [two_sided_saturate(gens).basis for gens in inputs] == minimal
    assert count < len(formed)


QSPACE3_OP = (
    "(-2-2*i)*x*y + x + (1+2*i)*z",
    "(-2-i)*x*y + i*x*z + (1-i)*y^2",
)


def test_minimal_closure_decides_within_the_budget(monkeypatch):
    """With every new element multiplied, this saturation runs out of its
    pair budget; with the minimal ones only it is decided, and its basis
    is the oracle's."""
    pres = _algebra("qspace3.alg")
    gens = [parse_polynomial(t, pres) for t in QSPACE3_OP]
    H = two_sided_saturate(gens, budget=Budget(6, 40, 6))
    assert H.status == "proper"
    assert list(H.basis) == naive_saturate(gens)
    _multiply_every_new_element(monkeypatch)
    H = two_sided_saturate(gens, budget=Budget(6, 40, 6))
    assert (H.status, H.note) == ("unknown", "pair budget exhausted")


def test_minimal_closure_never_loses_a_decision(monkeypatch):
    """Over seeded inputs under tight budgets, no saturation that is
    decided when every new element is multiplied ends unknown with the
    minimal ones; decided answers agree, and those decided only with the
    minimal ones match the oracle."""
    budgets = (Budget(5, 8, 6), Budget(6, 40, 6))
    cases = []
    for name in ("qspace3.alg", "witten.alg", "gf7space", "zeta5plane"):
        pres = _algebra(name)
        rng = random.Random(zlib.crc32(b"budget sweep " + name.encode()))
        for _ in range(30):
            gens = [
                random_polynomial(pres, rng, 2, 3) for _ in range(rng.randint(2, 3))
            ]
            cases += [(gens, budget) for budget in budgets]
    minimal = [two_sided_saturate(gens, budget=budget) for gens, budget in cases]
    _multiply_every_new_element(monkeypatch)
    every = [two_sided_saturate(gens, budget=budget) for gens, budget in cases]
    assert any(G.status == "unknown" for G in every)
    for (gens, _), H, G in zip(cases, minimal, every):
        if G.status != "unknown":
            assert (H.status, H.basis) == (G.status, G.basis)
        elif H.status != "unknown":
            assert list(H.basis) == naive_saturate(gens)


def test_memo_lives_for_one_computation(qspace3):
    """The computation's caches go when it returns: the presentation keeps
    only its own caches, and repeated calls give identical handles."""
    gens = [parse_polynomial(t, qspace3) for t in QSPACE3_OP]
    before = set(vars(qspace3))

    def handles():
        return (
            left_groebner(gens),
            two_sided_saturate(gens),
            two_sided_saturate(gens, track=True),
        )

    first, again = handles(), handles()
    assert set(vars(qspace3)) == before
    assert {a for a in before if a.startswith("_")} == {
        "_insert_cache", "_point_ideals", "_domain_partition", "_character", "_extension"
    }
    assert first == again


def test_memo_products_are_checked_once_per_key(monkeypatch, qplane_q2):
    """A product x^theta * g is formed, and its lead checked, once per
    (position, lead of the product); that lead theta + lm(g) fixes theta.
    Each new rung of g's ladder costs one variable step, and only the
    products a caller asks for are inverted."""
    g = parse_polynomial("x*y + x + 1", qplane_q2)  # lead x*y
    memo = groebner._Memo(qplane_q2, DEGLEX)
    memo.append(g, leading_exp(g))
    field = qplane_q2.field
    steps = []
    lookups = []
    inverted = []
    var_times, raw_inv = groebner._var_times_dict, field.raw_inv

    class Lookups(dict):
        def get(self, key, default=None):
            lookups.append(key)
            return super().get(key, default)

    def counting(pres, i, d):
        steps.append(i)
        return Lookups(var_times(pres, i, d))

    def inverting(a):
        inverted.append(a)
        return raw_inv(a)

    monkeypatch.setattr(groebner, "_var_times_dict", counting)
    monkeypatch.setattr(field, "raw_inv", inverting)
    prod, inv_lc = memo.product(0, (2, 1))
    assert memo.product(0, (2, 1)) == (prod, inv_lc)
    assert steps == [0]
    assert lookups == [(2, 1)]
    assert inverted == [prod[(2, 1)]]
    assert field.raw_mul(prod[(2, 1)], inv_lc) == field.raw_one

    # y^2 * g climbs two new rungs; x^2 * y^2 * g climbs two more from
    # the cached y^2 * g; only the requested leads are inverted
    requested = [(2, 1), (1, 3), (3, 3), (1, 2)]
    for mu in requested[1:]:
        memo.product(0, mu)
        memo.product(0, mu)
    assert steps == [0, 1, 1, 0, 0]
    assert len(memo.multiples) == 1 + len(steps)
    assert lookups == requested
    assert inverted == [memo.multiples[(0, mu)][mu] for mu in requested]

    # a product missing its lead monomial is refused when first formed
    monkeypatch.setattr(
        groebner, "_var_times_dict", lambda pres, i, d: {(0, 0): field.raw_one}
    )
    with pytest.raises(InputError, match="not multiplicative"):
        memo.product(0, (1, 4))
    with pytest.raises(InputError, match="not multiplicative"):
        divide(parse_polynomial("x^2*y", qplane_q2), [g])
    with pytest.raises(InputError, match="not multiplicative"):
        left_groebner([g, parse_polynomial("y^2 + 1", qplane_q2)])


@pytest.mark.parametrize("name", SHIPPED + ["gf7space", "zeta5plane"])
def test_memo_ladder_matches_one_shot_products(name):
    """Every multiple x^theta * g the memo climbs to, deg theta <= 4 and in
    a seeded order so that walks start from varied cached rungs, equals
    the one-shot product term for term and in the same dict order."""
    pres = _algebra(name)
    rng = random.Random(zlib.crc32(b"ladder " + name.encode()))
    thetas = exponents_up_to(pres.n, 4)
    checked = 0
    while checked < 3:
        g = random_polynomial(pres, rng, 3, 4)
        if g.is_zero():
            continue
        checked += 1
        lead = leading_exp(g)
        memo = groebner._Memo(pres, DEGLEX)
        memo.append(g, lead)
        for theta in rng.sample(thetas, len(thetas)):
            prod, _ = memo.product(0, tuple(t + a for t, a in zip(theta, lead)))
            direct = _mono_times_dict(pres, theta, dict(g.raw))
            assert prod == direct
            assert list(prod.items()) == list(direct.items())


@pytest.mark.parametrize("fixture", ["witten", "qplane_gf5", "qspace3"])
def test_quotients_only_when_read(fixture, request):
    """Public division still records its quotients; a division for the
    remainder alone gives the same remainder and refuses to return
    quotients it never recorded; tracked bases still expand."""
    pres = request.getfixturevalue(fixture)
    rng = random.Random(zlib.crc32(b"quotients " + fixture.encode()))
    orders = (DEGLEX, MonomialOrder("degrevlex"))
    checked = 0
    while checked < 60:
        f = random_polynomial(pres, rng, 4, 4)
        divisors = [d for d in (random_polynomial(pres, rng, 2, 2) for _ in range(3)) if not d.is_zero()]
        if f.is_zero() or not divisors:
            continue
        order = orders[checked % 2]
        checked += 1
        res = divide(f, divisors, order)
        assert res.reconstruct(divisors) == f
        bare = divide(f, divisors, order, _quotients=False)
        assert bare.remainder == res.remainder
        with pytest.raises(RuntimeError, match="no quotients"):
            bare.quotients
    gens = [random_polynomial(pres, rng, 2, 2) for _ in range(2)]
    H = two_sided_saturate([g for g in gens if not g.is_zero()], track=True)
    for element, cert in zip(H.basis, H.certificates):
        assert expand_certificate(cert, H.generators) == element


def test_generators_from_different_presentations_are_refused(qplane_m1, comm2):
    """Mixed generators used to be computed with the first one's
    relations: x*y - 1 over the q=-1 plane with y*x + 1 over the
    commutative plane came out as the unit ideal."""
    gens = [parse_polynomial("x*y - 1", qplane_m1), parse_polynomial("y*x + 1", comm2)]
    for engine in (left_groebner, two_sided_saturate):
        with pytest.raises(InputError, match="different presentation"):
            engine(gens)
        with pytest.raises(InputError, match="different presentation"):
            engine(gens[::-1], track=True)


# -- intersection ------------------------------------------------------------


def test_intersect_commutative_monomials(comm2):
    x, y = (parse_polynomial(t, comm2) for t in ("x", "y"))
    res = intersect_left(left_groebner([x]), left_groebner([y]))
    assert res.complete
    assert set(map(str, res.elements)) == {"x*y"}


def test_intersect_idempotent(comm2):
    f = parse_polynomial("x^2 + y", comm2)
    res = intersect_left(left_groebner([f]), left_groebner([f]))
    assert res.complete
    assert res.elements == [f]


def test_intersect_quantum_plane(qplane_q2):
    x, y = (parse_polynomial(t, qplane_q2) for t in ("x", "y"))
    Hx, Hy = left_groebner([x]), left_groebner([y])
    res = intersect_left(Hx, Hy)
    assert res.complete and res.elements
    assert any(leading_exp(e) == (1, 1) for e in res.elements)
    for e in res.elements:
        assert is_member_left(e, Hx) == "yes"
        assert is_member_left(e, Hy) == "yes"


def test_intersect_budget_flags_incomplete(comm2):
    f = parse_polynomial("x^2 + y", comm2)
    g = parse_polynomial("y^2 - x", comm2)
    res = intersect_left(
        left_groebner([f]), left_groebner([g]), budget=Budget(max_degree=2)
    )
    assert not res.complete
    assert res.note


def test_intersect_requires_proper(qplane_m1):
    unit = two_sided_saturate(
        [parse_polynomial("x-1", qplane_m1), parse_polynomial("y-1", qplane_m1)]
    )
    proper = left_groebner([parse_polynomial("x", qplane_m1)])
    with pytest.raises(InputError):
        intersect_left(unit, proper)


def test_intersect_with_the_zero_ideal_is_zero(qplane_m1, comm2):
    """A handle of no generators, which has no presentation, or of zero
    generators intersects any proper ideal in the zero ideal; a zero ideal
    of one presentation still refuses an ideal of another."""
    x = parse_polynomial("x", qplane_m1)
    none, zero = left_groebner([]), left_groebner([Polynomial.zero(qplane_m1)])
    for I, J in [(none, none), (none, left_groebner([x])), (left_groebner([x]), none),
                 (zero, none), (zero, left_groebner([x]))]:
        assert intersect_left(I, J) == ([], True, "")
    with pytest.raises(InputError, match="^ideals over different presentations$"):
        intersect_left(zero, left_groebner([parse_polynomial("x", comm2)]))


def test_katsura3_commutative_groebner(QQ):
    """A standard 3-variable zero-dimensional system completes quickly with
    a reduced basis; soundness via certificates, completeness via random
    combinations."""
    C3 = Presentation(QQ, ("x", "y", "z"))
    gens = [
        parse_polynomial(t, C3)
        for t in (
            "x + 2*y + 2*z - 1",
            "x^2 + 2*y^2 + 2*z^2 - x",
            "2*x*y + 2*y*z - y",
        )
    ]
    H = left_groebner(gens, track=True)
    assert H.status == "proper" and len(H.basis) == 4
    for element, cert in zip(H.basis, H.certificates):
        assert expand_certificate(cert, H.generators) == element
    # reduced: no element's lead divides another's terms
    leads = [leading_exp(g) for g in H.basis]
    for k, g in enumerate(H.basis):
        for exp, _ in g.terms:
            for j, le in enumerate(leads):
                if j != k:
                    assert any(l > e for l, e in zip(le, exp))
    rng = random.Random(303)
    for _ in range(20):
        f = Polynomial.zero(C3)
        for g in gens:
            f = f + multiply(random_polynomial(C3, rng, 2, 2), g)
        assert is_member_left(f, H) == "yes"
    assert is_member_left(Polynomial.one(C3), H) == "no"


# -- commutative cross-check -------------------------------------------------


def test_commutative_membership_vs_span_oracle(comm2, comm2_gf5):
    """Engine membership answers match the naive span oracle up to degree 6."""
    for pres in (comm2, comm2_gf5):
        rng = random.Random(41)
        for _ in range(20):
            gens = [
                random_polynomial(pres, rng, 3, 3)
                for _ in range(rng.randint(1, 3))
            ]
            gens = [g for g in gens if not g.is_zero()]
            if not gens:
                continue
            H = left_groebner(gens)
            # constructed member within the span bound
            f = Polynomial.zero(pres)
            for g in gens:
                f = f + multiply(random_polynomial(pres, rng, 2, 2), g)
            if not f.is_zero() and f.degree() <= 6:
                assert is_member_left(f, H) == "yes"
                assert two_sided_span_membership(f, gens, 6)
            # random probe: span-yes must imply engine-yes
            probe = random_polynomial(pres, rng, 3, 3)
            if probe.is_zero() or probe.degree() > 6:
                continue
            span_says = two_sided_span_membership(probe, gens, 6)
            engine_says = is_member_left(probe, H) == "yes"
            if span_says:
                assert engine_says
