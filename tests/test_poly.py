"""Monomial orders, the rewriting engine, and polynomial ring axioms."""

import random
import zlib

import pytest
from hypothesis import given, strategies as st

from oracles import naive_commutative_multiply
from skewpbw.geometry import random_polynomial
from skewpbw.poly import (
    DEGLEX,
    DEGREVLEX,
    MonomialOrder,
    Polynomial,
    commute_scalar,
    compare_monomials,
    deglex_key,
    divides,
    exp_max,
    exp_sub,
    find_divisor,
    leading_data,
    monomial_divides,
    monomial_product,
    multiply,
    parse_polynomial,
)
from skewpbw.presentation import Presentation
from skewpbw.scalars import AutomorphismSpec, FieldSpec, get_field

SHIPPED = ["witten", "weyl_z", "qplane_m1", "qplane_q2", "qplane_gf5", "qspace3", "comm2"]


def test_compare_monomials_examples():
    assert compare_monomials(DEGLEX, (2, 1), (1, 2)) > 0
    assert compare_monomials(DEGLEX, (0, 0), (0, 0)) == 0
    block = MonomialOrder.block([0], 2)
    assert compare_monomials(block, (1, 0), (0, 5)) > 0
    with pytest.raises(ValueError):
        compare_monomials(DEGLEX, (1, 0), (1, 0, 0))


def test_deglex_spec_rule():
    # degree first, then leftmost strictly larger coordinate
    assert compare_monomials(DEGLEX, (1, 1, 0), (0, 0, 3)) < 0
    assert compare_monomials(DEGLEX, (2, 0, 1), (2, 1, 0)) < 0


def test_degrevlex_differs_from_deglex():
    # xz vs y^2: deglex prefers xz (leftmost), degrevlex prefers y^2
    assert compare_monomials(DEGLEX, (1, 0, 1), (0, 2, 0)) > 0
    assert compare_monomials(DEGREVLEX, (1, 0, 1), (0, 2, 0)) < 0
    assert compare_monomials(DEGREVLEX, (1, 1, 0), (2, 0, 0)) < 0


def test_monomial_divides_examples():
    assert monomial_divides((0, 1, 0), (0, 1, 2)) == (0, 0, 2)
    assert monomial_divides((1, 0), (0, 1)) is None
    assert monomial_divides((0, 0), (3, 4)) == (3, 4)


@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=1, max_size=6))
def test_exponent_helpers_consistency(pairs):
    a, b = tuple(x for x, _ in pairs), tuple(y for _, y in pairs)
    assert exp_sub(a, b) == tuple(x - y for x, y in zip(a, b))
    assert exp_max(a, b) == tuple(max(x, y) for x, y in zip(a, b))
    assert divides(a, b) == all(x <= y for x, y in zip(a, b))
    assert find_divisor([b, a], a) == (0 if divides(b, a) else 1)
    # deglex key: degree first, then leftmost larger entry wins
    if deglex_key(a) > deglex_key(b):
        assert sum(a) > sum(b) or (sum(a) == sum(b) and a > b)


def test_commute_scalar_examples(qplane_q2, QQ):
    r, p = commute_scalar(qplane_q2, (3, 0), QQ.from_int(5))
    assert r == QQ.from_int(5) and p.is_zero()

    G = get_field(FieldSpec.gaussian())
    pres = Presentation(
        G, ("x", "y"), sigma=(AutomorphismSpec.conjugation(), AutomorphismSpec.identity())
    )
    r1, p1 = commute_scalar(pres, (1, 0), G.i)
    assert r1 == -G.i and p1.is_zero()
    r2, _ = commute_scalar(pres, (2, 0), G.i)
    assert r2 == G.i


def test_monomial_product_examples(qspace3, witten, QQ):
    QI = qspace3.field
    c, p = monomial_product(qspace3, (0, 1, 0), (1, 0, 0))
    assert c == QI.from_int(2) * QI.i and p.is_zero()

    c, p = monomial_product(witten, (0, 0, 1), (1, 0, 0))
    assert c == QQ.one
    assert str(p) == "-x"

    c, p = monomial_product(witten, (1, 0, 0), (1, 0, 0))
    assert c == QQ.one and p.is_zero()


def test_multiply_examples(witten, weyl_z):
    x, y, z = (Polynomial.variable(witten, k) for k in range(3))
    assert str(z * x) == "x*z - x"
    wx, wy, _ = (Polynomial.variable(weyl_z, k) for k in range(3))
    assert (wx - 1) * wy - wy * (wx - 1) == Polynomial.one(weyl_z)
    f = parse_polynomial("x^2*y + 3*z - 1/2", witten)
    assert f * Polynomial.one(witten) == f
    assert Polynomial.one(witten) * f == f


def test_leading_data_examples(witten, QQ):
    f = parse_polynomial("x^2*y + y*z^2 + x*z", witten)
    exp, lc, lt = leading_data(DEGLEX, f)
    assert exp == (2, 1, 0) and lc == QQ.one
    assert leading_data(DEGLEX, Polynomial.zero(witten)) is None
    g = parse_polynomial("7", witten)
    exp, lc, _ = leading_data(DEGLEX, g)
    assert exp == (0, 0, 0) and lc == QQ.from_int(7)


@pytest.mark.parametrize("fixture", SHIPPED)
def test_ring_axioms_random(fixture, request):
    pres = request.getfixturevalue(fixture)
    rng = random.Random(zlib.crc32(fixture.encode()))
    for _ in range(500):
        f = random_polynomial(pres, rng, max_degree=4, max_terms=3)
        g = random_polynomial(pres, rng, max_degree=4, max_terms=3)
        h = random_polynomial(pres, rng, max_degree=4, max_terms=3)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert (f + g) * h == f * h + g * h


@pytest.mark.parametrize("fixture", SHIPPED)
def test_order_compatibility(fixture, request):
    pres = request.getfixturevalue(fixture)
    rng = random.Random(7)
    n = pres.n
    for order in (DEGLEX, DEGREVLEX):
        for _ in range(200):
            a = tuple(rng.randint(0, 3) for _ in range(n))
            b = tuple(rng.randint(0, 3) for _ in range(n))
            if order.compare(a, b) <= 0:
                continue
            g = tuple(rng.randint(0, 2) for _ in range(n))
            l = tuple(rng.randint(0, 2) for _ in range(n))
            left = multiply(
                multiply(Polynomial.monomial(pres, g), Polynomial.monomial(pres, a)),
                Polynomial.monomial(pres, l),
            )
            right = multiply(
                multiply(Polynomial.monomial(pres, g), Polynomial.monomial(pres, b)),
                Polynomial.monomial(pres, l),
            )
            assert (
                order.compare(left.leading(order)[0], right.leading(order)[0]) > 0
            )


@pytest.mark.parametrize("fixture", SHIPPED)
def test_monomial_product_contract(fixture, request):
    """c*x^(a+b) + p rebuilt through multiply reproduces monomial_product."""
    pres = request.getfixturevalue(fixture)
    rng = random.Random(13)
    n = pres.n
    for _ in range(100):
        a = tuple(rng.randint(0, 3) for _ in range(n))
        b = tuple(rng.randint(0, 3) for _ in range(n))
        c, p = monomial_product(pres, a, b)
        assert not c.is_zero()
        if not p.is_zero():
            assert p.degree() < sum(a) + sum(b)
        rebuilt = Polynomial.monomial(
            pres, tuple(x + y for x, y in zip(a, b)), c
        ) + p
        direct = multiply(
            Polynomial.monomial(pres, a), Polynomial.monomial(pres, b)
        )
        assert rebuilt == direct


@pytest.mark.parametrize("fixture", SHIPPED)
def test_domain_lc_product(fixture, request):
    """lc(fg) is the sigma-twisted product of leading data, never zero."""
    pres = request.getfixturevalue(fixture)
    rng = random.Random(17)
    for _ in range(100):
        f = random_polynomial(pres, rng, 3, 3)
        g = random_polynomial(pres, rng, 3, 3)
        if f.is_zero() or g.is_zero():
            continue
        fg = f * g
        ea, ca = f.leading(DEGLEX)
        eb, cb = g.leading(DEGLEX)
        cab, _ = monomial_product(pres, ea, eb)
        expect = ca * pres.sigma_power_apply(ea, cb) * cab
        exp, lc = fg.leading(DEGLEX)
        assert exp == tuple(x + y for x, y in zip(ea, eb))
        assert lc == expect and not lc.is_zero()
        assert fg.degree() == f.degree() + g.degree()


def test_commutative_matches_convolution(comm2, comm2_gf5):
    for pres in (comm2, comm2_gf5):
        rng = random.Random(23)
        for _ in range(200):
            f = random_polynomial(pres, rng, 4, 4)
            g = random_polynomial(pres, rng, 4, 4)
            assert multiply(f, g) == naive_commutative_multiply(f, g)


def test_mixed_scalar_polynomial_operators(qplane_q2, QQ):
    f = parse_polynomial("x + y", qplane_q2)
    half = QQ.from_fraction(__import__("fractions").Fraction(1, 2))
    assert half * f == f.scale(half)
    assert f * half == multiply(f, Polynomial.constant(qplane_q2, half))
    assert half + f == f + half
    assert (half - f) == -(f - half)
    assert 2 * f == f + f
    assert 1 - f == Polynomial.one(qplane_q2) - f


@pytest.mark.parametrize("fixture", ["witten", "conj_qplane"])
def test_power_is_repeated_product(fixture, request):
    pres = request.getfixturevalue(fixture)
    rng = random.Random(zlib.crc32(fixture.encode()))
    for _ in range(4):
        f = random_polynomial(pres, rng, max_degree=2, max_terms=2)
        product = Polynomial.one(pres)
        for k in range(8):
            assert f ** k == product
            product = product * f


def test_sigma_twisted_coefficients_pass_variables():
    G = get_field(FieldSpec.gaussian())
    pres = Presentation(
        G,
        ("x", "y"),
        sigma=(AutomorphismSpec.conjugation(), AutomorphismSpec.identity()),
    )
    x, y = Polynomial.variable(pres, 0), Polynomial.variable(pres, 1)
    i_const = Polynomial.constant(pres, G.i)
    # x * i = conj(i) * x = -i x
    assert x * i_const == Polynomial.monomial(pres, (1, 0), -G.i)
    assert y * i_const == Polynomial.monomial(pres, (0, 1), G.i)
