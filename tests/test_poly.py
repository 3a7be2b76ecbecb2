"""Monomial orders, the rewriting engine, and polynomial ring axioms."""

import operator
import random
import zlib

import pytest
from hypothesis import given, strategies as st

from conftest import algebra_path
from oracles import naive_commutative_multiply, naive_word_multiply, random_polynomial
from skewpbw import geometry, groebner, poly
from skewpbw.groebner import left_groebner
from skewpbw.poly import (
    DEGLEX,
    DEGREVLEX,
    MonomialOrder,
    Polynomial,
    deglex_key,
    divides,
    exp_sub,
    find_divisor,
    multiply,
    parse_polynomial,
)
from skewpbw.presentation import Presentation, Relation, load_presentation_file
from skewpbw.scalars import FieldSpec, InputError, Scalar, get_field

SHIPPED = ["witten", "weyl_z", "qplane_m1", "qplane_q2", "qplane_gf5", "qspace3", "comm2"]


def test_compare_monomials_examples():
    assert DEGLEX.key((2, 1)) > DEGLEX.key((1, 2))
    assert DEGLEX.key((0, 0)) == DEGLEX.key((0, 0))
    block = MonomialOrder.block([0], 2)
    assert block.key((1, 0)) > block.key((0, 5))


@pytest.mark.parametrize("index", [5, -1])
def test_block_order_refuses_an_index_outside_the_variables(index):
    """An index outside 0..n-1 is refused, not dropped: dropping it would
    leave deglex under the name `block`."""
    with pytest.raises(InputError, match=f"block order index {index} "):
        MonomialOrder.block([index], 2)


def test_deglex_spec_rule():
    # degree first, then leftmost strictly larger coordinate
    assert DEGLEX.key((1, 1, 0)) < DEGLEX.key((0, 0, 3))
    assert DEGLEX.key((2, 0, 1)) < DEGLEX.key((2, 1, 0))


def test_degrevlex_differs_from_deglex():
    # xz vs y^2: deglex prefers xz (leftmost), degrevlex prefers y^2
    assert DEGLEX.key((1, 0, 1)) > DEGLEX.key((0, 2, 0))
    assert DEGREVLEX.key((1, 0, 1)) < DEGREVLEX.key((0, 2, 0))
    assert DEGREVLEX.key((1, 1, 0)) < DEGREVLEX.key((2, 0, 0))


def test_monomial_divides_examples():
    assert divides((0, 1, 0), (0, 1, 2)) and exp_sub((0, 1, 2), (0, 1, 0)) == (0, 0, 2)
    assert not divides((1, 0), (0, 1))
    assert divides((0, 0), (3, 4))


def test_exponent_helpers_consistency():
    """Run inside a plain test, as every `given` function here is: a
    failure then reaches pytest as a plain assertion."""

    @given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=1, max_size=6))
    def check(pairs):
        a, b = tuple(x for x, _ in pairs), tuple(y for _, y in pairs)
        assert exp_sub(a, b) == tuple(x - y for x, y in zip(a, b))
        assert divides(a, b) == all(x <= y for x, y in zip(a, b))
        assert find_divisor([b, a], a) == (0 if divides(b, a) else 1)
        # deglex key: degree first, then leftmost larger entry wins
        if deglex_key(a) > deglex_key(b):
            assert sum(a) > sum(b) or (sum(a) == sum(b) and a > b)

    check()


def _monomial_times(pres, alpha, other):
    return multiply(Polynomial.monomial(pres, alpha), other)


def test_commute_scalar_examples(qplane_q2, QQ):
    """x^alpha * r = sigma^alpha(r) * x^alpha."""
    five = Polynomial.constant(qplane_q2, QQ.from_int(5))
    assert _monomial_times(qplane_q2, (3, 0), five) == Polynomial.monomial(
        qplane_q2, (3, 0), QQ.from_int(5)
    )

    G = get_field(FieldSpec.gaussian())
    pres = Presentation(G, ("x", "y"), sigma=(-1, 1))
    i = G.primitive()
    i_const = Polynomial.constant(pres, i)
    assert _monomial_times(pres, (1, 0), i_const) == Polynomial.monomial(pres, (1, 0), -i)
    assert _monomial_times(pres, (2, 0), i_const) == Polynomial.monomial(pres, (2, 0), i)


def test_monomial_product_examples(qspace3, witten, QQ):
    QI = qspace3.field
    y = Polynomial.monomial(qspace3, (0, 1, 0))
    assert multiply(y, Polynomial.variable(qspace3, 0)) == Polynomial.monomial(
        qspace3, (1, 1, 0), QI.from_int(2) * QI.primitive()
    )

    z, x = Polynomial.variable(witten, 2), Polynomial.variable(witten, 0)
    assert str(multiply(z, x)) == "x*z - x"
    assert multiply(x, x) == Polynomial.monomial(witten, (2, 0, 0))


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
    assert f.leading(DEGLEX) == ((2, 1, 0), QQ.one.value)
    assert Polynomial.zero(witten).leading(DEGLEX) is None
    seven = QQ.from_int(7).value
    assert parse_polynomial("7", witten).leading(DEGLEX) == ((0, 0, 0), seven)


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
            if order.key(a) <= order.key(b):
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
                order.key(left.leading(order)[0]) > order.key(right.leading(order)[0])
            )


@pytest.mark.parametrize("fixture", SHIPPED)
def test_monomial_product_contract(fixture, request):
    """x^a * x^b = c*x^(a+b) + p with c nonzero and deg p < |a| + |b|, as
    word rewriting gives it."""
    pres = request.getfixturevalue(fixture)
    rng = random.Random(13)
    n = pres.n
    for _ in range(100):
        a = tuple(rng.randint(0, 3) for _ in range(n))
        b = tuple(rng.randint(0, 3) for _ in range(n))
        xa, xb = Polynomial.monomial(pres, a), Polynomial.monomial(pres, b)
        direct = multiply(xa, xb)
        top = tuple(x + y for x, y in zip(a, b))
        exp, c = direct.leading(DEGLEX)
        assert exp == top and c != pres.field.raw_zero
        p = direct - Polynomial.monomial(pres, top, Scalar(pres.field, c))
        assert p.is_zero() or p.degree() < sum(top)
        assert direct == naive_word_multiply(xa, xb)


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
        field = pres.field
        ea, ca = f.leading(DEGLEX)
        eb, cb = g.leading(DEGLEX)
        _, cab = multiply(
            Polynomial.monomial(pres, ea), Polynomial.monomial(pres, eb)
        ).leading(DEGLEX)
        k = pres.sigma_power(ea)  # x^ea * cb = sigma^ea(cb) * x^ea
        cb_past = cb if k == 1 else field.raw_galois(cb, k)
        expect = Scalar(field, ca) * Scalar(field, cb_past) * Scalar(field, cab)
        exp, lc = fg.leading(DEGLEX)
        lc = Scalar(field, lc)
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


def test_polynomials_from_scalars_refuse_another_field(qplane_gf5, QQ):
    """`Polynomial(pres, terms)` and `from_dict` coerce every coefficient
    into the presentation's field: a Q scalar in a GF(5) polynomial is
    refused, where `from_dict` used to keep its raw value (3, 1)."""
    x, three = (1, 0), qplane_gf5.field.from_int(3)
    assert str(Polynomial.from_dict(qplane_gf5, {x: three})) == "3*x"
    assert Polynomial.from_dict(qplane_gf5, {x: three}) == Polynomial(qplane_gf5, [(x, three)])
    for build in (Polynomial.from_dict, lambda pres, d: Polynomial(pres, d.items())):
        with pytest.raises(InputError, match="^scalar of Q used in gf:5$"):
            build(qplane_gf5, {x: QQ.from_int(3)})


def test_mixed_presentations_negative_powers_and_non_constants_are_refused(
    qplane_q2, qplane_m1
):
    """A sum or product across presentations, a negative power and the
    constant value of a non-constant polynomial raise InputError."""
    f, g = parse_polynomial("x + 1", qplane_q2), parse_polynomial("x + 1", qplane_m1)
    with pytest.raises(InputError, match="^polynomials from different presentations$"):
        f + g
    with pytest.raises(InputError, match="^polynomials from different presentations$"):
        multiply(f, g)
    with pytest.raises(InputError, match="^negative power of a polynomial$"):
        f ** -1
    with pytest.raises(InputError, match="^not a constant polynomial$"):
        f.constant_value()


@pytest.mark.parametrize("exp", [(1,), (-1, 0), (1, 0, 0), (1.5, 0), (True, 0), "xy", 7])
def test_exponents_outside_the_monomials_are_refused(exp, QQ):
    """`Polynomial(pres, terms)`, `from_dict` and `monomial` refuse an
    exponent that is not n ints >= 0. On y*x = 2*x*y, (1,) times x used to
    raise IndexError, (-1, 0) printed x^-1 with x * x^-1 = 1, and
    (1, 0, 0) printed x but was not equal to x."""
    pres = Presentation(QQ, ("x", "y"), relations={(0, 1): Relation(2, (), 0)})
    one = QQ.one
    builds = [
        lambda: Polynomial(pres, [(exp, one)]),
        lambda: Polynomial.from_dict(pres, {exp: one}),
        lambda: Polynomial.monomial(pres, exp),
    ]
    for build in builds:
        with pytest.raises(InputError, match=r"^exponent .* is not 2 ints >= 0$"):
            build()


def test_repeated_exponents_are_refused(qplane_q2, QQ):
    """Two terms of one exponent are refused, where they printed the
    non-canonical x + x; a list exponent reads as its tuple."""
    with pytest.raises(InputError, match="^a polynomial's terms repeat an exponent$"):
        Polynomial(qplane_q2, [((1, 0), QQ.one), ((1, 0), QQ.one)])
    f = Polynomial(qplane_q2, [([1, 0], QQ.one), ((0, 1), QQ.from_int(2))])
    assert f == parse_polynomial("x + 2*y", qplane_q2)
    assert Polynomial.monomial(qplane_q2, [0, 3]) == parse_polynomial("y^3", qplane_q2)


@pytest.mark.parametrize("kind, message", [
    ("lex", "unknown monomial order 'lex'"),
    ("Deglex", "unknown monomial order 'Deglex'"),
    ("block", "a block order needs a mask"),
])
def test_unknown_monomial_orders_are_refused(kind, message):
    """An order is checked when it is built: "lex" used to be accepted and
    fail at its first key with a TypeError."""
    with pytest.raises(InputError, match=f"^{message}$"):
        MonomialOrder(kind)
    assert MonomialOrder("block", (1, 0)).key((0, 5)) < MonomialOrder("block", (1, 0)).key((1, 0))


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


@pytest.mark.parametrize("spec", ["gf:7", "Q(i)"])
@pytest.mark.parametrize("k", [0, 1, 2, 3, 7, 8, 1000])
def test_square_and_multiply_is_repeated_product(spec, k):
    """Each power the package takes runs through `scalars.power`: a Scalar
    power, a Polynomial power, the closed-form insertion x_w * x^e on a
    quasi-commutative presentation, and a gap d = k in
    `geometry._monomial_values`. Each equals k repeated products; the
    insertion, w * x^k * y = c_xw^k * c_yw * x^k*y*w, is checked against
    word rewriting."""
    field = get_field(FieldSpec.from_string(spec))
    g = field.primitive() or field.from_int(3)  # i on Q(i), 3 on GF(7)
    s = g + 1

    def repeated(mul, base, acc):
        for _ in range(k):
            acc = mul(base, acc)
        return acc

    assert s ** k == repeated(operator.mul, s, field.one)
    zero = field.zero
    rels = {
        ij: Relation(c, (), zero)
        for ij, c in zip([(0, 1), (0, 2), (1, 2)], [g, s, field.from_int(-1)])
    }
    pres = Presentation(field, ("x", "y", "w"), relations=rels)
    assert pres.quasi_commutative and pres.sigma_all_identity
    f = Polynomial.monomial(pres, (1, 1, 0), s)
    assert f ** k == repeated(multiply, f, Polynomial.one(pres))
    w, e = Polynomial.variable(pres, 2), (k, 1, 0)
    inserted = Polynomial.from_raw(pres, poly._insert_var(pres, 2, e).items())
    assert inserted == naive_word_multiply(w, Polynomial.monomial(pres, e))
    points = [v.value for v in (s, g, field.from_int(-1), zero)]
    columns = [points, [field.raw_one] * len(points)]
    values = geometry._monomial_values(field, columns, len(points), [(k, 0)])
    assert values[(k, 0)] == [repeated(field.raw_mul, z, field.raw_one) for z in points]


def test_sigma_twisted_coefficients_pass_variables():
    G = get_field(FieldSpec.gaussian())
    pres = Presentation(
        G,
        ("x", "y"),
        sigma=(-1, 1),
    )
    x, y = Polynomial.variable(pres, 0), Polynomial.variable(pres, 1)
    i_const = Polynomial.constant(pres, G.primitive())
    # x * i = conj(i) * x = -i x
    assert x * i_const == Polynomial.monomial(pres, (1, 0), -G.primitive())
    assert y * i_const == Polynomial.monomial(pres, (0, 1), G.primitive())


class _RecordingCache(dict):
    """An insertion cache that records, at each store, by how much its size
    exceeds the stores made since the current product began, and which
    keys were stored."""

    def __init__(self):
        super().__init__()
        self.stores = self.clears = self.begun = 0
        self.excess = 0
        self.keys = set()

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self.stores += 1
        self.keys.add(key)
        self.excess = max(self.excess, len(self) - (self.stores - self.begun))

    def clear(self):
        self.clears += 1
        super().clear()


def test_insert_cache_stays_within_its_bound(monkeypatch):
    """With the bound patched small, products and a Witten left GB are
    unchanged, the cache is cleared, and it never holds more than the bound
    plus the entries of the product in progress: one x^alpha * g, or one
    climb of a Groebner memo's ladder."""
    bound = 8
    path = algebra_path("witten.alg")
    texts = ("x^2*y + x*z", "y*z - x")

    def run(pres):
        rng = random.Random(zlib.crc32(b"insert cache bound"))
        products = []
        for _ in range(12):
            f = random_polynomial(pres, rng, max_degree=3, max_terms=3)
            g = random_polynomial(pres, rng, max_degree=3, max_terms=3)
            products.append(multiply(f, g).raw)
        H = left_groebner([parse_polynomial(t, pres) for t in texts])
        return products, H.status, [g.raw for g in H.basis]

    expected = run(load_presentation_file(path))

    pres = load_presentation_file(path)
    cache = pres._insert_cache = _RecordingCache()
    mono_times, multiple = poly._mono_times_dict, groebner._Memo._multiple

    def begin():
        cache.begun = cache.stores

    def tracked_mono_times(pres, alpha, d):
        begin()
        return mono_times(pres, alpha, d)

    def tracked_multiple(memo, k, mu):
        begin()
        return multiple(memo, k, mu)

    monkeypatch.setattr(poly, "MAX_INSERT_CACHE", bound)
    monkeypatch.setattr(poly, "_mono_times_dict", tracked_mono_times)
    monkeypatch.setattr(groebner._Memo, "_multiple", tracked_multiple)
    assert run(pres) == expected
    assert cache.clears > 0
    assert cache.excess <= bound


def test_insert_cache_does_not_thrash(monkeypatch):
    """A product whose own insertions outgrow the bound writes each entry
    once: on weyl_z, y^150 * x^150 makes 45,299 insertions, and with the
    bound at 20,000 none is cleared and made again."""
    pres = load_presentation_file(algebra_path("weyl_z.alg"))
    f, g = parse_polynomial("y^150", pres), parse_polynomial("x^150", pres)
    expected = multiply(f, g).raw
    cache = pres._insert_cache = _RecordingCache()
    monkeypatch.setattr(poly, "MAX_INSERT_CACHE", 20_000)
    assert multiply(f, g).raw == expected
    assert cache.stores == len(cache.keys) == len(cache) == 45_299
    assert cache.clears == 0
    # the next product starts by clearing the full cache
    multiply(g, f)
    assert cache.clears == 1
