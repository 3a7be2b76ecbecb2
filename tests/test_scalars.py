"""Field arithmetic, canonical forms and automorphisms."""

import math
import random
import zlib
from fractions import Fraction

import pytest

import oracles
from conftest import algebra_path
from oracles import random_polynomial
from skewpbw import scalars
from skewpbw.groebner import Budget, left_groebner, two_sided_saturate
from skewpbw.poly import parse_polynomial
from skewpbw.presentation import Presentation, load_presentation
from skewpbw.scalars import (
    FieldError,
    FieldMismatchError,
    FieldSpec,
    Scalar,
    cyclotomic_polynomial,
    galois_exponent,
    get_field,
    make_field,
)

ALL_SPECS = [
    FieldSpec.rationals(),
    FieldSpec.gaussian(),
    FieldSpec.cyclotomic(3),
    FieldSpec.cyclotomic(4),
    FieldSpec.cyclotomic(12),
    FieldSpec.prime(5),
    FieldSpec.prime(2),
]


def _random_scalar(field, rng):
    spec = field.spec
    if spec.kind == "gf":
        return field.from_int(rng.randrange(spec.param))
    s = field.from_fraction(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
    prim = field.primitive()
    if prim is not None:
        s = s + field.from_int(rng.randint(-3, 3)) * prim
        if spec.kind == "cyclotomic" and spec.param > 4:
            s = s + field.from_int(rng.randint(-2, 2)) * prim * prim
    return s


def test_make_field_examples():
    assert get_field(FieldSpec.prime(5)).p == 5
    c4 = get_field(FieldSpec.cyclotomic(4))
    assert c4.zeta * c4.zeta == c4.from_int(-1)
    with pytest.raises(FieldError):
        make_field(FieldSpec.prime(4))
    with pytest.raises(FieldError):
        make_field(FieldSpec.prime(1))


def test_scalar_operator_examples(rng):
    Q = get_field(FieldSpec.rationals())
    assert Q.from_fraction(Fraction(1, 2)) + Q.from_fraction(
        Fraction(1, 3)
    ) == Q.from_fraction(Fraction(5, 6))
    C4 = get_field(FieldSpec.cyclotomic(4))
    assert C4.zeta * C4.zeta == C4.from_int(-1)
    F5 = get_field(FieldSpec.prime(5))
    assert F5.from_int(3).inv() == F5.from_int(2)
    with pytest.raises(ZeroDivisionError):
        F5.zero.inv()
    with pytest.raises(FieldMismatchError):
        Q.one + F5.one


@pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
def test_field_axioms_random(spec):
    field = get_field(spec)
    rng = random.Random(zlib.crc32(str(spec).encode()))
    for _ in range(1000):
        a = _random_scalar(field, rng)
        b = _random_scalar(field, rng)
        c = _random_scalar(field, rng)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        assert a + field.zero == a
        assert a * field.one == a
        assert a + (-a) == field.zero
        if not a.is_zero():
            assert a * a.inv() == field.one


@pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
def test_canonicalization_idempotent(spec):
    # values are canonical on construction; re-coercing is the identity
    field = get_field(spec)
    rng = random.Random(11)
    for _ in range(200):
        a = _random_scalar(field, rng)
        assert field.coerce(a) == a
        assert hash(field.coerce(a)) == hash(a)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 8, 12])
def test_cyclotomic_root_orders(m):
    field = get_field(FieldSpec.cyclotomic(m))
    z = field.zeta
    assert z ** m == field.one
    for j in range(1, m):
        assert z ** j != field.one


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == [-1, 1]
    assert cyclotomic_polynomial(2) == [1, 1]
    assert cyclotomic_polynomial(4) == [1, 0, 1]
    assert cyclotomic_polynomial(3) == [1, 1, 1]
    assert cyclotomic_polynomial(6) == [1, -1, 1]
    assert cyclotomic_polynomial(12) == [1, 0, -1, 0, 1]
    known = {
        5: [1, 1, 1, 1, 1],
        8: [1, 0, 0, 0, 1],
        9: [1, 0, 0, 1, 0, 0, 1],
        10: [1, -1, 1, -1, 1],
        15: [1, -1, 0, 1, -1, 1, 0, -1, 1],
        30: [1, 1, 0, -1, -1, -1, 0, 1, 1],
    }
    for m, coeffs in known.items():
        assert cyclotomic_polynomial(m) == coeffs
    # Phi_105 is the first with a coefficient outside {-1, 0, 1}
    phi105 = cyclotomic_polynomial(105)
    assert len(phi105) == 49 and phi105[7] == -2 and min(phi105) == -2
    hits = scalars._cyclotomic.cache_info().hits
    first = cyclotomic_polynomial(15)
    assert scalars._cyclotomic.cache_info().hits == hits + 1
    # each caller gets its own list: mutating one leaves the cache intact
    first[0] = 99
    assert cyclotomic_polynomial(15) == known[15]
    assert len(cyclotomic_polynomial(1260)) == 289  # phi(1260)


CARMICHAEL = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185]


def test_is_prime_miller_rabin():
    small = [n for n in range(200) if scalars._is_prime(n)]
    assert small == [
        n for n in range(2, 200) if all(n % d for d in range(2, n))
    ]
    for n in CARMICHAEL:
        assert not scalars._is_prime(n)
    # a strong pseudoprime to bases 2, 3, 5 and 7 at once
    assert not scalars._is_prime(3215031751)
    assert scalars._is_prime(2**61 - 1)
    assert scalars._is_prime(2**64 + 13)  # the least prime above 2^64
    assert not scalars._is_prime(2**64 + 1)  # 274177 * 67280421310721
    assert not scalars._is_prime(274177 * 67280421310721)
    with pytest.raises(FieldError, match="3317044064679887385961981"):
        scalars._is_prime(2**127 - 1)
    with pytest.raises(FieldError, match="not prime"):
        make_field(FieldSpec.prime(561))
    assert make_field(FieldSpec.prime(2**61 - 1)).p == 2**61 - 1


def _automorphism(tag, field):
    """The tag's map on Scalars, as sigma_maps of a one-variable presentation."""
    pres = Presentation(field, ("x",), sigma=(galois_exponent(tag, field),))
    fn = pres.sigma_maps[0]
    return (lambda a: a) if fn is None else (lambda a: Scalar(field, fn(a.value)))


def test_automorphism_examples():
    Q = get_field(FieldSpec.rationals())
    v = Q.from_fraction(Fraction(7, 3))
    assert _automorphism("identity", Q)(v) == v
    assert galois_exponent("conj", Q) == 1  # conjugation fixes Q

    G = get_field(FieldSpec.gaussian())
    two_plus_i = G.from_int(2) + G.i
    assert galois_exponent("conj", G) == galois_exponent("galois:3", G) == 3
    assert _automorphism("conj", G)(two_plus_i) == G.from_int(2) - G.i

    C4 = get_field(FieldSpec.cyclotomic(4))
    assert _automorphism("galois:3", C4)(C4.zeta) == -C4.zeta

    with pytest.raises(FieldError):
        galois_exponent("galois:2", C4)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
def test_automorphisms_bijective(spec):
    """Each valid tag's map has the inverse exponent's map as its inverse;
    on GF(p) every valid tag is the identity map."""
    field = get_field(spec)
    rng = random.Random(3)
    tags = ["identity", "id"]
    if spec.kind in ("Q(i)", "cyclotomic", "Q"):
        tags.append("conj")
    if spec.kind == "cyclotomic":
        m = spec.param
        tags.extend(f"galois:{k}" for k in range(1, m) if math.gcd(k, m) == 1)
    if spec.kind == "gf":
        tags.extend(["frobenius:0", "frobenius:1", "frobenius:3"])
    for tag in tags:
        k = galois_exponent(tag, field)
        if spec.kind == "gf":
            assert k == 1 and Presentation(field, ("x",), sigma=(k,)).sigma_maps == (None,)
        auto = _automorphism(tag, field)
        inv = _automorphism(f"galois:{pow(k, -1, field.m)}", field) if k != 1 else auto
        for _ in range(100):
            a = _random_scalar(field, rng)
            assert inv(auto(a)) == a


def test_automorphisms_are_ring_maps():
    C12 = get_field(FieldSpec.cyclotomic(12))
    rng = random.Random(9)
    sigma = _automorphism("galois:5", C12)
    for _ in range(100):
        a = _random_scalar(C12, rng)
        b = _random_scalar(C12, rng)
        assert sigma(a + b) == sigma(a) + sigma(b)
        assert sigma(a * b) == sigma(a) * sigma(b)


ORACLE_SPECS = ["Q", "Q(i)"] + [f"cyclotomic:{m}" for m in (1, 2, 3, 4, 5, 7, 8, 12)]


def _as_fractions(v):
    return tuple(Fraction(n, v[-1]) for n in v[:-1])


def _canonical(fracs):
    """Integer numerators over the least common denominator, gcd 1."""
    den = math.lcm(*(c.denominator for c in fracs))
    nums = [c.numerator * (den // c.denominator) for c in fracs]
    g = math.gcd(*nums, den)
    return tuple(x // g for x in nums) + (den // g,)


def _fraction_value(dim, rng):
    """Zero, integers, small fractions, or dense ~200-bit ones, mixed."""
    shape = rng.choice(("zero", "int", "small", "big", "mixed"))
    out = []
    for _ in range(dim):
        kind = shape if shape != "mixed" else rng.choice(("zero", "int", "small", "big"))
        if kind == "zero" or (kind != "big" and rng.random() < 0.3):
            out.append(Fraction(0))
        elif kind == "int":
            out.append(Fraction(rng.randint(-9, 9)))
        elif kind == "small":
            out.append(Fraction(rng.randint(-9, 9), rng.randint(1, 12)))
        else:
            sign = rng.choice((-1, 1))
            out.append(Fraction(sign * rng.getrandbits(200), rng.getrandbits(200) | 1))
    return tuple(out)


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_number_field_kernel_matches_fraction_oracle(spec):
    """The integer kernel against Fraction arithmetic (power table and
    Euclid for Q(z_m)), with every result in canonical form: den > 0,
    gcd 1, so equal elements have equal tuples and zero is unique."""
    field = get_field(FieldSpec.from_string(spec))
    oracle = oracles.fraction_field(field.spec)
    zero = field.raw_zero
    assert zero == _canonical((Fraction(0),) * field.dim)
    units = [k for k in range(1, field.m + 1) if math.gcd(k, field.m) == 1]
    rng = random.Random(zlib.crc32(spec.encode()))

    def check(got, want):
        assert got[-1] > 0 and math.gcd(*got) == 1
        assert got == _canonical(want) and _as_fractions(got) == want

    for _ in range(120):
        fa, fb = _fraction_value(field.dim, rng), _fraction_value(field.dim, rng)
        a, b = _canonical(fa), _canonical(fb)
        check(field.raw_add(a, b), oracle.add(fa, fb))
        check(field.raw_mul(a, b), oracle.mul(fa, fb))
        check(field.raw_neg(a), oracle.neg(fa))
        check(field.raw_galois(a, -1), oracle.conjugate(fa))
        for k in units:
            check(field.raw_galois(a, k), oracle.galois(fa, k))
        assert field.raw_add(a, field.raw_neg(a)) == zero
        assert field.raw_mul(a, zero) == zero == field.raw_mul(zero, a)
        if any(fa):
            check(field.raw_inv(a), oracle.inv(fa))
            assert field.raw_mul(a, field.raw_inv(a)) == field.raw_one
        else:
            with pytest.raises(ZeroDivisionError):
                field.raw_inv(a)


def test_gaussian_and_cyclotomic4_give_one_basis():
    """Q(i) is Q(z_4): the same inputs give the same reduced bases, printed
    alike up to the symbol i for z."""
    text = open(algebra_path("qspace3.alg")).read().replace("z", "t")
    QI = load_presentation(text)
    C4 = load_presentation(text.replace("field: Q(i)", "field: cyclotomic:4"))
    rng = random.Random(41)
    budget = Budget(max_degree=6, max_pairs=60, max_rounds=4)
    for _ in range(6):
        gens = [str(random_polynomial(QI, rng, 2, 3)) for _ in range(2)]
        for run in (left_groebner, two_sided_saturate):
            hq = run([parse_polynomial(g, QI) for g in gens], budget=budget)
            hc = run([parse_polynomial(g, C4) for g in gens], budget=budget)
            assert hq.status == hc.status
            assert [g.raw for g in hq.basis] == [g.raw for g in hc.basis]
            assert [str(g).replace("i", "z") for g in hq.basis] == [
                str(g) for g in hc.basis
            ]
