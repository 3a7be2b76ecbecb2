"""Field arithmetic, canonical forms and automorphisms."""

import math
import os
import random
import re
import subprocess
import sys
import zlib
from fractions import Fraction

import pytest

import oracles
from conftest import algebra_path
from oracles import random_polynomial
from skewpbw import scalars
from skewpbw.groebner import Budget, left_groebner, two_sided_saturate
from skewpbw.poly import Polynomial, parse_polynomial
from skewpbw.presentation import Presentation, load_presentation
from skewpbw.scalars import (
    FieldSpec,
    InputError,
    Scalar,
    cyclotomic_polynomial,
    galois_exponent,
    get_field,
    make_field,
)

SRC = os.path.join(os.path.dirname(__file__), "..", "src")

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
    assert c4.primitive() * c4.primitive() == c4.from_int(-1)
    with pytest.raises(InputError):
        make_field(FieldSpec.prime(4))
    with pytest.raises(InputError):
        make_field(FieldSpec.prime(1))


def test_scalar_operator_examples(rng):
    Q = get_field(FieldSpec.rationals())
    assert Q.from_fraction(Fraction(1, 2)) + Q.from_fraction(
        Fraction(1, 3)
    ) == Q.from_fraction(Fraction(5, 6))
    C4 = get_field(FieldSpec.cyclotomic(4))
    assert C4.primitive() * C4.primitive() == C4.from_int(-1)
    F5 = get_field(FieldSpec.prime(5))
    assert F5.from_int(3).inv() == F5.from_int(2)
    with pytest.raises(ZeroDivisionError):
        F5.zero.inv()
    with pytest.raises(InputError):
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


def test_coerce_refuses_a_scalar_whose_value_is_not_canonical():
    """A Scalar built directly may hold any value. `Field.coerce` refuses
    one whose value `is_raw` rejects, so the constant 5 over GF(5) no
    longer becomes a polynomial that holds the raw term 5 and is not
    zero; a canonical Scalar passes as it is."""
    GF5, Q, Qi = (get_field(FieldSpec.from_string(s)) for s in ("gf:5", "Q", "Q(i)"))
    refused = [
        (GF5, 5), (GF5, -1), (GF5, True), (GF5, 1.0), (GF5, (1, 1)),
        (Q, (2, 4)), (Q, (1, -2)), (Q, (0, 0)), (Q, 1),
        (Qi, (1, 1)), (Qi, (2, 0, 2)), (Qi, (1, 0, 1.0)),
    ]
    for field, value in refused:
        assert not field.is_raw(value)
        message = f"{value!r} is not a canonical raw value of {field.spec}"
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            field.coerce(Scalar(field, value))
    pres = load_presentation("field: gf:5\nvars: x, y\nrelation: y*x = 2*x*y\n")
    with pytest.raises(InputError, match="^5 is not a canonical raw value of gf:5$"):
        Polynomial.constant(pres, Scalar(GF5, 5))
    for field, value in ((GF5, 4), (Q, (-1, 2)), (Qi, (3, -1, 2))):
        a = Scalar(field, value)
        assert field.is_raw(value) and field.coerce(a) is a


def test_coerce_refuses_a_string():
    """Text is parsed by `poly.parse_scalar`, never coerced."""
    Q = get_field(FieldSpec.rationals())
    with pytest.raises(InputError, match="^cannot coerce '1' into Q$"):
        Q.coerce("1")


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 8, 12])
def test_cyclotomic_root_orders(m):
    field = get_field(FieldSpec.cyclotomic(m))
    z = field.primitive()
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
    first = cyclotomic_polynomial(15)
    # each caller gets its own list: mutating one changes no later answer
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
    with pytest.raises(InputError, match="3317044064679887385961981"):
        scalars._is_prime(2**127 - 1)
    with pytest.raises(InputError, match="not prime"):
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
    two_plus_i = G.from_int(2) + G.primitive()
    assert galois_exponent("conj", G) == galois_exponent("galois:3", G) == 3
    assert _automorphism("conj", G)(two_plus_i) == G.from_int(2) - G.primitive()

    C4 = get_field(FieldSpec.cyclotomic(4))
    assert _automorphism("galois:3", C4)(C4.primitive()) == -C4.primitive()

    with pytest.raises(InputError):
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


EUCLID_SPECS = ["Q", "Q(i)"] + [f"cyclotomic:{m}" for m in (1, 2, 3, 4, 5, 7, 8, 12)]
# Rounds per spec. The other specs are every remaining m with phi(m) <= 8
# and cyclotomic:120, the largest m under MAX_FIELD_DEGREE, so a generated
# kernel of every degree the cap allows up to 8, and the largest, meets the
# oracle. They run fewer rounds and check a^-1 as a * a^-1 = 1: the
# oracle's Euclid takes over a second per field at m = 7.
ORACLE_ROUNDS = (
    {spec: 120 for spec in EUCLID_SPECS}
    | {f"cyclotomic:{m}": 30 for m in (6, 9, 10, 14, 15, 16, 18, 20, 24, 30)}
    | {"cyclotomic:120": 2}
)
ORACLE_SPECS = list(ORACLE_ROUNDS)


def _as_fractions(v):
    return tuple(Fraction(n, v[-1]) for n in v[:-1])


def _canonical(fracs):
    """Integer numerators over the least common denominator, gcd 1."""
    den = math.lcm(*(c.denominator for c in fracs))
    nums = [c.numerator * (den // c.denominator) for c in fracs]
    g = math.gcd(*nums, den)
    return tuple(x // g for x in nums) + (den // g,)


def _fraction_value(dim, rng, shape=None):
    """Zero, integers, small fractions, or dense ~200-bit ones, mixed;
    a random shape unless one is given."""
    shape = shape or rng.choice(("zero", "int", "small", "big", "mixed"))
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

    shape = "big" if field.dim > 8 else None  # two rounds: make them dense
    for _ in range(ORACLE_ROUNDS[spec]):
        fa, fb = _fraction_value(field.dim, rng, shape), _fraction_value(field.dim, rng, shape)
        a, b = _canonical(fa), _canonical(fb)
        check(field.raw_add(a, b), oracle.add(fa, fb))
        check(field.raw_add(a, a), oracle.add(fa, fa))  # equal denominators
        check(field.raw_mul(a, b), oracle.mul(fa, fb))
        check(field.raw_neg(a), oracle.neg(fa))
        check(field.raw_galois(a, -1), oracle.conjugate(fa))
        for k in units:
            check(field.raw_galois(a, k), oracle.galois(fa, k))
        assert field.raw_add(a, field.raw_neg(a)) == zero
        assert field.raw_mul(a, zero) == zero == field.raw_mul(zero, a)
        if not any(fa):
            with pytest.raises(ZeroDivisionError):
                field.raw_inv(a)
        elif spec in EUCLID_SPECS:
            check(field.raw_inv(a), oracle.inv(fa))
            assert field.raw_mul(a, field.raw_inv(a)) == field.raw_one
        else:
            inv = field.raw_inv(a)
            assert inv[-1] > 0 and math.gcd(*inv) == 1
            assert field.raw_mul(a, inv) == field.raw_one


MEMO_SPECS = ["Q(i)", "cyclotomic:5", "cyclotomic:120"]


def _is_inverse(field, a, inv):
    return inv[-1] > 0 and math.gcd(*inv) == 1 and field.raw_mul(a, inv) == field.raw_one


@pytest.mark.parametrize("spec", MEMO_SPECS)
def test_inverse_memo_hit_returns_the_tuple_of_its_miss(spec):
    """An inverse is computed once per value: a miss stores the canonical
    inverse under the value, and a hit, by an equal tuple built anew,
    returns that same tuple. A value over a denominator and its
    numerators over 1 are different values with different entries."""
    field = get_field(FieldSpec.from_string(spec))
    memo = field._inverses
    memo.clear()
    rng = random.Random(zlib.crc32(spec.encode()))
    for _ in range(12):
        fa = tuple(Fraction(rng.randint(-9, 9), rng.randint(2, 12)) for _ in range(field.dim))
        if not any(fa):
            continue
        a = _canonical(fa)
        for v in (a, a[:-1] + (1,)):
            miss = field.raw_inv(v)
            assert memo[v] is miss and _is_inverse(field, v, miss)
            assert field.raw_inv(tuple(list(v))) is miss


@pytest.mark.parametrize("spec", MEMO_SPECS)
def test_inverse_memo_never_stores_zero(spec):
    """0 raises ZeroDivisionError on every call, before and after the memo
    holds entries, and never enters it."""
    field = get_field(FieldSpec.from_string(spec))
    memo = field._inverses
    memo.clear()
    for held in (0, 1):
        for _ in range(3):
            with pytest.raises(ZeroDivisionError, match="inverse of 0"):
                field.raw_inv(field.raw_zero)
        assert len(memo) == held and field.raw_zero not in memo
        field.raw_inv(field.raw_one)


@pytest.mark.parametrize("spec", MEMO_SPECS)
def test_inverse_memo_never_holds_more_than_its_bound(spec):
    """Inverting MAX_INVERSE_MEMO + 40 distinct values k + z: the memo
    grows to the bound, the next miss clears it and starts again, and
    every answer is still the inverse."""
    field = get_field(FieldSpec.from_string(spec))
    memo, bound = field._inverses, scalars.MAX_INVERSE_MEMO
    memo.clear()
    sizes = []
    for k in range(bound + 40):
        a = (k, 1) + (0,) * (field.dim - 2) + (1,)
        assert _is_inverse(field, a, field.raw_inv(a))
        sizes.append(len(memo))
    assert max(sizes) == sizes[bound - 1] == bound and sizes[bound] == 1


def test_rational_mul_and_inv_match_fraction():
    """Q's hand-written mul, with its integer fast path, and inv against
    Fraction on integers and non-integers, zero and negatives included:
    every result is canonical, a positive denominator coprime to the
    numerator, with zero as (0, 1)."""
    values = [
        Fraction(n, d)
        for n in (-(2 ** 70) - 1, -12, -3, -1, 0, 1, 2, 6, 35, 2 ** 64)
        for d in (1, 2, 3, 10, 3 ** 41)
    ]

    def check(got, want):
        assert got[1] > 0 and math.gcd(*got) == 1
        assert got == (want.numerator, want.denominator)

    for a in values:
        ra = (a.numerator, a.denominator)
        for b in values:
            check(scalars._q_mul(ra, (b.numerator, b.denominator)), a * b)
        if a:
            check(scalars._q_inv(ra), 1 / a)
        else:
            with pytest.raises(ZeroDivisionError):
                scalars._q_inv(ra)
    assert scalars._q_mul((0, 1), (-5, 1)) == (0, 1) == scalars._q_mul((-5, 3), (0, 1))


@pytest.mark.parametrize("spec", ["gf:2", "gf:7", "gf:32003"] + ORACLE_SPECS)
def test_vector_kernels_match_scalar_arithmetic(spec):
    """raw_products and raw_combination equal Scalar products and sums
    entry by entry, on empty vectors and on shapes on both sides of
    raw_combination's rule: more entries than terms (one term on 19 and
    on 343 entries, the sums by column), as many (by row) and fewer (17
    terms on one entry, by row). Each shape runs with nonzero
    coefficients, with zeros among them and with zeros only. Over GF(p),
    values near p make an unreduced sum of many products, by row or by
    column, run far past p. Every output entry is canonical: an int in
    range(p), or the number field's unique tuple."""
    field = get_field(FieldSpec.from_string(spec))
    zero = field.raw_zero
    rng = random.Random(zlib.crc32(spec.encode()))
    if field.spec.kind == "gf":
        p = field.p
        near = [0, 1, p - 1, max(p - 2, 0)]

        def draw():
            return rng.choice(near) if rng.random() < 0.5 else rng.randrange(p)

        def canonical(v):
            return type(v) is int and 0 <= v < p
    else:

        def draw():
            shape = rng.choice(("zero", "int", "small"))
            return _canonical(_fraction_value(field.dim, rng, shape))

        def canonical(v):
            return v[-1] > 0 and math.gcd(*v) == 1

    def draw_nonzero():
        while (v := draw()) == zero:
            pass
        return v

    def scalar(v):
        return Scalar(field, v)

    assert field.raw_products([], []) == []
    assert field.raw_combination([], []) == []
    assert field.raw_combination([draw(), zero], [[], []]) == []
    for length in (1, 2, 7):
        a = [draw() for _ in range(length)]
        b = [draw() for _ in range(length)]
        got = field.raw_products(a, b)
        assert got == [(scalar(x) * scalar(y)).value for x, y in zip(a, b)]
        assert all(map(canonical, got))
    # (entries, terms): columns above the diagonal, rows on and below it
    shapes = [(19, 1), (343, 1), (2, 1), (7, 3), (19, 4), (1, 1), (3, 3), (12, 12),
              (1, 17), (2, 12), (7, 12)]
    for length, count in shapes:
        vectors = [[draw() for _ in range(length)] for _ in range(count)]
        nonzero = [draw_nonzero() for _ in range(count)]
        with_zeros = list(nonzero)
        with_zeros[0] = with_zeros[count // 2] = zero
        for coeffs in (nonzero, with_zeros, [zero] * count):
            got = field.raw_combination(coeffs, vectors)
            want = []
            for j in range(length):
                total = field.zero
                for c, v in zip(coeffs, vectors):
                    total = total + scalar(c) * scalar(v[j])
                want.append(total.value)
            assert got == want, (coeffs, vectors)
            assert all(map(canonical, got))
    if field.spec.kind == "gf":
        top = field.p - 1
        # top * top = 1, so each sum is the number of terms mod p
        assert field.raw_combination([top] * 12, [[top, 0]] * 12) == [12 % field.p, 0]
        assert field.raw_combination([top] * 17, [[top] * 19] * 17) == [17 % field.p] * 19
        assert field.raw_combination([top] * 3, [[top] * 19] * 3) == [3 % field.p] * 19
        assert field.raw_combination([top], [[top] * 343]) == [1 % field.p] * 343
        assert field.raw_products([top, top], [top, 1]) == [1 % field.p, top]


def test_degree_cap():
    """get_field builds Q(z_m) exactly when phi(m) <= MAX_FIELD_DEGREE: 120
    is the largest such m and 37 (phi = 36) the first m over the cap. No m
    above 2 * MAX_FIELD_DEGREE^2 qualifies, since phi(m) >= sqrt(m/2)."""
    cap = scalars.MAX_FIELD_DEGREE
    assert cap == 32
    allowed = []
    for m in range(1, 2 * cap**2 + 64):
        phi = sum(math.gcd(k, m) == 1 for k in range(1, m + 1))
        if phi <= cap:
            scalars._check_degree(m)
            allowed.append(m)
        else:
            with pytest.raises(InputError, match=f"above the limit of {cap}"):
                scalars._check_degree(m)
    assert allowed[-1] == 120
    with pytest.raises(
        InputError,
        match=r"^cyclotomic:37 has degree phi\(37\) above the limit of 32 "
        r"\(scalars.MAX_FIELD_DEGREE\)$",
    ):
        get_field(FieldSpec.cyclotomic(37))
    assert FieldSpec.cyclotomic(37) not in scalars._FIELD_CACHE
    with pytest.raises(InputError, match="above the limit of 32"):
        get_field(FieldSpec.cyclotomic(10**40))  # refused without factoring
    with pytest.raises(InputError, match="must be >= 1"):
        get_field(FieldSpec.cyclotomic(0))


def test_field_spec_parameter_must_be_an_integer():
    for text in ("cyclotomic:abc", "gf:", "gf:7.0", "cyclotomic:5:1"):
        with pytest.raises(InputError, match=rf"^unknown field spec {text!r}$"):
            FieldSpec.from_string(text)
    assert FieldSpec.from_string(" cyclotomic:5 ") == FieldSpec.cyclotomic(5)


def test_import_builds_no_field():
    """Fields, and their generated kernels, are built on first use, so an
    import costs nothing for set-ups that use only GF(p) and Q."""
    code = "import skewpbw, skewpbw.cli; print(len(skewpbw.scalars._FIELD_CACHE))"
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "0\n"


def test_kernel_source_is_named_for_its_field():
    """Each field's add and neg, and its mul for degree >= 2, are compiled
    from its own source; Q's mul is the hand-written one."""
    for spec in ("Q", "Q(i)", "cyclotomic:5"):
        field = get_field(FieldSpec.from_string(spec))
        kernels = [field.raw_add, field.raw_neg]
        if spec == "Q":
            assert field.raw_mul is scalars._q_mul
        else:
            kernels.append(field.raw_mul)
        for fn in kernels:
            assert fn.__code__.co_filename == f"<skewpbw kernel {spec}>"


def test_gaussian_and_cyclotomic4_give_one_basis():
    """Q(i) is Q(z_4): the same inputs give the same reduced bases, printed
    alike up to the symbol i for z."""
    with open(algebra_path("qspace3.alg")) as fh:
        text = fh.read().replace("z", "t")
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
