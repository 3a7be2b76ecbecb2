"""Field arithmetic, canonical forms and automorphisms."""

import random
import zlib
from fractions import Fraction

import pytest

from skewpbw.scalars import (
    AutomorphismSpec,
    FieldError,
    FieldMismatchError,
    FieldSpec,
    apply_automorphism,
    automorphism_inverse,
    cyclotomic_polynomial,
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


def test_automorphism_examples():
    Q = get_field(FieldSpec.rationals())
    v = Q.from_fraction(Fraction(7, 3))
    assert apply_automorphism(AutomorphismSpec.identity(), v) == v

    G = get_field(FieldSpec.gaussian())
    two_plus_i = G.from_int(2) + G.i
    assert apply_automorphism(AutomorphismSpec.conjugation(), two_plus_i) == (
        G.from_int(2) - G.i
    )

    C4 = get_field(FieldSpec.cyclotomic(4))
    assert apply_automorphism(AutomorphismSpec.galois(3), C4.zeta) == -C4.zeta

    with pytest.raises(FieldError):
        apply_automorphism(AutomorphismSpec.galois(2), C4.zeta)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
def test_automorphisms_bijective(spec):
    field = get_field(spec)
    rng = random.Random(3)
    autos = [AutomorphismSpec.identity()]
    if spec.kind in ("Q(i)", "cyclotomic", "Q"):
        autos.append(AutomorphismSpec.conjugation())
    if spec.kind == "cyclotomic":
        m = spec.param
        autos.extend(
            AutomorphismSpec.galois(k)
            for k in range(1, m)
            if __import__("math").gcd(k, m) == 1
        )
    if spec.kind == "gf":
        autos.append(AutomorphismSpec.frobenius(1))
    for auto in autos:
        inv = automorphism_inverse(auto, field)
        for _ in range(100):
            a = _random_scalar(field, rng)
            assert apply_automorphism(inv, apply_automorphism(auto, a)) == a


def test_automorphisms_are_ring_maps():
    C12 = get_field(FieldSpec.cyclotomic(12))
    rng = random.Random(9)
    sigma = AutomorphismSpec.galois(5)
    for _ in range(100):
        a = _random_scalar(C12, rng)
        b = _random_scalar(C12, rng)
        assert apply_automorphism(sigma, a + b) == apply_automorphism(
            sigma, a
        ) + apply_automorphism(sigma, b)
        assert apply_automorphism(sigma, a * b) == apply_automorphism(
            sigma, a
        ) * apply_automorphism(sigma, b)
