"""Polynomial/scalar grammar: positions, precedence, print round-trips."""

import random
import zlib

import pytest

from skewpbw.geometry import random_polynomial
from skewpbw.parsing import ParseError, parse_scalar, split_top_level
from skewpbw.poly import Polynomial, parse_polynomial, to_string
from skewpbw.presentation import PresentationError, load_presentation
from skewpbw.scalars import FieldSpec, get_field


def test_scalar_grammar():
    Q = get_field(FieldSpec.rationals())
    assert parse_scalar("5/6", Q) == Q.from_int(5) / Q.from_int(6)
    assert parse_scalar("-(2/3)", Q) == -(Q.from_int(2) / Q.from_int(3))
    assert parse_scalar("(1+2)*3", Q) == Q.from_int(9)
    G = get_field(FieldSpec.gaussian())
    assert parse_scalar("2+3*i", G) == G.from_int(2) + G.from_int(3) * G.i
    C3 = get_field(FieldSpec.cyclotomic(3))
    assert parse_scalar("z^2", C3) == C3.zeta * C3.zeta
    F5 = get_field(FieldSpec.prime(5))
    assert parse_scalar("7", F5) == F5.from_int(2)
    with pytest.raises(ParseError):
        parse_scalar("i", Q)
    with pytest.raises(ParseError):
        parse_scalar("", Q)


def test_zero_to_negative_power_is_parse_error():
    Q = get_field(FieldSpec.rationals())
    assert parse_scalar("2^-1", Q) == Q.from_int(1) / Q.from_int(2)
    for text in ("0^-1", "(2-2)^-3"):
        with pytest.raises(ParseError, match="division by zero"):
            parse_scalar(text, Q)
    with pytest.raises(ParseError, match="division by zero"):
        parse_scalar("5^-1", get_field(FieldSpec.prime(5)))


def test_zero_divisor_in_polynomial_is_division_by_zero(qplane_q2):
    for text in ("0^-1*x", "x/0", "x/(1-1)"):
        with pytest.raises(ParseError, match="division by zero"):
            parse_polynomial(text, qplane_q2)
    for rhs in ("0^-1*x*y", "x*y/0"):
        with pytest.raises(PresentationError, match="line 3: division by zero"):
            load_presentation(f"field: Q\nvars: x, y\nrelation: y*x = {rhs}\n")
    with pytest.raises(ParseError, match="negative power of a non-scalar"):
        parse_polynomial("x^-1", qplane_q2)


def test_parse_polynomial_normal_orders(qplane_q2):
    f = parse_polynomial("y*x", qplane_q2)
    assert str(f) == "2*x*y"
    g = parse_polynomial("x^2*y + (1/2)", qplane_q2)
    assert len(g.terms) == 2


def test_parse_error_position(witten):
    with pytest.raises(ParseError) as exc:
        parse_polynomial("x*w", witten)
    assert exc.value.position == 2
    with pytest.raises(ParseError):
        parse_polynomial("", witten)
    with pytest.raises(ParseError):
        parse_polynomial("x +* y", witten)
    with pytest.raises(ParseError):
        parse_polynomial("x / y", witten)


def test_implicit_products_and_powers(comm2):
    assert parse_polynomial("2x", comm2) == parse_polynomial("2*x", comm2)
    assert parse_polynomial("(x+1)(x-1)", comm2) == parse_polynomial(
        "x^2 - 1", comm2
    )
    assert parse_polynomial("x^0", comm2) == Polynomial.one(comm2)
    assert parse_polynomial("2^-1*x", comm2) == parse_polynomial("1/2*x", comm2)
    with pytest.raises(ParseError):
        parse_polynomial("x^-2", comm2)


def test_split_top_level():
    assert split_top_level("x-1, y+2, z+3") == ["x-1", "y+2", "z+3"]
    assert split_top_level("(1/2)*x, y") == ["(1/2)*x", "y"]


@pytest.mark.parametrize(
    "fixture",
    ["witten", "weyl_z", "qplane_m1", "qplane_gf5", "qspace3", "comm2"],
)
def test_print_parse_roundtrip(fixture, request):
    pres = request.getfixturevalue(fixture)
    rng = random.Random(zlib.crc32(fixture.encode()))
    for _ in range(500):
        f = random_polynomial(pres, rng, max_degree=4, max_terms=5)
        assert parse_polynomial(to_string(f), pres) == f
