"""Polynomial/scalar grammar: positions, precedence, print round-trips."""

import random
import sys
import time
import zlib

import pytest

from oracles import random_polynomial
from skewpbw.parsing import split_top_level
from skewpbw.poly import Polynomial, parse_polynomial, parse_scalar, to_string
from skewpbw.presentation import (
    Relation,
    load_presentation,
    serialize_presentation,
)
from skewpbw.scalars import FieldSpec, InputError, get_field


def test_scalar_grammar():
    Q = get_field(FieldSpec.rationals())
    assert parse_scalar("5/6", Q) == Q.from_int(5) / Q.from_int(6)
    assert parse_scalar("-(2/3)", Q) == -(Q.from_int(2) / Q.from_int(3))
    assert parse_scalar("(1+2)*3", Q) == Q.from_int(9)
    G = get_field(FieldSpec.gaussian())
    assert parse_scalar("2+3*i", G) == G.from_int(2) + G.from_int(3) * G.primitive()
    C3 = get_field(FieldSpec.cyclotomic(3))
    assert parse_scalar("z^2", C3) == C3.primitive() * C3.primitive()
    F5 = get_field(FieldSpec.prime(5))
    assert parse_scalar("7", F5) == F5.from_int(2)
    with pytest.raises(InputError):
        parse_scalar("i", Q)
    with pytest.raises(InputError):
        parse_scalar("", Q)


def test_zero_to_negative_power_is_parse_error():
    Q = get_field(FieldSpec.rationals())
    assert parse_scalar("2^-1", Q) == Q.from_int(1) / Q.from_int(2)
    for text in ("0^-1", "(2-2)^-3"):
        with pytest.raises(InputError, match="division by zero"):
            parse_scalar(text, Q)
    with pytest.raises(InputError, match="division by zero"):
        parse_scalar("5^-1", get_field(FieldSpec.prime(5)))


def test_zero_divisor_in_polynomial_is_division_by_zero(qplane_q2):
    for text in ("0^-1*x", "x/0", "x/(1-1)"):
        with pytest.raises(InputError, match="division by zero"):
            parse_polynomial(text, qplane_q2)
    for rhs in ("0^-1*x*y", "x*y/0"):
        with pytest.raises(InputError, match="line 3: division by zero"):
            load_presentation(f"field: Q\nvars: x, y\nrelation: y*x = {rhs}\n")
    with pytest.raises(InputError, match="negative power of a non-scalar"):
        parse_polynomial("x^-1", qplane_q2)


def test_parse_polynomial_normal_orders(qplane_q2):
    f = parse_polynomial("y*x", qplane_q2)
    assert str(f) == "2*x*y"
    g = parse_polynomial("x^2*y + (1/2)", qplane_q2)
    assert len(g.terms) == 2


def test_parse_error_position(witten):
    with pytest.raises(InputError, match=r"^unknown symbol 'w' \(at position 2\)$"):
        parse_polynomial("x*w", witten)
    with pytest.raises(InputError):
        parse_polynomial("", witten)
    with pytest.raises(InputError):
        parse_polynomial("x +* y", witten)
    with pytest.raises(InputError):
        parse_polynomial("x / y", witten)


def test_integer_past_the_int_string_limit_is_input_error(witten):
    """Python refuses to convert an integer of more digits than its limit;
    the parser reports that as an InputError naming the limit."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter has no int-string limit")
    digits = "7" * (limit + 1)
    for text in (f"{digits}*x", f"x^{digits}"):
        with pytest.raises(InputError, match=f"{limit + 1} digits is above Python's limit"):
            parse_polynomial(text, witten)


def test_implicit_products_and_powers(comm2):
    assert parse_polynomial("2x", comm2) == parse_polynomial("2*x", comm2)
    assert parse_polynomial("(x+1)(x-1)", comm2) == parse_polynomial(
        "x^2 - 1", comm2
    )
    assert parse_polynomial("x^0", comm2) == Polynomial.one(comm2)
    assert parse_polynomial("2^-1*x", comm2) == parse_polynomial("1/2*x", comm2)
    with pytest.raises(InputError):
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


def test_long_flat_chains_parse(comm2):
    """Binary operations parse as left-nested chains, evaluated in a loop:
    (x+y+1)^45, 1,081 terms, reads back from its own output, and a chain
    of 3,000 terms, factors, quotients or powers needs no recursion depth
    of 3,000."""
    f = parse_polynomial("x + y + 1", comm2) ** 45
    assert len(f.raw) == 1081
    assert parse_polynomial(to_string(f), comm2) == f
    assert str(parse_polynomial(" - ".join(["x"] * 3000), comm2)) == "-2998*x"
    assert str(parse_polynomial("*".join(["x"] * 3000), comm2)) == "x^3000"
    assert str(parse_polynomial("x" + "/1" * 3000 + "/2", comm2)) == "1/2*x"
    assert str(parse_polynomial("x" + "^1" * 3000 + "^2", comm2)) == "x^2"


@pytest.mark.parametrize("text", ["-" * 1200 + "x", "(" * 1000 + "x" + ")" * 1000])
def test_deep_nesting_is_a_parse_error(comm2, text):
    """The parser recurses once per unary sign and per parenthesis; input
    nested past the recursion limit is a InputError that names it."""
    with pytest.raises(InputError, match="recursion limit"):
        parse_polynomial(text, comm2)


# -- the text layer against the references in oracles -------------------------

TEXT_FIELDS = (
    "Q", "Q(i)", "cyclotomic:3", "cyclotomic:4", "cyclotomic:5",
    "cyclotomic:12", "gf:5", "gf:7",
)


def _scalar_text(rng, symbols, depth=2):
    """Random scalar-grammar text: sums, quotients, powers, unary minus."""
    if depth == 0 or rng.random() < 0.3:
        if symbols and rng.random() < 0.3:
            return rng.choice(symbols)
        return str(rng.randint(0 if rng.random() < 0.1 else 1, 9))
    a = _scalar_text(rng, symbols, depth - 1)
    b = _scalar_text(rng, symbols, depth - 1)
    return rng.choice(
        [f"({a}+{b})", f"({a}-{b})", f"{a}*{b}", f"{a}/{b}",
         f"({a})^{rng.randint(-2, 3)}", f"-{a}"]
    )


def _relation_text(rng, names, i, j, symbols):
    """c*x_i*x_j plus linear and constant terms, some repeated, in any order."""
    pair = [names[i], names[j]]
    monos = [None, rng.choice(names), rng.choice(names)]
    terms = []
    for mono in rng.sample(monos, len(monos)) + ["*".join(pair)]:
        if rng.random() < 0.3 and mono is not None and mono != "*".join(pair):
            continue
        rng.shuffle(pair)
        coeff = _scalar_text(rng, symbols)
        terms.append(coeff if mono is None else f"{coeff}*{mono}")
    rng.shuffle(terms)
    return "".join(
        (rng.choice([" + ", " - "]) if k else "") + t for k, t in enumerate(terms)
    )


def _outcome(fn, *args):
    try:
        return fn(*args), None
    except InputError as exc:
        return None, str(exc)


def test_text_layer_matches_references():
    """Random presentations: parse_scalar, load_presentation and
    serialize_presentation agree with the Scalar-level references.

    Each random relation loads in a document of its own, where it is
    consistent: every other variable commutes with its terms. A document
    of three or more variables keeps only each relation's leading
    constant, so it stays consistent too; lower terms on several pairs
    would make most of them fail the overlap check."""
    import oracles

    rng = random.Random(9)
    counts = {"presentations": 0, "relations": 0, "scalars": 0, "errors": 0}
    for k in range(560):
        spec = TEXT_FIELDS[k % len(TEXT_FIELDS)]
        field = get_field(FieldSpec.from_string(spec))
        symbols = sorted(field.symbols)
        names = rng.sample(["x", "y", "u", "v", "w", "s", "t"], rng.randint(2, 4))
        lines = []
        expected = {}
        for j in range(len(names)):
            for i in range(j):
                if rng.random() < 0.3:
                    continue
                rhs = _relation_text(rng, names, i, j, symbols)
                want, err = _outcome(oracles.reference_relation, rhs, field, names, i, j)
                doc = f"field: {spec}\nvars: {', '.join(names)}\nrelation: {names[j]}*{names[i]} = {rhs}\n"
                if err is not None:
                    counts["errors"] += 1
                    with pytest.raises(InputError) as exc:
                        load_presentation(doc)
                    assert str(exc.value) == f"line 3: {err}"
                    continue
                assert load_presentation(doc).relations[(i, j)] == want
                if len(names) > 2:
                    want = Relation(want.c, (field.zero,) * len(names), field.zero)
                    rhs = f"({want.c})*{names[i]}*{names[j]}"
                expected[(i, j)] = want
                lines.append(f"relation: {names[j]}*{names[i]} = {rhs}")
        doc = f"field: {spec}\nvars: {', '.join(names)}\n" + "\n".join(lines)
        P = load_presentation(doc)
        for key, rel in P.relations.items():
            assert rel == expected.get(key, Relation(field.one, (field.zero,) * P.n, field.zero))
        text = serialize_presentation(P)
        assert text == oracles.reference_serialize(P)
        assert load_presentation(text).relations == P.relations
        counts["presentations"] += 1
        counts["relations"] += len(expected)

        for _ in range(3):
            s = _scalar_text(rng, symbols, depth=3)
            want, err = _outcome(oracles.reference_parse_scalar, s, field)
            got, got_err = _outcome(parse_scalar, s, field)
            assert (got, got_err) == (want, err), s
            counts["scalars"] += 1
        for rel in P.relations.values():
            for c in (rel.c, rel.const) + rel.linear:
                assert parse_scalar(str(c), field) == c
                counts["scalars"] += 1
    assert counts["presentations"] == 560
    assert counts["relations"] > 900 and counts["errors"] > 50, counts


def test_division_by_zero_in_scalars_and_documents():
    Q = get_field(FieldSpec.rationals())
    for text in ("0^-1", "x/0", "(2-2)^-3"):
        with pytest.raises(InputError, match="^division by zero$"):
            parse_scalar(text, Q)
        with pytest.raises(InputError, match="^line 3: division by zero$"):
            load_presentation(
                f"field: Q\nvars: x, y\nrelation: y*x = x*y + {text}\n"
            )


def test_huge_scalar_power_in_a_document_loads_fast():
    start = time.perf_counter()
    P = load_presentation("field: gf:7\nvars: x, y\nrelation: y*x = 3^1000000*x*y\n")
    assert time.perf_counter() - start < 1.0
    assert P.relations[(0, 1)].c == P.field.from_int(4)
