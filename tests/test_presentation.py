"""Presentation documents: loading, validation, classification, consistency."""

import os
import re

import pytest

from conftest import ALGEBRA_DIR, algebra_path
from skewpbw.cli import EXIT_INPUT, main
from skewpbw.presentation import (
    PresentationError,
    check_pbw_consistency,
    load_presentation,
    load_presentation_file,
    presentation_hash,
    serialize_presentation,
)

WITTEN_DOC = """
field: Q
vars: x, y, z
relation: y*x = 2*x*y
relation: z*x = x*z - x
relation: z*y = y*z + 2*y
"""


def test_load_witten_constants(QQ):
    P = load_presentation(WITTEN_DOC)
    assert P.names == ("x", "y", "z")
    r01, r02, r12 = P.relations[(0, 1)], P.relations[(0, 2)], P.relations[(1, 2)]
    assert r01.c == QQ.from_int(2) and r01.is_trivial_lower()
    assert r02.c == QQ.one
    assert r02.linear[0] == QQ.from_int(-1)
    assert r02.linear[1].is_zero() and r02.linear[2].is_zero()
    assert r12.c == QQ.one and r12.linear[1] == QQ.from_int(2)


def test_load_commutative_defaults(QQ):
    P = load_presentation("field: Q\nvars: x, y, z\n")
    assert all(
        rel.c == QQ.one and rel.is_trivial_lower()
        for rel in P.relations.values()
    )
    assert P.quasi_commutative


def test_zero_constant_rejected():
    with pytest.raises(PresentationError, match="nonzero"):
        load_presentation("field: Q\nvars: x, y\nrelation: y*x = 0*x*y + 1\n")


def test_unknown_variable_rejected():
    with pytest.raises(PresentationError):
        load_presentation("field: Q\nvars: x, y\nrelation: y*w = x*y\n")
    with pytest.raises(PresentationError):
        load_presentation("field: Q\nvars: x, y\nrelation: y*x = x*y + w\n")


def test_bad_relation_shape_rejected():
    with pytest.raises(PresentationError):
        load_presentation("field: Q\nvars: x, y\nrelation: y*x = x^2*y\n")
    with pytest.raises(PresentationError):
        load_presentation("field: Q\nvars: x, y\nrelation: x*y = y*x\n")


def test_reserved_symbol_collision():
    with pytest.raises(PresentationError, match="collides"):
        load_presentation("field: Q(i)\nvars: i, y\n")
    # fine over the rationals
    load_presentation("field: Q\nvars: z, w\n")


def test_field_parameter_must_be_an_integer():
    with pytest.raises(PresentationError, match=r"^line 2: unknown field spec 'cyclotomic:abc'$"):
        load_presentation("vars: x, y\nfield: cyclotomic:abc\n")


def test_field_above_degree_cap_names_its_line():
    with pytest.raises(
        PresentationError,
        match=r"^line 1: cyclotomic:37 has degree phi\(37\) above the limit of 32",
    ):
        load_presentation("field: cyclotomic:37\nvars: x, y\n")


@pytest.mark.parametrize(
    "doc, line",
    [
        ("field: gf:5\nvars: x, y\nfield: Q\nrelation: y*x = 2*x*y\n", "field"),
        ("field: Q\nvars: x, y\n# z joins later\nvars: x, y, z\n", "vars"),
    ],
    ids=["field", "vars"],
)
def test_duplicate_field_or_vars_line_rejected(doc, line):
    """A second `field:` or `vars:` line is an error, not a silent override."""
    lineno = 3 if line == "field" else 4
    with pytest.raises(
        PresentationError, match=rf"^line {lineno}: duplicate '{line}:' line$"
    ):
        load_presentation(doc)


def test_serialize_roundtrip():
    for name in os.listdir(ALGEBRA_DIR):
        P = load_presentation_file(algebra_path(name))
        Q = load_presentation(serialize_presentation(P))
        assert serialize_presentation(Q) == serialize_presentation(P)
        assert presentation_hash(Q) == presentation_hash(P)
        assert Q.names == P.names and Q.relations == P.relations


def test_classify_examples(witten, qspace3, comm2):
    assert not witten.quasi_commutative
    assert qspace3.quasi_commutative
    assert comm2.quasi_commutative


def test_consistency_shipped_algebras():
    for name in os.listdir(ALGEBRA_DIR):
        P = load_presentation_file(algebra_path(name))
        report = check_pbw_consistency(P, 4)
        assert report.consistent, f"{name}: {report.failure}"


def test_consistency_flags_mutated_witten():
    """An inconsistent mutation of Witten's relations no longer loads: the
    check at construction names the overlap that fails."""
    with pytest.raises(PresentationError, match=r"overlap z\*y\*x has two normal forms"):
        load_presentation(
            "field: Q\nvars: x, y, z\n"
            "relation: y*x = 2*x*y\n"
            "relation: z*x = x*z - x\n"
            "relation: z*y = y*z + 2*x\n"
        )


@pytest.mark.parametrize(
    "doc, overlap",
    [
        ("field: Q(i)\nvars: x, y\nsigma: x = conj\nrelation: y*x = x*y + 1\n", "y*x*i"),
        ("field: Q(i)\nvars: x, y\nsigma: x = conj\nrelation: y*x = x*y + y\n", "y*x*i"),
        (
            "field: Q\nvars: x, y, z\nrelation: y*x = x*y + z\n"
            "relation: z*x = x*z\nrelation: z*y = 2*y*z\n",
            "z*y*x",
        ),
        # no lower terms, but sigma_x does not fix the constant of z*y
        ("field: Q(i)\nvars: x, y, z\nsigma: x = conj\nrelation: z*y = i*y*z\n", "z*y*x"),
    ],
)
def test_inconsistent_presentations_are_refused(doc, overlap, tmp_path, capsys):
    """The documents whose overlaps fail, scalar ones under a twist and a
    twisted one without lower terms included, are refused with the
    overlap named, and the CLI exits 1."""
    with pytest.raises(PresentationError, match="overlap " + re.escape(overlap)):
        load_presentation(doc)
    alg = tmp_path / "bad.alg"
    alg.write_text(doc)
    assert main(["normalize", "--algebra", str(alg), "--f", "x"]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"overlap {overlap} " in err


def test_consistency_degree_bound_validation(witten):
    with pytest.raises(PresentationError):
        check_pbw_consistency(witten, 2)
