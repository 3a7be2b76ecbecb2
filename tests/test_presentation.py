"""Presentation documents: loading, validation, classification, consistency."""

import os
import random
import re

import pytest

from conftest import ALGEBRA_DIR, algebra_path
from skewpbw import presentation
from skewpbw.cli import EXIT_INPUT, main
from skewpbw.presentation import (
    Presentation,
    Relation,
    check_pbw_consistency,
    load_presentation,
    load_presentation_file,
    presentation_hash,
    quantum_plane,
    serialize_presentation,
)
from skewpbw.scalars import FieldSpec, InputError, Scalar, get_field

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
    with pytest.raises(InputError, match="nonzero"):
        load_presentation("field: Q\nvars: x, y\nrelation: y*x = 0*x*y + 1\n")


def test_unknown_variable_rejected():
    with pytest.raises(InputError):
        load_presentation("field: Q\nvars: x, y\nrelation: y*w = x*y\n")
    with pytest.raises(InputError):
        load_presentation("field: Q\nvars: x, y\nrelation: y*x = x*y + w\n")


def test_bad_relation_shape_rejected():
    with pytest.raises(InputError):
        load_presentation("field: Q\nvars: x, y\nrelation: y*x = x^2*y\n")
    with pytest.raises(InputError):
        load_presentation("field: Q\nvars: x, y\nrelation: x*y = y*x\n")


def test_reserved_symbol_collision():
    with pytest.raises(InputError, match="collides"):
        load_presentation("field: Q(i)\nvars: i, y\n")
    # fine over the rationals
    load_presentation("field: Q\nvars: z, w\n")


def test_field_parameter_must_be_an_integer():
    with pytest.raises(InputError, match=r"^line 2: unknown field spec 'cyclotomic:abc'$"):
        load_presentation("vars: x, y\nfield: cyclotomic:abc\n")


def test_field_above_degree_cap_names_its_line():
    with pytest.raises(
        InputError,
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
        InputError, match=rf"^line {lineno}: duplicate '{line}:' line$"
    ):
        load_presentation(doc)


QUANTUM_PLANE_Q = "field: Q\nvars: x, y\n"


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: load_presentation(QUANTUM_PLANE_Q + "y*x = -x*y\n"),
         "line 3: expected 'key: value'"),
        (lambda: load_presentation("field: Q(i)\nvars: x, y\nsigma: x conj\n"),
         "line 3: sigma entries look like 'x = conj'"),
        (lambda: load_presentation(QUANTUM_PLANE_Q + "Relation: y*x = -x*y\nrule: y*x = x*y\n"),
         "line 4: unknown key 'rule'"),
        (lambda: load_presentation("vars: x, y\n"), "missing 'field:' line"),
        (lambda: load_presentation("field: Q\nvars: ,\n"), "missing 'vars:' line"),
        (lambda: load_presentation(QUANTUM_PLANE_Q + "relation: y*x\n"),
         "line 3: relation needs '='"),
        (lambda: load_presentation(
            QUANTUM_PLANE_Q + "relation: y*x = -x*y\n# again\nrelation: y * x = x*y\n"
        ), "line 5: duplicate relation for y*x"),
        (lambda: load_presentation(QUANTUM_PLANE_Q + "relation: y*x*x = x*y\n"),
         "line 3: relation left side must be 'x_j*x_i'"),
        (lambda: load_presentation("field: Q\nvars: x, y, x\n"), "duplicate variable names"),
        (lambda: quantum_plane(get_field(FieldSpec.rationals()), 0),
         "relation y*x: leading constant must be nonzero"),
        (lambda: quantum_plane(get_field(FieldSpec.rationals()), -1, ("x", "y", "z")),
         "quantum plane has two variables"),
    ],
    ids=[
        "key-value", "sigma-entry", "unknown-key", "missing-field", "missing-vars",
        "relation-sign", "duplicate-relation", "relation-left-side", "duplicate-names",
        "zero-constant", "plane-arity",
    ],
)
def test_presentation_refusals_name_their_cause(build, message):
    """Each refusal of a presentation document, or of a presentation built
    directly, raises InputError with its message, and a document's with
    the number of the line it refuses."""
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        build()


def test_relation_constants_are_coerced_into_the_field():
    """A relation's constants are coerced into the presentation's field.
    A Q constant over GF(5) used to raise a TypeError at the first
    product, and Scalar(GF(5), 6) as c gave y*x = x*y on a presentation
    that was not `commutative`: both are refused, naming the pair. Ints
    are coerced, so c = 6 is the commutative 1."""
    GF5, Q = get_field(FieldSpec.prime(5)), get_field(FieldSpec.rationals())
    zero = GF5.zero
    refused = [
        (Relation(GF5.from_int(2), (zero, zero), Q.one), "scalar of Q used in gf:5"),
        (Relation(GF5.one, (zero, Q.one), zero), "scalar of Q used in gf:5"),
        (Relation(Scalar(GF5, 6), (zero, zero), zero), "6 is not a canonical raw value of gf:5"),
    ]
    for rel, message in refused:
        with pytest.raises(InputError, match=f"^{re.escape('relation y*x: ' + message)}$"):
            Presentation(GF5, ("x", "y"), relations={(0, 1): rel})
    with pytest.raises(InputError, match=re.escape("relation y*x: scalar of Q used in gf:5")):
        quantum_plane(GF5, Q.from_int(2))
    pres = Presentation(GF5, ("x", "y"), relations={(0, 1): Relation(6, (0, 0), 0)})
    assert pres.relations[(0, 1)] == (GF5.one, (zero, zero), zero)
    assert pres.commutative
    assert serialize_presentation(pres) == "field: gf:5\nvars: x, y\nrelation: y*x = x*y\n"


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
    with pytest.raises(InputError, match=r"overlap z\*y\*x has two normal forms"):
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
    with pytest.raises(InputError, match="overlap " + re.escape(overlap)):
        load_presentation(doc)
    alg = tmp_path / "bad.alg"
    alg.write_text(doc)
    assert main(["normalize", "--algebra", str(alg), "--f", "x"]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"overlap {overlap} " in err


def _seeded_sigma_free(field, rng):
    """Three variables; one pair, and each other pair with probability 0.2,
    gets small random lower terms."""
    def small():
        return field.from_int(rng.choice([0, 0, 0, 1, -1, 2]))

    pairs = [(0, 1), (0, 2), (1, 2)]
    lowered = rng.choice(pairs)
    rels = {}
    for pair in pairs:
        c = field.from_int(rng.choice([1, 1, -1, 2]))
        if pair == lowered or rng.random() < 0.2:
            rels[pair] = Relation(c, (small(), small(), small()), small())
        else:
            rels[pair] = Relation(c, (field.zero,) * 3, field.zero)
    return Presentation(field, ("x", "y", "w"), relations=rels)


@pytest.mark.parametrize("spec", ["gf:5", "Q"])
def test_overlap_check_agrees_with_degree_6_scan(spec, monkeypatch):
    """On seeded sigma-free presentations with lower terms, built with the
    check patched out, the exact overlap check refuses exactly those the
    bounded associativity scan at degree 6 finds inconsistent."""
    field = get_field(FieldSpec.from_string(spec))
    check = presentation._check_overlaps
    monkeypatch.setattr(presentation, "_check_overlaps", lambda pres: None)
    rng = random.Random(10)
    outcomes = set()
    for _ in range(6):
        pres = _seeded_sigma_free(field, rng)
        try:
            check(pres)
            refused = False
        except InputError:
            refused = True
        assert refused == (not check_pbw_consistency(pres, 6).consistent)
        outcomes.add(refused)
    assert outcomes == {True, False}


def test_consistency_degree_bound_validation(witten):
    with pytest.raises(InputError):
        check_pbw_consistency(witten, 2)
