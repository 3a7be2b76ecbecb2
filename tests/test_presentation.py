"""Presentation documents: loading, validation, classification, consistency."""

import itertools
import os
import random
import re
from types import SimpleNamespace

import pytest

import oracles
from conftest import ALGEBRA_DIR, algebra_path
from documents import INLINE
from skewpbw import presentation
from skewpbw.cli import EXIT_INPUT, main
from skewpbw.presentation import (
    Presentation,
    Relation,
    check_pbw_consistency,
    extend_with_central,
    load_presentation,
    load_presentation_file,
    presentation_hash,
    quantum_plane,
    serialize_presentation,
)
from skewpbw.poly import Polynomial
from skewpbw.scalars import Field, FieldSpec, InputError, Scalar, get_field

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
    assert r02.linear == ((0, QQ.from_int(-1)),)
    assert r12.c == QQ.one and r12.linear == ((1, QQ.from_int(2)),)


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
    are coerced, so c = 6 is the commutative 1. Lower terms are (index,
    value) pairs: an index outside the variables or given twice is
    refused, and a zero term is dropped, so spelling it out builds an
    equal presentation; the kept terms come in ascending index."""
    GF5, Q = get_field(FieldSpec.prime(5)), get_field(FieldSpec.rationals())
    one, zero = GF5.one, GF5.zero
    bad_index = "is outside the variables or repeated"
    refused = [
        (Relation(GF5.from_int(2), (), Q.one), "scalar of Q used in gf:5"),
        (Relation(GF5.one, ((1, Q.one),), zero), "scalar of Q used in gf:5"),
        (Relation(Scalar(GF5, 6), (), zero), "6 is not a canonical raw value of gf:5"),
        (
            Relation(one, ((0, one), (1, Scalar(GF5, 7))), zero),
            "7 is not a canonical raw value of gf:5",
        ),
        (Relation(one, ((2, one),), zero), f"lower term index 2 {bad_index}"),
        (Relation(one, ((-1, one),), zero), f"lower term index -1 {bad_index}"),
        (Relation(one, ((1.0, one),), zero), f"lower term index 1.0 {bad_index}"),
        (Relation(one, ((1, one), (1, zero)), zero), f"lower term index 1 {bad_index}"),
    ]
    for rel, message in refused:
        with pytest.raises(InputError, match=f"^{re.escape('relation y*x: ' + message)}$"):
            Presentation(GF5, ("x", "y"), relations={(0, 1): rel})
    with pytest.raises(InputError, match=re.escape("relation y*x: scalar of Q used in gf:5")):
        quantum_plane(GF5, Q.from_int(2))
    pres = Presentation(GF5, ("x", "y"), relations={(0, 1): Relation(6, (), 0)})
    assert pres.relations[(0, 1)] == (GF5.one, (), zero)
    assert pres.commutative
    assert serialize_presentation(pres) == "field: gf:5\nvars: x, y\nrelation: y*x = x*y\n"
    c, d = GF5.from_int(3), GF5.from_int(4)
    sparse = Presentation(GF5, ("x", "y"), relations={(0, 1): Relation(c, (), d)})
    for linear in (((0, zero),), ((1, 0), (0, 5)), ((1, zero), (0, zero))):
        spelled = Presentation(GF5, ("x", "y"), relations={(0, 1): Relation(c, linear, d)})
        assert spelled.relations == sparse.relations
        assert serialize_presentation(spelled) == serialize_presentation(sparse)
    rel = Relation(one, ((1, GF5.from_int(2)), (0, 3)), zero)
    pres = Presentation(GF5, ("x", "y"), relations={(0, 1): rel})
    assert pres.relations[(0, 1)].linear == ((0, GF5.from_int(3)), (1, GF5.from_int(2)))


def test_serialize_roundtrip():
    for name in os.listdir(ALGEBRA_DIR):
        P = load_presentation_file(algebra_path(name))
        Q = load_presentation(serialize_presentation(P))
        assert serialize_presentation(Q) == serialize_presentation(P)
        assert presentation_hash(Q) == presentation_hash(P)
        assert Q.names == P.names and Q.relations == P.relations


def _variables_document(n, relations=""):
    return f"field: gf:7\nvars: {', '.join(f'x{k}' for k in range(n))}\n{relations}"


def test_serialize_matches_the_reference_printer():
    """The text equals `oracles.reference_serialize`, which prints term by
    term, on every shipped algebra, its central extension, the inline
    documents and 300 variables with and without a lower-term relation."""
    shipped = [load_presentation_file(algebra_path(n)) for n in sorted(os.listdir(ALGEBRA_DIR))]
    inline = [load_presentation(doc) for doc in INLINE.values()]
    wide = [
        load_presentation(_variables_document(300, rels))
        for rels in ("", "relation: x1*x0 = x0*x1 + x0\nrelation: x299*x7 = 3*x7*x299 - 1\n")
    ]
    for P in shipped + [extend_with_central(P) for P in shipped] + inline + wide:
        assert serialize_presentation(P) == oracles.reference_serialize(P), P


def test_serialize_builds_no_exponent_per_commuting_pair(monkeypatch):
    """A pair that no document writes prints with no n-tuple: serializing
    builds as many exponents on 40 variables as on 10."""
    exponent, built = presentation._exponent, []

    def counting(*args):
        built.append(args)
        return exponent(*args)

    monkeypatch.setattr(presentation, "_exponent", counting)
    counts = []
    for n in (10, 40):
        pres = load_presentation(_variables_document(n, "relation: x1*x0 = x0*x1 + x0\n"))
        built.clear()
        serialize_presentation(pres)
        counts.append(len(built))
    assert counts[0] == counts[1] <= 4


def test_serialize_builds_no_presentation(monkeypatch):
    """Printing the right sides reads only the names and the field, so
    serializing and hashing build no second Presentation."""
    shipped = [load_presentation_file(algebra_path(n)) for n in sorted(os.listdir(ALGEBRA_DIR))]
    built = []
    init = Presentation.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Presentation, "__init__", counting)
    for P in shipped:
        serialize_presentation(P)
        presentation_hash(P)
    assert built == []


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
            rels[pair] = Relation(c, tuple((k, small()) for k in range(3)), small())
        else:
            rels[pair] = Relation(c, (), field.zero)
    return Presentation(field, ("x", "y", "w"), relations=rels)


def _seeded_five_variables(field, rng):
    """Five variables; one or two pairs get one random lower term, a
    variable or the constant, and each pair a c that is mostly 1."""
    pairs = list(itertools.combinations(range(5), 2))
    lowered = rng.sample(pairs, rng.choice([1, 2]))
    rels = {}
    for pair in pairs:
        c = field.from_int(rng.choice([1] * 9 + [-1, 2]))
        a, k = field.from_int(rng.choice([1, -1, 2])), rng.randrange(6)
        if pair not in lowered:
            rels[pair] = Relation(c, (), field.zero)
        elif k < 5:
            rels[pair] = Relation(c, ((k, a),), field.zero)
        else:
            rels[pair] = Relation(c, (), a)
    return Presentation(field, ("x", "y", "w", "u", "v"), relations=rels)


@pytest.mark.parametrize("spec", ["gf:5", "Q"])
def test_overlap_check_agrees_with_degree_6_scan(spec, monkeypatch):
    """On seeded sigma-free presentations with lower terms, built with the
    check patched out, the exact overlap check refuses exactly those the
    bounded associativity scan finds inconsistent: at degree 6 on three
    variables, and at degree 4 on five, where lower terms on one or two
    pairs leave triples that the check skips and triples that it forms."""
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

    mul, products = Polynomial.__mul__, []

    def counting(a, b):
        products.append(None)
        return mul(a, b)

    outcomes, formed, skipped = set(), 0, 0
    for _ in range(20):
        pres = _seeded_five_variables(field, rng)
        products.clear()
        with monkeypatch.context() as m:
            m.setattr(Polynomial, "__mul__", counting)
            try:
                check(pres)
                refused = False
            except InputError:
                refused = True
        assert refused == (not check_pbw_consistency(pres, 4).consistent)
        outcomes.add(refused)
        if not refused:  # each formed overlap x_k*x_j*x_i takes four products
            formed += len(products) // 4
            skipped += 10 - len(products) // 4
    assert outcomes == {True, False}
    assert formed > 0 and skipped > 0


def test_overlap_check_forms_only_the_triples_of_a_pair_with_lower_terms(monkeypatch):
    """On 40 variables with the one relation x1*x0 = x0*x1 + x0, the check
    forms the 38 overlaps x_k*x1*x0 and skips the 9,842 other triples."""
    names = [f"x{k}" for k in range(40)]
    doc = f"field: gf:7\nvars: {', '.join(names)}\nrelation: x1*x0 = x0*x1 + x0\n"
    check, mul, products = presentation._check_overlaps, Polynomial.__mul__, []

    def variable(f):
        """The index of f when f is one variable, else None."""
        return f.raw[0][0].index(1) if len(f.raw) == 1 and sum(f.raw[0][0]) == 1 else None

    def recording(a, b):
        products.append((variable(a), variable(b)))
        return mul(a, b)

    def checking(pres):
        with monkeypatch.context() as m:
            m.setattr(Polynomial, "__mul__", recording)
            check(pres)

    monkeypatch.setattr(presentation, "_check_overlaps", checking)
    pres = load_presentation(doc)
    # the products of x_k*x_j*x_i are x_k*x_j, (x_k*x_j)*x_i, x_j*x_i, x_k*(x_j*x_i)
    assert len(products) == 4 * 38
    triples = [(k, j, i) for (k, j), (_, i) in zip(products[0::4], products[2::4])]
    assert triples == [(k, 1, 0) for k in range(39, 1, -1)]
    # and it considers no other triple: they come from the pair, not a scan
    assert presentation._overlap_triples(pres) == triples


def test_overlap_triples_keep_the_order_of_the_full_scan():
    """The triples the check forms are those of the scan of all C(n, 3)
    triples that hold a pair with lower terms or a twisted variable, in
    the scan's order, so each refusal names the same first overlap."""
    G = get_field(FieldSpec.gaussian())
    rng = random.Random("overlap triples")
    for _ in range(30):
        n = rng.randint(3, 7)
        pairs = list(itertools.combinations(range(n), 2))
        lowered = set(rng.sample(pairs, rng.randint(0, 2)))
        sigma = [-1 if rng.random() < 0.15 else 1 for _ in range(n)]
        relations = {pair: Relation(G.one, (), G.one) for pair in lowered}
        pres = SimpleNamespace(  # what the triples read of a presentation
            n=n,
            relations={pair: relations.get(pair, Relation(G.one, (), G.zero)) for pair in pairs},
            sigma_maps=[None if k == 1 else abs for k in sigma],
        )
        scan = [
            (k, j, i) for k, j, i in itertools.combinations(reversed(range(n)), 3)
            if sigma[i] != 1 or sigma[j] != 1 or sigma[k] != 1
            or {(i, j), (i, k), (j, k)} & lowered
        ]
        assert presentation._overlap_triples(pres) == scan


def test_load_coerces_no_scalar_per_pair(monkeypatch):
    """A document with no relations builds its pairs from one shared
    relation: a load coerces no more scalars on 40 variables than on 10."""
    coerced = []
    coerce = Field.coerce

    def counting(self, v):
        coerced.append(v)
        return coerce(self, v)

    monkeypatch.setattr(Field, "coerce", counting)
    counts = []
    for n in (10, 40):
        coerced.clear()
        pres = load_presentation(f"field: gf:7\nvars: {', '.join(f'x{k}' for k in range(n))}\n")
        assert len(pres.relations) == n * (n - 1) // 2 and pres.commutative
        counts.append(len(coerced))
    assert counts[0] == counts[1] < 10


def test_central_extension_coerces_no_scalar_per_pair(monkeypatch):
    """`extend_with_central` passes on only the relations its ring stores:
    extending 40 variables coerces no more scalars than extending 10."""
    coerced = []
    coerce = Field.coerce

    def counting(self, v):
        coerced.append(v)
        return coerce(self, v)

    counts = []
    for n in (10, 40):
        pres = load_presentation(_variables_document(n, "relation: x1*x0 = 2*x0*x1 + x0\n"))
        with monkeypatch.context() as m:
            m.setattr(Field, "coerce", counting)
            coerced.clear()
            ext = extend_with_central(pres)
        assert ext.relations[(2, 3)] == pres.relations[(1, 2)]
        assert ext.relations[(1, 2)].linear == ((1, pres.field.one),)
        assert serialize_presentation(ext).count("relation:") == (n + 1) * n // 2
        counts.append(len(coerced))
    assert counts[0] == counts[1] < 10


def test_consistency_degree_bound_validation(witten):
    with pytest.raises(InputError):
        check_pbw_consistency(witten, 2)
