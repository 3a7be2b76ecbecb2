"""Engine behaviour when coefficients pass variables through nontrivial maps.

All shipped paper-style algebras use identity sigma; these presentations
twist coefficients by conjugation / Galois powers and exercise the sigma
bookkeeping in products, division and saturation.
"""

import random
import re
from fractions import Fraction

import pytest

from oracles import random_polynomial, random_scalar
from skewpbw import presentation
from skewpbw.groebner import divide, left_groebner, two_sided_saturate
from skewpbw.poly import Polynomial, multiply, parse_polynomial, parse_scalar
from skewpbw.presentation import (
    Presentation,
    Relation,
    check_pbw_consistency,
    load_presentation,
    presentation_hash,
)
from skewpbw.scalars import FieldSpec, InputError, get_field


@pytest.fixture(scope="module")
def galois_pair():
    C12 = get_field(FieldSpec.cyclotomic(12))
    return Presentation(
        C12,
        ("x", "y"),
        sigma=(5, 7),
    )


def test_twisted_presentations_consistent(conj_qplane, galois_pair):
    assert check_pbw_consistency(conj_qplane, 4).consistent
    assert check_pbw_consistency(galois_pair, 4).consistent


@pytest.mark.parametrize("fixture", ["conj_qplane", "galois_pair"])
def test_twisted_ring_axioms_and_division(fixture, request):
    pres = request.getfixturevalue(fixture)
    rng = random.Random(57)
    for _ in range(100):
        f = random_polynomial(pres, rng, 3, 3)
        g = random_polynomial(pres, rng, 3, 3)
        h = random_polynomial(pres, rng, 3, 3)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
    done = 0
    while done < 100:
        f = random_polynomial(pres, rng, 4, 4)
        ds = [
            d
            for d in (random_polynomial(pres, rng, 2, 2) for _ in range(2))
            if not d.is_zero()
        ]
        if f.is_zero() or not ds:
            continue
        res = divide(f, ds)
        assert res.reconstruct(ds) == f
        done += 1


def test_twisted_scalar_passage(conj_qplane):
    G = conj_qplane.field
    x = Polynomial.variable(conj_qplane, 0)
    i_const = Polynomial.constant(conj_qplane, G.primitive())
    # x * i = conj(i) x = -i x; x^2 * i = i x^2
    assert multiply(x, i_const) == Polynomial.monomial(conj_qplane, (1, 0), -G.primitive())
    assert multiply(x * x, i_const) == Polynomial.monomial(conj_qplane, (2, 0), G.primitive())


def test_twisted_completion_deterministic(galois_pair):
    rng = random.Random(31)
    for _ in range(10):
        gens = [
            g
            for g in (random_polynomial(galois_pair, rng, 3, 3) for _ in range(3))
            if not g.is_zero()
        ]
        if not gens:
            continue
        H1, H2 = left_groebner(gens), left_groebner(gens)
        assert (H1.status, H1.basis) == (H2.status, H2.basis)
        S1, S2 = two_sided_saturate(gens), two_sided_saturate(gens)
        assert (S1.status, S1.basis) == (S2.status, S2.basis)


@pytest.mark.parametrize(
    "doc, sigma, gens",
    [
        (
            "field: cyclotomic:5\nvars: x, y\nrelation: y*x = z*x*y\n",
            "sigma: x = galois:1\n",
            ["x^2 - z*y", "x*y + 1"],
        ),
        (
            "field: Q\nvars: x, y\nrelation: y*x = -x*y\n",
            "sigma: y = conj\n",
            ["x^2 - y", "x*y + 1"],
        ),
    ],
)
def test_identity_maps_are_untwisted(doc, sigma, gens):
    """galois:1 on Q(z_5) and conj on Q are the identity map, so the
    presentation is untwisted and saturation adds no scalar right factor."""
    twisted = load_presentation(doc + sigma)
    plain = load_presentation(doc)
    assert twisted.sigma_all_identity and plain.sigma_all_identity
    bases = [
        [str(g) for g in two_sided_saturate([parse_polynomial(g, P) for g in gens]).basis]
        for P in (twisted, plain)
    ]
    assert bases[0] == bases[1]


@pytest.mark.parametrize(
    "field, tag, message",
    [
        ("gf:5", "conj", "conjugation undefined on gf:5"),
        ("Q", "galois:3", "galois power undefined on Q"),
        ("gf:5", "galois:3", "galois power undefined on gf:5"),
        ("Q", "frobenius:1", "frobenius undefined on Q"),
        ("Q(i)", "frobenius:1", r"frobenius undefined on Q\(i\)"),
        ("cyclotomic:4", "frobenius:1", "frobenius undefined on cyclotomic:4"),
        ("gf:5", "frobenius:-1", "frobenius power must be >= 0"),
        ("Q(i)", "galois:2", "galois exponent 2 not coprime to 4"),
        ("cyclotomic:4", "galois:2", "galois exponent 2 not coprime to 4"),
        ("Q(i)", "swap", "unknown automorphism 'swap'"),
    ],
)
def test_sigma_tag_rejections(field, tag, message):
    """Each field accepts only its own automorphism tags, with one message
    per kind of rejection, prefixed by the line of the sigma entry."""
    with pytest.raises(InputError, match=f"^line 3: {message}$"):
        load_presentation(f"field: {field}\nvars: x, y\nsigma: x = {tag}\n")


def test_sigma_tag_with_bad_exponent_is_unknown():
    with pytest.raises(
        InputError, match=r"^line 3: unknown automorphism 'galois:abc'$"
    ):
        load_presentation("field: Q(i)\nvars: x\nsigma: x = galois:abc\n")


def test_sigma_errors_name_their_line():
    """A tag is read once the field is known, which may be after the sigma
    line; the error still names the line of the entry."""
    with pytest.raises(
        InputError, match="^line 2: galois exponent 2 not coprime to 4$"
    ):
        load_presentation("vars: x, y\nsigma: y = conj, x = galois:2\n\nfield: Q(i)\n")
    with pytest.raises(
        InputError, match="^line 4: sigma for unknown variable 'z'$"
    ):
        load_presentation("field: Q(i)\nvars: x\nsigma: x = conj\nsigma: z = conj\n")


def test_duplicate_sigma_rejected():
    """A second sigma entry for one variable is an error, as a second
    relation for one pair is, on one line or across two."""
    base = "field: Q(i)\nvars: x, y\n"
    with pytest.raises(InputError, match=r"^line 3: duplicate sigma for x$"):
        load_presentation(base + "sigma: x = conj, x = identity\n")
    with pytest.raises(InputError, match=r"^line 4: duplicate sigma for y$"):
        load_presentation(base + "sigma: y = conj\nsigma: x = conj, y = conj\n")


def test_constructor_checks_sigma():
    QI = get_field(FieldSpec.gaussian())
    with pytest.raises(InputError, match="1 exponents for 2 variables"):
        Presentation(QI, ("x", "y"), sigma=(-1,))
    with pytest.raises(InputError, match="3 exponents for 2 variables"):
        Presentation(QI, ("x", "y"), sigma=(1, 1, 1))
    with pytest.raises(InputError, match="^galois exponent 2 not coprime to 4$"):
        Presentation(QI, ("x", "y"), sigma=(2, 1))
    # exponents are stored mod m, with 1 for the identity on every field
    assert Presentation(QI, ("x", "y"), sigma=(-1, 5)).sigma == (3, 1)
    Q = get_field(FieldSpec.rationals())
    GF5 = get_field(FieldSpec.prime(5))
    assert Presentation(Q, ("x",), sigma=(-1,)).sigma == (1,)
    assert Presentation(GF5, ("x",), sigma=(4,)).sigma_all_identity


def _hash(doc):
    return presentation_hash(load_presentation(doc))


def test_sigma_hashes():
    """A canonical spelling keeps its hash, a spelling of the identity
    hashes like no sigma line, and two spellings of one automorphism hash
    equal."""
    assert _hash("field: Q(i)\nvars: x, y\nsigma: x = conj\n") == "6601c27e98eaa42f"
    for field, tag in [
        ("Q", "conj"),
        ("Q", "identity"),
        ("Q(i)", "galois:1"),
        ("Q(i)", "galois:5"),
        ("cyclotomic:5", "id"),
        ("gf:5", "frobenius:1"),
        ("gf:5", "frobenius:0"),
    ]:
        doc = f"field: {field}\nvars: x, y\nrelation: y*x = 2*x*y\n"
        assert _hash(doc + f"sigma: x = {tag}\n") == _hash(doc), (field, tag)
    for field, a, b in [
        ("Q(i)", "galois:3", "conj"),
        ("Q(i)", "galois:-1", "conj"),
        ("cyclotomic:5", "galois:7", "galois:2"),
        ("cyclotomic:5", "galois:4", "conj"),
        ("cyclotomic:12", "galois:-5", "galois:7"),
    ]:
        doc = f"field: {field}\nvars: x, y\n"
        assert _hash(doc + f"sigma: y = {a}\n") == _hash(doc + f"sigma: y = {b}\n")


@pytest.mark.parametrize("fixture", ["conj_qplane", "galois_pair"])
def test_sigma_power_composes_sigma_maps(fixture, request):
    """z |-> z^sigma_power(alpha) is sigma_1^a1 o ... o sigma_n^an, the
    maps applied one variable at a time."""
    pres = request.getfixturevalue(fixture)
    field = pres.field
    z = field.primitive()
    rng = random.Random(73)
    for _ in range(60):
        alpha = tuple(rng.randint(0, 5) for _ in range(pres.n))
        c = field.zero
        for j in range(field.dim):
            c = c + field.from_fraction(Fraction(rng.randint(-9, 9), rng.randint(1, 9))) * z**j
        want = c.value
        for fn, t in zip(pres.sigma_maps, alpha):
            for _ in range(t if fn is not None else 0):
                want = fn(want)
        assert field.raw_galois(c.value, pres.sigma_power(alpha)) == want


def _seeded_twisted(field, rng, units):
    """Two or three variables, each sigma a random unit, random constants
    and lower terms on each pair with probability 1/2."""
    n = rng.choice([2, 3])
    names = ("x", "y", "w")[:n]
    rels = {}
    for j in range(n):
        for i in range(j):
            c = random_scalar(field, rng)
            if c.is_zero():
                c = field.one
            if rng.random() < 0.5:
                linear = tuple(random_scalar(field, rng) for _ in range(n))
                rels[(i, j)] = Relation(c, linear, random_scalar(field, rng))
            else:
                rels[(i, j)] = Relation(c, (field.zero,) * n, field.zero)
    return names, [rng.choice(units) for _ in names], rels


@pytest.mark.parametrize("spec, units", [("Q(i)", (1, 3)), ("cyclotomic:5", (1, 2, 3, 4))])
def test_refused_twisted_overlaps_fail_when_multiplied(spec, units, monkeypatch):
    """On seeded sigma-twisted presentations with lower terms, the overlap
    the constructor names fails when multiplied out on the presentation
    built without the check, by the difference it prints. An accepted one
    resolves x_j*x_i*r for a random scalar r, not only for the primitive."""
    field = get_field(FieldSpec.from_string(spec))
    rng = random.Random(28)
    seeds = [_seeded_twisted(field, rng, units) for _ in range(40)]
    refused = 0
    for names, sigma, rels in seeds:
        try:
            pres = Presentation(field, names, sigma=sigma, relations=rels)
        except InputError as exc:
            refused += 1
            overlap, diff = re.fullmatch(
                r"inconsistent relations: the overlap (\S+) has two normal forms,"
                r" differing by (.+)",
                str(exc),
            ).groups()
            with monkeypatch.context() as m:
                m.setattr(presentation, "_check_overlaps", lambda pres: None)
                pres = Presentation(field, names, sigma=sigma, relations=rels)
            a, b, c = (
                Polynomial.variable(pres, names.index(t)) if t in names
                else Polynomial.constant(pres, parse_scalar(t, field))
                for t in overlap.split("*")
            )
            assert str((a * b) * c - a * (b * c)) == diff != "0"
            continue
        x = [Polynomial.variable(pres, k) for k in range(pres.n)]
        r = Polynomial.constant(pres, random_scalar(field, rng))
        for i in range(pres.n):
            for j in range(i + 1, pres.n):
                assert (x[j] * x[i]) * r == x[j] * (x[i] * r)
    assert 0 < refused < len(seeds)
