"""Engine behaviour when coefficients pass variables through nontrivial maps.

All shipped paper-style algebras use identity sigma; these presentations
twist coefficients by conjugation / Galois powers and exercise the sigma
bookkeeping in products, division and saturation.
"""

import random

import pytest

from skewpbw.geometry import random_polynomial
from skewpbw.groebner import divide, left_groebner, two_sided_saturate
from skewpbw.poly import Polynomial, multiply, parse_polynomial
from skewpbw.presentation import (
    Presentation,
    check_pbw_consistency,
    load_presentation,
)
from skewpbw.scalars import AutomorphismSpec, FieldSpec, get_field


@pytest.fixture(scope="module")
def galois_pair():
    C12 = get_field(FieldSpec.cyclotomic(12))
    return Presentation(
        C12,
        ("x", "y"),
        sigma=(AutomorphismSpec.galois(5), AutomorphismSpec.galois(7)),
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
    i_const = Polynomial.constant(conj_qplane, G.i)
    # x * i = conj(i) x = -i x; x^2 * i = i x^2
    assert multiply(x, i_const) == Polynomial.monomial(conj_qplane, (1, 0), -G.i)
    assert multiply(x * x, i_const) == Polynomial.monomial(conj_qplane, (2, 0), G.i)


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
