"""The raw-value kernels (normal ordering, multiply, divide) on every field kind.

One presentation per kind of raw value: GF(5) ints, and over Q, Q(i) and
cyclotomic fields integer numerators over one denominator, with a
conjugation-twisted Q(i) plane where sigma acts on raw values. The z_7
and z_12 planes run the generic reduction rows (Phi_12 = x^4 - x^2 + 1
is not all ones) and the norm inverse. A GF(5) 3-space adds a linear relation term that must be
reordered past the rest of the monomial (in Witten's algebra every linear
term lands in order with coefficient 1). Inputs are drawn from fixed seeds.
"""

import random
import zlib

import pytest

from conftest import algebra_path
from oracles import naive_word_multiply
from skewpbw.geometry import random_polynomial
from skewpbw.groebner import divide
from skewpbw.poly import DEGLEX, DEGREVLEX, deglex_key, divides
from skewpbw.presentation import (
    check_pbw_consistency,
    load_presentation,
    load_presentation_file,
    quantum_plane,
)
from skewpbw.scalars import FieldSpec, get_field

KINDS = [
    "gf5_plane",
    "witten",
    "qspace3",
    "cyc5_plane",
    "cyc7_plane",
    "cyc12_plane",
    "conj_qplane",
    "gf5_linear3",
]


@pytest.fixture(scope="module")
def gf5_plane():
    return load_presentation_file(algebra_path("qplane_q2_gf5.alg"))


def _zeta_plane(m):
    field = get_field(FieldSpec.cyclotomic(m))
    return quantum_plane(field, field.zeta)


@pytest.fixture(scope="module")
def cyc5_plane():
    return _zeta_plane(5)


@pytest.fixture(scope="module")
def cyc7_plane():
    return _zeta_plane(7)


@pytest.fixture(scope="module")
def cyc12_plane():
    return _zeta_plane(12)


@pytest.fixture(scope="module")
def gf5_linear3():
    pres = load_presentation(
        "field: gf:5\nvars: x, y, z\n"
        "relation: y*x = 2*x*y\nrelation: z*x = 2*x*z + y\nrelation: z*y = 2*y*z\n"
    )
    assert check_pbw_consistency(pres, 4).consistent
    return pres


def _presentation(request, kind):
    return request.getfixturevalue(kind), random.Random(zlib.crc32(kind.encode()))


@pytest.mark.parametrize("kind", KINDS)
def test_products_match_word_rewriting(kind, request):
    pres, rng = _presentation(request, kind)
    for _ in range(40):
        f, g, h = (random_polynomial(pres, rng, 3, 3) for _ in range(3))
        assert f * g == naive_word_multiply(f, g)
        assert (f * g) * h == f * (g * h)


@pytest.mark.parametrize("order", [DEGLEX, DEGREVLEX], ids=lambda o: o.name)
@pytest.mark.parametrize("kind", KINDS)
def test_division_reconstructs_with_reduced_remainder(kind, order, request):
    pres, rng = _presentation(request, kind)
    done = 0
    while done < 30:
        f = random_polynomial(pres, rng, 4, 5)
        ds = [
            d
            for d in (random_polynomial(pres, rng, 2, 3) for _ in range(3))
            if not d.is_zero()
        ]
        if not ds:
            continue
        res = divide(f, ds, order)
        assert res.reconstruct(ds) == f
        leads = [d.leading(order)[0] for d in ds]
        rem = res.remainder
        assert not any(divides(lm, e) for e, _ in rem.terms for lm in leads)
        deglex_desc = sorted(rem.terms, key=lambda t: deglex_key(t[0]), reverse=True)
        assert list(rem.terms) == deglex_desc
        assert res.quotients is res.quotients
        done += 1
