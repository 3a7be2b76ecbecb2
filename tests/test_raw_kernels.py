"""The raw-value kernels (normal ordering, multiply, divide, linear algebra).

One presentation per kind of raw value: GF(5) ints, and over Q, Q(i) and
cyclotomic fields integer numerators over one denominator, with a
conjugation-twisted Q(i) plane where sigma acts on raw values. The z_7
and z_12 planes run the generic reduction rows (Phi_12 = x^4 - x^2 + 1
is not all ones) and the norm inverse. A GF(5) 3-space adds a linear relation term that must be
reordered past the rest of the monomial (in Witten's algebra every linear
term lands in order with coefficient 1). `linalg` is checked over GF(7),
Q and Q(i). Inputs are drawn from fixed seeds.
"""

import random
import zlib

import pytest

from conftest import algebra_path
from oracles import naive_word_multiply, random_polynomial, random_scalar, rank
from skewpbw import linalg
from skewpbw.groebner import divide
from skewpbw.poly import DEGLEX, DEGREVLEX, deglex_key, divides
from skewpbw.presentation import (
    check_pbw_consistency,
    load_presentation,
    load_presentation_file,
    quantum_plane,
)
from skewpbw.scalars import FieldSpec, Scalar, get_field

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


@pytest.mark.parametrize("order", [DEGLEX, DEGREVLEX], ids=lambda o: o.kind)
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


@pytest.mark.parametrize(
    "spec",
    [FieldSpec.prime(7), FieldSpec.rationals(), FieldSpec.gaussian()],
    ids=str,
)
def test_raw_nullspace_and_solve_match_scalar_elimination(spec):
    """linalg's raw-value kernels against the Scalar elimination of
    `oracles.rank`. nullspace: kernel dimension and independence, rows @ v
    = 0 recomputed on Scalars. Echelon, which solves for each vector's
    relation to the vectors kept before it: a relation exactly when the
    rank does not grow, each relation summing to zero on Scalars, as many
    vectors kept as the rank, and the same relations when the row keys are
    permuted."""
    field = get_field(spec)
    rng = random.Random(str(spec))

    def raw(rows):
        return [[c.value for c in r] for r in rows]

    def wrap(v):
        return [Scalar(field, c) for c in v]

    def apply(rows, v):
        return [sum((a * b for a, b in zip(r, v)), field.zero) for r in rows]

    def relations(vectors, row_keys):
        """Each vector's relation, its entries fed in a shuffled order."""
        echelon = linalg.Echelon(field)
        found = []
        for k, v in enumerate(vectors):
            cols = rng.sample(range(len(v)), len(v))
            found.append(echelon.reduce(k, {row_keys[c]: v[c].value for c in cols}))
        return found

    assert linalg.nullspace([], field, 3) == [
        [field.raw_one if i == k else field.raw_zero for i in range(3)] for k in range(3)
    ]
    two = field.from_int(2).value
    echelon = linalg.Echelon(field)
    assert echelon.reduce("a", {0: field.raw_one, 1: two}) is None
    assert echelon.reduce("b", {0: two, 1: field.from_int(4).value}) == {
        "b": field.raw_one, "a": field.raw_neg(two)
    }
    assert echelon.reduce("c", {}) == {"c": field.raw_one}
    for _ in range(40):
        width = rng.randint(1, 5)
        rows = [
            [random_scalar(field, rng) for _ in range(width)]
            for _ in range(rng.randint(1, 4))
        ]
        if rng.random() < 0.5:  # a dependent row
            k = random_scalar(field, rng)
            rows.append([k * a + b for a, b in zip(rows[0], rows[-1])])
        ncols = width + rng.randint(0, 2)
        kernel = [wrap(v) for v in linalg.nullspace(raw(rows), field, ncols)]
        assert len(kernel) == ncols - rank(rows, field)
        assert not kernel or rank(kernel, field) == len(kernel)
        for v in kernel:
            assert all(x.is_zero() for x in apply(rows, v[:width]))

        vectors = rows + [[field.zero] * width]
        rng.shuffle(vectors)
        found = relations(vectors, list(range(width)))
        for k, relation in enumerate(found):
            grows = rank(vectors[: k + 1], field) > rank(vectors[:k], field)
            assert (relation is None) == grows
            if relation is not None:
                assert relation[k] == field.raw_one
                assert all(found[j] is None for j in relation if j != k)
                total = [field.zero] * width
                for j, c in relation.items():
                    total = [t + Scalar(field, c) * a for t, a in zip(total, vectors[j])]
                assert all(t.is_zero() for t in total)
        assert found.count(None) == rank(vectors, field)
        assert relations(vectors, rng.sample(range(width), width)) == found
