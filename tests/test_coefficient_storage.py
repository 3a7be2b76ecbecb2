"""`Polynomial` stores raw field values: the contract of `raw` and `terms`.

`raw` is a tuple of (exponent, raw value) pairs, strictly descending in
deglex, with no zero value and no `Scalar`. `terms` is the same pairs with
`Scalar` values of the presentation's field, and building from it gives an
equal polynomial with an equal hash; the benchmark's engine reads and
builds polynomials that way. Every construction path is checked on seeded
random polynomials over GF(5), Q, Q(i) and Q(z_5): the ring operations,
`scale`, `from_dict`, the division remainder, and the lifts to an extra
central variable that `intersect_left` and `radical_membership_commutative`
build without sorting.
"""

import random
import zlib

import pytest

from oracles import random_polynomial, random_scalar
from skewpbw import groebner, nullstellensatz
from skewpbw.groebner import Budget, divide, intersect_left, left_groebner
from skewpbw.nullstellensatz import radical_membership_commutative
from skewpbw.poly import DEGLEX, DEGREVLEX, Polynomial, deglex_key, multiply
from skewpbw.presentation import load_presentation
from skewpbw.scalars import Scalar

# a noncommutative plane or space per kind of raw value; Q and Q(i) carry
# linear relation terms, Q(i) a conjugation twist
ALGEBRAS = {
    "gf5": "field: gf:5\nvars: x, y\nrelation: y*x = 2*x*y\n",
    "q": "field: Q\nvars: x, y, z\nrelation: y*x = 2*x*y\n"
    "relation: z*x = x*z - x\nrelation: z*y = y*z + 2*y\n",
    "qi": "field: Q(i)\nvars: x, y\nsigma: x = conj\nrelation: y*x = i*x*y + x\n",
    "zeta5": "field: cyclotomic:5\nvars: x, y\nrelation: y*x = z*x*y\n",
}
FIELDS = {"gf5": "gf:5", "q": "Q", "qi": "Q(i)", "zeta5": "cyclotomic:5"}


def _is_raw(c) -> bool:
    if isinstance(c, int):
        return True
    return isinstance(c, tuple) and all(isinstance(k, int) for k in c)


def assert_canonical(f: Polynomial) -> None:
    field = f.pres.field
    assert isinstance(f.raw, tuple)
    for e, c in f.raw:
        assert not isinstance(c, Scalar) and _is_raw(c)
        assert c != field.raw_zero
        assert isinstance(e, tuple) and len(e) == f.pres.n
    keys = [deglex_key(e) for e, _ in f.raw]
    assert all(a > b for a, b in zip(keys, keys[1:])), "not strictly descending"
    terms = f.terms
    assert all(isinstance(c, Scalar) and c.field is field for _, c in terms)
    assert [(e, c.value) for e, c in terms] == list(f.raw)
    again = Polynomial(f.pres, terms)
    assert again == f and hash(again) == hash(f)


def _rng(name: str) -> random.Random:
    return random.Random(zlib.crc32(name.encode()))


def _nonconstant(pres, rng, max_degree, max_terms):
    while True:
        f = random_polynomial(pres, rng, max_degree, max_terms)
        if not f.is_constant():
            return f


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_arithmetic_keeps_raw_canonical(name):
    pres = load_presentation(ALGEBRAS[name])
    field = pres.field
    rng = _rng(name)
    for _ in range(40):
        f = random_polynomial(pres, rng, 3, 4)
        g = random_polynomial(pres, rng, 3, 4)
        c = random_scalar(field, rng)
        results = [f, g, f + g, f - g, -f, f.scale(c), multiply(f, g), g * f, f + 1]
        for h in results:
            assert_canonical(h)
        assert (f - f).raw == () and (f + (-f)).raw == ()
        d = dict(f.terms)
        fresh = (9,) * pres.n  # a monomial no random polynomial reaches
        d[fresh] = field.zero
        assert Polynomial.from_dict(pres, d) == f
        d[fresh] = field.one
        h = Polynomial.from_dict(pres, d)
        assert_canonical(h)
        assert h.raw[0] == (fresh, field.raw_one)
        if not f.is_zero():
            lead = f.leading(DEGLEX)
            assert lead == f.raw[0] and not isinstance(lead[1], Scalar)


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
@pytest.mark.parametrize("order", [DEGLEX, DEGREVLEX], ids=["deglex", "degrevlex"])
def test_division_results_keep_raw_canonical(name, order):
    pres = load_presentation(ALGEBRAS[name])
    rng = _rng(name + order.kind)
    for _ in range(25):
        f = random_polynomial(pres, rng, 4, 5)
        divisors = [_nonconstant(pres, rng, 2, 3) for _ in range(2)]
        res = divide(f, divisors, order)
        assert_canonical(res.remainder)
        for q in res.quotients:
            assert_canonical(q)
        assert res.reconstruct(divisors) == f


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_central_variable_lifts_keep_raw_canonical(name, monkeypatch):
    """Both lifts prefix a common t-degree to every exponent and keep the
    order of `raw` as it is; the elements they feed to a completion, by
    `left_groebner` in `intersect_left` and by `groebner._start` in the
    radical step, and the t-free elements `intersect_left` projects back,
    must still be canonical. The lifts are checked before any completion
    runs on them."""
    seen = []
    original = groebner.left_groebner

    def checked(gens):
        for g in gens:
            assert g.pres is not pres and g.pres is not comm
            assert_canonical(g)
        seen.extend(gens)

    def recording(gens, *args, **kwargs):
        checked(gens)
        return original(gens, *args, **kwargs)

    def recording_start(gens, *args, **kwargs):
        checked(gens)
        return groebner._start(gens, *args, **kwargs)

    monkeypatch.setattr(groebner, "left_groebner", recording)
    monkeypatch.setattr(nullstellensatz, "_start", recording_start)
    budget = Budget(max_degree=6, max_pairs=200)
    pres = load_presentation(ALGEBRAS[name])
    comm = load_presentation(f"field: {FIELDS[name]}\nvars: x, y\n")

    rng = _rng("intersect " + name)
    for _ in range(6):
        I = original([_nonconstant(pres, rng, 2, 3)])
        J = original([_nonconstant(pres, rng, 2, 3)])
        res = intersect_left(I, J, budget)
        for h in res.elements:
            assert h.pres is pres
            assert_canonical(h)

    rng = _rng("radical " + name)
    for _ in range(6):
        J = [_nonconstant(comm, rng, 2, 3) for _ in range(2)]
        radical_membership_commutative(random_polynomial(comm, rng, 2, 3), J, budget)

    assert len(seen) >= 24


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_scalar_constructor_takes_any_order(name):
    """`Polynomial(pres, terms)` sorts its pairs and drops zeros, as
    `from_raw` does: reversed terms with a zero among them give an equal
    polynomial with an equal hash, and a left Groebner basis of them ends
    with the basis of the originals."""
    pres = load_presentation(ALGEBRAS[name])
    rng = _rng("any-order-" + name)
    gens = [_nonconstant(pres, rng, 3, 4) for _ in range(2)]
    unused = (9,) + (0,) * (pres.n - 1)
    backwards = []
    for f in gens:
        g = Polynomial(pres, [(unused, pres.field.zero)] + list(reversed(f.terms)))
        assert_canonical(g)
        assert g == f and hash(g) == hash(f)
        backwards.append(g)
    budget = Budget(max_degree=6, max_pairs=200)
    assert left_groebner(backwards, budget=budget) == left_groebner(gens, budget=budget)
