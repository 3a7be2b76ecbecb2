"""Closed forms on quasi-commutative presentations, checked against oracles.

With no lower terms, x_i * x^e is one term c * x^(e + e_i), and a point is
a character exactly when z_i*z_j = 0 for every pair whose constant is not
1. Seeded presentations over GF(7), Q, Q(i) and Q(zeta5) mix constants
that are 1, roots of unity and neither: "plain" ones have every sigma the
identity and take the closed form of `poly._insert_var`; a "twisted" one
moves the field primitive past x and keeps the walk; a "lower" one has
x_w*x_y = c*x_y*x_w + a*x_x + d and keeps the whole relation equation in
the character test.
"""

import itertools
import random

import pytest

from oracles import _satisfies_relations, check_products, domain_points
from skewpbw import poly
from skewpbw.geometry import Point, SearchDomain, is_character, vanishing_set
from skewpbw.presentation import Presentation, Relation
from skewpbw.scalars import FieldSpec, get_field

SPECS = {
    "gf:7": FieldSpec.prime(7),
    "Q": FieldSpec.rationals(),
    "Q(i)": FieldSpec.gaussian(),
    "cyclotomic:5": FieldSpec.cyclotomic(5),
}
# the exponent k of sigma: z -> z^k on the field primitive, for "twisted"
TWISTS = {"Q(i)": -1, "cyclotomic:5": 2}
CASES = [(s, "plain") for s in SPECS] + [(s, "lower") for s in SPECS] + [
    (s, "twisted") for s in TWISTS
]


def _constants(field):
    """(1, a root of unity other than 1, a constant that is none in char 0)."""
    z = field.primitive()
    if z is None:
        return field.one, field.from_int(-1), field.from_int(2)
    return field.one, z * z, field.one + z


def _presentation(spec, kind) -> Presentation:
    field = get_field(SPECS[spec])
    rng = random.Random(f"{spec} {kind}")
    zero = field.zero
    consts = list(_constants(field))
    rng.shuffle(consts)
    c = dict(zip([(0, 1), (0, 2), (1, 2)], consts))
    sigma = None
    if kind == "twisted":
        # sigma_x moves c_xy, so x_y * x_x^2 picks up c_xy * sigma_x(c_xy),
        # not c_xy^2; the overlap x_w*x_y*x_x needs sigma_x(c_yw) = c_yw
        sigma = (TWISTS[spec], 1, 1)
        c[(0, 1)], c[(1, 2)] = field.primitive(), field.from_int(rng.choice([-1, 2]))
    if kind == "lower":
        # the overlap x_w*x_y*x_x needs c_xy * c_xw = 1
        c[(0, 1)] = rng.choice(_constants(field)[1:])
        c[(0, 2)] = c[(0, 1)].inv()
    rels = {ij: Relation(q, (), zero) for ij, q in c.items()}
    if kind == "lower":
        # a = -d, so that (1, 0, 0) is a character
        d = rng.choice([-2, 3])
        rels[(1, 2)] = Relation(c[(1, 2)], ((0, field.from_int(-d)),), field.from_int(d))
    return Presentation(field, ("x", "y", "w"), sigma, rels)


@pytest.mark.parametrize("spec,kind", CASES)
def test_products_match_word_rewriting(spec, kind, monkeypatch):
    """multiply agrees with `naive_word_multiply` and is associative; with
    every sigma the identity and no lower terms, each insertion adds one
    cache entry of one term, and a twisted presentation still walks."""
    pres = _presentation(spec, kind)
    assert pres.quasi_commutative == (kind != "lower")
    growth = []
    insert_var = poly._insert_var

    def counting(pres, i, exp):
        cache = pres._insert_cache
        before, miss = len(cache), (i, exp) not in cache
        out = insert_var(pres, i, exp)
        if miss:
            growth.append((len(cache) - before, len(out)))
        return out

    monkeypatch.setattr(poly, "_insert_var", counting)
    check_products(pres, random.Random(f"products {spec} {kind}"), 3, 4)
    assert growth
    if kind == "plain":
        assert set(growth) == {(1, 1)}
    else:
        assert max(entries for entries, _ in growth) > 1


@pytest.mark.parametrize("spec,kind", CASES)
def test_characters_match_relation_equations(spec, kind):
    """The domain partition and `is_character` mark as characters exactly
    the points that satisfy every relation equation on Scalars; the points
    come in domain order, each a `Point` of one coordinate tuple."""
    pres = _presentation(spec, kind)
    field = pres.field
    column = [field.from_int(k) for k in (0, 1, -1, 2, 3)]
    if field.primitive() is not None:
        column += _constants(field)[1:]
    domain = SearchDomain.grid([column])
    points = domain_points(domain, pres)
    assert [Z.coords for Z in points] == list(itertools.product(column, repeat=pres.n))
    assert all(type(Z) is Point for Z in points)
    expected = [Z for Z in points if not _satisfies_relations(pres, Z)]
    report = vanishing_set(pres, [], domain)
    assert report.degenerate == expected
    assert report.roots == points
    assert all(type(Z) is Point for Z in report.roots)
    assert [Z for Z in points if not is_character(pres, Z)] == expected
    assert 0 < len(expected) < len(points)
