"""Metamorphic relations: answers that two related runs must share.

- Conjugation over Q(i). Complex conjugation is a field automorphism, so
  it maps `qspace3` (y*x = 2i*x*y, z*x = 3i*x*z, z*y = -i*y*z) onto the
  presentation with the conjugate constants -2i, -3i and i, fixing every
  monomial. The engine only adds, multiplies and inverts field values,
  so conjugate inputs give the conjugate left bases, saturations,
  products and division remainders.
- Budget monotonicity. A left basis or saturation that ends `proper` or
  `unit` under a small `Budget` skipped no pair and ran out of no cap,
  so a larger budget runs the same computation and gives the same basis.

The inputs are drawn under a derandomized hypothesis profile: polynomials
of degree <= 2 with <= 3 terms. Each test runs its `given` function
inside a plain test, so that a failure reaches pytest as a plain
assertion (hypothesis's pytest plugin writes no patch for it) and the
budget test can count the statuses it saw.
"""

from collections import Counter

import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

from conftest import algebra_path
from skewpbw.groebner import (
    PROPER, UNIT, UNKNOWN, Budget, divide, left_groebner, two_sided_saturate,
)
from skewpbw.poly import Polynomial, exponents_up_to, multiply
from skewpbw.presentation import load_presentation, load_presentation_file

# no shrinking: each example runs Groebner computations, and a failure
# reports the example as drawn
settings.register_profile(
    "metamorphic", derandomize=True, database=None, deadline=None, max_examples=40,
    phases=(Phase.explicit, Phase.generate), suppress_health_check=[HealthCheck.too_slow],
)
PROFILE = settings.get_profile("metamorphic")

QSPACE3 = load_presentation_file(algebra_path("qspace3.alg"))
CONJUGATE = load_presentation(
    "field: Q(i)\nvars: x, y, z\n"
    "relation: y*x = -2*i*x*y\nrelation: z*x = -3*i*x*z\nrelation: z*y = i*y*z\n"
)
SHIPPED = [
    "commutative_xy.alg", "qplane_i.alg", "qplane_m1.alg", "qplane_q2_gf5.alg",
    "qspace3.alg", "weyl_z.alg", "witten.alg",
]
SMALL_BUDGETS = [Budget(2, 2), Budget(3, 10), Budget(4, 40)]
LARGE_BUDGET = Budget(10, 2000)


def _polynomials(pres, size):
    """Lists of 1..size polynomials of pres of degree <= 2 with 1..3 terms,
    each coefficient a + b*z for ints a, b in -3..3, z the field's
    primitive, or a alone on a field that has none."""
    field, z, ints = pres.field, pres.field.primitive(), st.integers(-3, 3)
    if z is None:
        coefficient = ints.map(field.from_int)
    else:
        coefficient = st.builds(lambda a, b: field.from_int(a) + z * b, ints, ints)
    terms = st.lists(
        st.tuples(st.sampled_from(exponents_up_to(pres.n, 2)), coefficient),
        min_size=1, max_size=3, unique_by=lambda t: t[0],
    )
    return st.lists(terms.map(lambda pairs: Polynomial(pres, pairs)), min_size=1, max_size=size)


def _conjugate(f):
    """f's image in the conjugate presentation: each coefficient conjugated."""
    target = CONJUGATE if f.pres is QSPACE3 else QSPACE3
    conj = f.pres.field.raw_galois
    return Polynomial.from_raw(target, [(e, conj(c, -1)) for e, c in f.raw], ordered=True)


def test_the_conjugate_presentation_has_the_conjugate_constants():
    for pair, rel in QSPACE3.relations.items():
        image = CONJUGATE.relations[pair]
        assert image.c.value == QSPACE3.field.raw_galois(rel.c.value, -1)
        assert image.linear == rel.linear == () and image.const == rel.const


def test_conjugate_inputs_give_conjugate_answers():
    """Bases and statuses of left ideals and saturations, products and
    division remainders commute with conjugation."""

    @PROFILE
    @given(_polynomials(QSPACE3, 3), _polynomials(QSPACE3, 2))
    def check(gens, pair):
        conj = [_conjugate(g) for g in gens]
        for compute in (left_groebner, two_sided_saturate):
            handle, image = (compute(g, budget=Budget(6, 400)) for g in (gens, conj))
            assert image.status == handle.status
            assert list(image.basis) == [_conjugate(g) for g in handle.basis]
        f, g = pair[0], pair[-1]
        assert multiply(_conjugate(f), _conjugate(g)) == _conjugate(multiply(f, g))
        divisors = [h for h in gens if not h.is_zero()]
        if divisors:
            remainder = divide(f, divisors).remainder
            assert divide(_conjugate(f), [_conjugate(h) for h in divisors]).remainder == (
                _conjugate(remainder)
            )

    check()


@pytest.mark.parametrize("name", SHIPPED)
def test_a_finished_basis_is_the_one_a_larger_budget_gives(name):
    """On each shipped algebra, a left basis or saturation that ends
    `proper` or `unit` under a small budget equals the one under
    Budget(10, 2000). Some runs must finish and some must not, so the
    relation is tested and the small budgets bind."""
    pres = load_presentation_file(algebra_path(name))
    statuses = Counter()

    @PROFILE
    @given(_polynomials(pres, 2))
    def check(gens):
        for compute in (left_groebner, two_sided_saturate):
            for budget in SMALL_BUDGETS:
                handle = compute(gens, budget=budget)
                statuses[handle.status] += 1
                if handle.status in (PROPER, UNIT):
                    large = compute(gens, budget=LARGE_BUDGET)
                    assert (large.status, large.basis) == (handle.status, handle.basis)

    check()
    assert statuses[PROPER] + statuses[UNIT] > 0 and statuses[UNKNOWN] > 0, statuses
