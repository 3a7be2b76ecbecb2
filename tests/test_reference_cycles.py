"""No public operation leaves its presentation in a reference cycle.

A presentation carries the insertion cache and the domain partition. If
an operation stores on it anything that points back at it, such as an
`IdealHandle` or a `Polynomial`, the presentation outlives its last
reference and is freed only when the cyclic collector runs. Each case
loads a fresh presentation in a helper, runs one operation and returns
only a weakref to the presentation; with the collector off, the
reference must already be dead.
"""

import gc
import weakref

import pytest

from conftest import algebra_path
from skewpbw import geometry, groebner, normality, nullstellensatz
from skewpbw.geometry import Point, SearchDomain
from skewpbw.poly import DEGLEX, multiply, parse_polynomial
from skewpbw.presentation import check_pbw_consistency, load_presentation_file


def _polys(pres, *texts):
    return [parse_polynomial(t, pres) for t in texts]


def _saturated(pres, *texts):
    return groebner.two_sided_saturate(_polys(pres, *texts))


def _sandwich(pres):
    C = nullstellensatz.center_generators(pres)
    grid = SearchDomain.grid([range(-2, 3)])
    return nullstellensatz.verify_sandwich(_saturated(pres, "x^4"), C, grid, 4, 4)


def _contraction(pres):
    C = nullstellensatz.center_generators(pres)
    return nullstellensatz.contract_to_center(_saturated(pres, "x^4", "y^2 - 1"), C, 4)


def _nilpotency(pres):
    (x2,) = _polys(pres, "x^2")
    return nullstellensatz.central_nilpotency(x2, _saturated(pres, "x^3"), 4)


def _intersection(pres):
    I = groebner.left_groebner(_polys(pres, "x", "y^2"))
    J = groebner.left_groebner(_polys(pres, "y", "x^2"))
    return groebner.intersect_left(I, J)


# name -> (shipped algebra, operation on a presentation loaded from it)
OPERATIONS = {
    "is_root": ("qplane_m1.alg", lambda pres: [
        geometry.is_root(f, Point.of(pres, Z))
        for f in _polys(pres, "x^2 - y", "x*y") for Z in ([1, 0], [1, 1])
    ]),
    "point_ideal": ("witten.alg", lambda pres: [
        geometry.point_ideal(pres, Point.of(pres, Z)) for Z in ([0, 0, 2], [1, 1, 1])
    ]),
    "is_character": ("witten.alg", lambda pres: [
        geometry.is_character(pres, Point.of(pres, Z)) for Z in ([0, 0, 2], [1, 1, 1])
    ]),
    "algebraic_witness": ("qplane_m1.alg", lambda pres: geometry.algebraic_witness(
        pres, [Point.of(pres, [1, 0]), Point.of(pres, [0, 2]), Point.of(pres, [1, 1])]
    )),
    "verify_sandwich": ("qplane_m1.alg", _sandwich),
    "evaluate": ("witten.alg", lambda pres: geometry.evaluate(
        parse_polynomial("x*y*z + 1", pres), Point.of(pres, [1, 2, 3])
    )),
    "vanishing_set": ("qplane_q2_gf5.alg", lambda pres: geometry.vanishing_set(
        pres, _polys(pres, "x*y", "y^2 - 1"), SearchDomain.full_prime_field()
    )),
    # the second call finds the partition warm and extends its kept values
    "vanishing_set_twice": ("qplane_q2_gf5.alg", lambda pres: [
        geometry.vanishing_set(pres, _polys(pres, *texts), SearchDomain.full_prime_field())
        for texts in (("x*y", "y^2 - 1"), ("x^3 - 2*y", "x*y^2 + 1"))
    ]),
    "ideal_of_points": ("witten.alg", lambda pres: geometry.ideal_of_points(
        pres, [Point.of(pres, [0, 0, 2]), Point.of(pres, [1, 1, 1])], 2
    )),
    "commutative_points_ideal": ("commutative_xy.alg", lambda pres: (
        geometry.commutative_points_ideal(pres, [(0, 1), (2, 3)])
    )),
    "left_groebner": ("weyl_z.alg", lambda pres: groebner.left_groebner(
        _polys(pres, "x^2 - z", "x*y + 1")
    )),
    "left_groebner_certificates": ("weyl_z.alg", lambda pres: groebner.left_groebner(
        _polys(pres, "x^2 - z", "x*y + 1"), track=True
    )),
    "two_sided_saturate": ("qspace3.alg", lambda pres: _saturated(pres, "x*y - z", "y^2")),
    "two_sided_saturate_certificates": ("qspace3.alg", lambda pres: (
        groebner.two_sided_saturate(_polys(pres, "x*y - z", "y^2"), track=True)
    )),
    "is_member_left": ("qplane_i.alg", lambda pres: groebner.is_member_left(
        parse_polynomial("x^2*y", pres), groebner.left_groebner(_polys(pres, "x*y - 1"))
    )),
    "divide": ("witten.alg", lambda pres: groebner.divide(
        parse_polynomial("z*y*x + x^2", pres), _polys(pres, "x*y - z", "x + 1"), DEGLEX
    )),
    "intersect_left": ("commutative_xy.alg", _intersection),
    "is_normal": ("qplane_i.alg", lambda pres: [
        normality.is_normal(f) for f in _polys(pres, "x", "x + y")
    ]),
    "central_probe": ("qplane_m1.alg", lambda pres: normality.central_probe(
        parse_polynomial("x^2 + y^2", pres)
    )),
    "center_generators": ("qplane_q2_gf5.alg", nullstellensatz.center_generators),
    "contract_to_center": ("qplane_m1.alg", _contraction),
    "central_nilpotency": ("qplane_m1.alg", _nilpotency),
    "radical_membership_commutative": ("commutative_xy.alg", lambda pres: (
        nullstellensatz.radical_membership_commutative(
            parse_polynomial("x*y", pres), _polys(pres, "x^2", "y^3")
        )
    )),
    "check_pbw_consistency": ("witten.alg", check_pbw_consistency),
    "long_product": ("weyl_z.alg", lambda pres: multiply(
        *_polys(pres, "y^40 + z", "x^40 - y")
    )),
}


def _presentation_after(algebra: str, operation):
    """A weakref to a fresh presentation that ran the operation, and
    nothing else of it."""
    pres = load_presentation_file(algebra_path(algebra))
    operation(pres)
    return weakref.ref(pres)


@pytest.mark.parametrize("name", OPERATIONS)
def test_no_operation_keeps_its_presentation_in_a_cycle(name):
    algebra, operation = OPERATIONS[name]
    enabled = gc.isenabled()
    gc.disable()
    try:
        ref = _presentation_after(algebra, operation)
        assert ref() is None, f"{name} left its presentation in a reference cycle"
    finally:
        if enabled:
            gc.enable()
