import os
import random
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from skewpbw.poly import Polynomial
from skewpbw.presentation import (
    Presentation,
    Relation,
    load_presentation_file,
    quantum_plane,
)
from skewpbw.scalars import FieldSpec, get_field

ALGEBRA_DIR = os.path.join(os.path.dirname(__file__), "..", "algebras")


def algebra_path(name: str) -> str:
    return os.path.join(ALGEBRA_DIR, name)


@pytest.fixture(scope="session")
def QQ():
    return get_field(FieldSpec.rationals())


@pytest.fixture(scope="session")
def GF5():
    return get_field(FieldSpec.prime(5))


@pytest.fixture(scope="session")
def QI():
    return get_field(FieldSpec.gaussian())


@pytest.fixture(scope="session")
def witten():
    return load_presentation_file(algebra_path("witten.alg"))


@pytest.fixture(scope="session")
def weyl_z():
    return load_presentation_file(algebra_path("weyl_z.alg"))


@pytest.fixture(scope="session")
def qplane_m1(QQ):
    return quantum_plane(QQ, QQ.from_int(-1))


@pytest.fixture(scope="session")
def qplane_q2(QQ):
    return quantum_plane(QQ, QQ.from_int(2))


@pytest.fixture(scope="session")
def qplane_gf5(GF5):
    return quantum_plane(GF5, GF5.from_int(2))


@pytest.fixture(scope="session")
def qspace3():
    return load_presentation_file(algebra_path("qspace3.alg"))


@pytest.fixture(scope="session")
def conj_qplane(QI):
    """y*x = i*x*y over Q(i), with x conjugating the coefficients it passes."""
    rel = Relation(QI.primitive(), (), QI.zero)
    return Presentation(
        QI,
        ("x", "y"),
        sigma=(-1, 1),  # z |-> z^-1 on x: complex conjugation
        relations={(0, 1): rel},
    )


@pytest.fixture(scope="session")
def comm2(QQ):
    return Presentation(QQ, ("x", "y"))


@pytest.fixture(scope="session")
def comm2_gf5(GF5):
    return Presentation(GF5, ("x", "y"))


def variables(pres: Presentation):
    return tuple(Polynomial.variable(pres, k) for k in range(pres.n))


@pytest.fixture
def rng():
    return random.Random(20240817)
