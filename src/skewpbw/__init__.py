"""Exact computer algebra for bijective skew PBW extensions.

Division and left Groebner bases over presentations x_j x_i = c_ij x_i x_j
+ lower terms with exact field coefficients (Q, Q(i), cyclotomic, GF(p)),
two-sided saturation, noncommutative vanishing sets / ideals of points, and
a desk-scale verifier for the radical sandwich
< I_Z(V_Z(J)) >  ⊆  sqrt(I)  ⊆  I(V(I)).
"""

from skewpbw.scalars import FieldSpec, InputError, Scalar, make_field
from skewpbw.presentation import (
    Presentation,
    check_pbw_consistency,
    load_presentation,
    load_presentation_file,
    presentation_hash,
    quantum_plane,
    serialize_presentation,
)
from skewpbw.poly import (
    DEGLEX,
    DEGREVLEX,
    MonomialOrder,
    Polynomial,
    multiply,
    parse_polynomial,
)
from skewpbw.groebner import (
    Budget,
    DivisionResult,
    IdealHandle,
    divide,
    intersect_left,
    is_member_left,
    left_groebner,
    two_sided_saturate,
)
from skewpbw.geometry import (
    Point,
    SearchDomain,
    algebraic_witness,
    ideal_of_points,
    is_root,
    point_ideal,
    vanishing_set,
)
from skewpbw.nullstellensatz import (
    CenterDescription,
    SandwichReport,
    center_generators,
    central_nilpotency,
    commutative_points_ideal,
    contract_to_center,
    radical_membership_commutative,
    verify_sandwich,
)
from skewpbw.normality import (
    NormalityVerdict,
    central_probe,
    is_normal,
)

__version__ = "0.1.0"
