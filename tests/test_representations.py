"""Cross-validate the rewriting engine against faithful operator models.

Two classical representations on F[t] give the engine an oracle that owes
nothing to the normal-form code: for yx = xy - 1 take x -> (multiply by t),
y -> -d/dt, so [x, y] = 1; for the quantum plane yx = q*xy take
x -> (multiply by t), y -> (f(t) -> f(q*t)). A normal-ordered product is
correct iff the corresponding operator composites agree on enough
polynomials (degrees here stay far below any faithfulness threshold).
"""

import random
import zlib

from oracles import random_polynomial
from skewpbw.poly import Polynomial, multiply
from skewpbw.presentation import Presentation, Relation, quantum_plane
from skewpbw.scalars import FieldSpec, get_field


# operators act on dense coefficient lists over the field, low degree first


def _op_mul_t(coeffs, field):
    return [field.zero] + list(coeffs)


def _op_neg_ddt(coeffs, field):
    return [
        -(field.from_int(k + 1) * c) for k, c in enumerate(coeffs[1:])
    ]


def _op_dilate(coeffs, field, q):
    return [c * q ** k for k, c in enumerate(coeffs)]


def _trim(coeffs, field):
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    return coeffs


def _apply_poly(f: Polynomial, coeffs, field, y_action):
    """Apply f under x -> t-multiplication, y -> y_action, terms left to right."""
    out = [field.zero]
    for (a, b), c in f.terms:
        cur = list(coeffs)
        for _ in range(b):
            cur = y_action(cur)
        for _ in range(a):
            cur = _op_mul_t(cur, field)
        top = max(len(out), len(cur))
        out = [
            (out[k] if k < len(out) else field.zero)
            + c * (cur[k] if k < len(cur) else field.zero)
            for k in range(top)
        ]
    return _trim(out, field)


def _random_coeffs(field, rng, top=4):
    return [field.from_int(rng.randint(-3, 3)) for _ in range(top + 1)]


def test_weyl_pair_matches_differential_operators(weyl_z):
    # restrict to the x, y pair (z never appears), a presentation of its
    # own; y*x = x*y - 1 means y acts as -d/dt when x acts as t
    field = weyl_z.field
    pair = Presentation(field, ("x", "y"), relations={(0, 1): Relation(1, (), -1)})
    rng = random.Random(zlib.crc32(b"weyl-ops"))
    y_action = lambda c: _op_neg_ddt(c, field)

    def sample():
        # polynomials in x, y only
        while True:
            f = random_polynomial(weyl_z, rng, 3, 3)
            if all(e[2] == 0 for e, _ in f.terms):
                return Polynomial(pair, tuple(((e[0], e[1]), c) for e, c in f.terms))

    def as_weyl(f2):
        return Polynomial(
            weyl_z, tuple(((a, b, 0), c) for (a, b), c in f2.terms)
        )

    for _ in range(60):
        f2, g2 = sample(), sample()
        fg = multiply(as_weyl(f2), as_weyl(g2))
        fg2 = Polynomial(pair, tuple(((e[0], e[1]), c) for e, c in fg.terms))
        coeffs = _random_coeffs(field, rng)
        via_product = _apply_poly(fg2, coeffs, field, y_action)
        via_compose = _apply_poly(f2, _apply_poly(g2, coeffs, field, y_action), field, y_action)
        assert via_product == via_compose


def test_quantum_plane_matches_dilation_operators():
    for q_int, spec in ((2, FieldSpec.rationals()), (3, FieldSpec.prime(5))):
        field = get_field(spec)
        q = field.from_int(q_int)
        pres = quantum_plane(field, q)
        rng = random.Random(zlib.crc32(b"dilate") + q_int)
        y_action = lambda c: _op_dilate(c, field, q)
        for _ in range(60):
            f = random_polynomial(pres, rng, 3, 3)
            g = random_polynomial(pres, rng, 3, 3)
            fg = multiply(f, g)
            coeffs = _random_coeffs(field, rng)
            via_product = _apply_poly(fg, coeffs, field, y_action)
            via_compose = _apply_poly(
                f, _apply_poly(g, coeffs, field, y_action), field, y_action
            )
            assert via_product == via_compose
