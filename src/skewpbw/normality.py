"""Centrality probes and normal-element tests (Af = fA).

Normality against the infinite condition Af = fA reduces to finitely many
checks: per-generator witness solves f*g = x_j*f and g'*f = f*x_j, plus a
scalar direction (all sigma^alpha over the support of f must agree on the
field, otherwise some r*f escapes fA). In a domain the witness degree is
forced, so an infeasible bounded solve is a certificate of non-normality.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional

from skewpbw import linalg
from skewpbw.poly import (
    Polynomial, _mono_times_dict, _multiply_raw, exponents_up_to, multiply,
)
from skewpbw.scalars import InputError


def central_probe(f: Polynomial) -> bool:
    """Whether f commutes with every generator and with the field.

    Generators plus scalars generate the algebra, so this decides f in Z(A).
    The scalar half needs sigma^alpha to fix the field, exponent 1, for
    every exponent alpha in the support. The products f*x_j and x_j*f are
    compared as raw dicts, with no polynomial built or sorted.
    """
    pres = f.pres
    if not pres.sigma_all_identity and any(pres.sigma_power(e) != 1 for e, _ in f.raw):
        return False
    one, o, d = pres.field.raw_one, (0,) * pres.n, dict(f.raw)
    for j in range(pres.n):
        ej = o[:j] + (1,) + o[j + 1 :]
        if _multiply_raw(pres, f.raw, ((ej, one),), {}) != _mono_times_dict(pres, ej, d):
            return False
    return True


class NormalityVerdict(NamedTuple):
    status: str  # "normal" | "not_normal"
    certificate: Optional[Dict[int, tuple]] = None  # generator index: (g, g')
    counter_witness: Optional[tuple] = None  # (direction, witness)


def is_normal(f: Polynomial) -> NormalityVerdict:
    """Decide Af = fA through generator-wise witness solves.

    For each generator: find g with f*g = x_j*f and g' with g'*f = f*x_j
    among the polynomials of degree <= 1. In a bijective skew PBW extension
    lm(f*g) = lm f + lm g, so a witness has degree exactly one and a
    higher degree adds only unknowns that must be zero. All solvable =>
    normal with recorded witnesses; any infeasible solve => not_normal
    with the failing generator. Each left witness is checked against
    f*g = x_j*f, and a failure raises RuntimeError: an engine fault, since
    the scalar check makes the solve exact.
    """
    if f.is_zero():
        raise InputError("normality of the zero polynomial is undefined")
    pres = f.pres
    field = pres.field

    # scalar direction: every sigma^alpha on supp(f) must be the same map
    K = pres.sigma_power(f.raw[0][0])
    if not pres.sigma_all_identity and any(pres.sigma_power(e) != K for e, _ in f.raw):
        return NormalityVerdict("not_normal", counter_witness=("scalar", field.primitive()))

    # the spans {x^b * f} (right witnesses, unknowns untwisted) and
    # {f * x^b} (left witnesses, in v = sigma^alpha(g), one map z |-> z^K
    # by the scalar check), built once for every generator
    right, left = linalg.Echelon(field), linalg.Echelon(field)
    for b in exponents_up_to(pres.n, 1):
        xb = Polynomial.monomial(pres, b)
        right.reduce(b, dict((xb * f).raw))
        left.reduce(b, dict((f * xb).raw))
    witnesses: Dict[int, tuple] = {}
    for j in range(pres.n):
        xj = Polynomial.variable(pres, j)
        gprime = _solve_combination(right, multiply(f, xj), pres)
        if gprime is None:
            return NormalityVerdict("not_normal", counter_witness=("right", j))
        v = _solve_combination(left, multiply(xj, f), pres)
        if v is None:
            return NormalityVerdict("not_normal", counter_witness=("left", j))
        if K == 1:
            g = v
        else:
            k_inv = pow(K, -1, field.m)
            g = Polynomial.from_raw(
                pres, [(b, field.raw_galois(c, k_inv)) for b, c in v.raw], ordered=True
            )
        # sigma^alpha = sigma_K on supp f gives f*(sigma_K^-1(v)*x^b) = v*(f*x^b)
        if multiply(f, g) != multiply(xj, f):
            raise RuntimeError(f"left witness {g} of {f} fails at {pres.names[j]}")
        witnesses[j] = (g, gprime)
    return NormalityVerdict("normal", certificate=witnesses)


def _solve_combination(echelon, target, pres) -> Optional[Polynomial]:
    """Scalars v_b with sum v_b * (product kept under b) = target, as a
    polynomial, or None when target is outside the span; a product that
    depends on the ones before it gets v_b = 0. A target outside is kept,
    so a caller that gets None must not solve against the echelon again.
    """
    field = pres.field
    relation = echelon.reduce(None, dict(target.raw))
    if relation is None:
        return None
    del relation[None]
    return Polynomial.from_raw(pres, [(b, field.raw_neg(c)) for b, c in relation.items()])
