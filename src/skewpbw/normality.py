"""Centrality probes and normal-element tests (Af = fA).

Normality against the infinite condition Af = fA reduces to finitely many
checks: per-generator witness solves f*g = x_j*f and g'*f = f*x_j, plus a
scalar direction (all sigma^alpha over the support of f must agree on the
field, otherwise some r*f escapes fA). In a domain the witness degree is
forced, so an infeasible bounded solve is a certificate of non-normality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from skewpbw import linalg
from skewpbw.poly import Polynomial, exponents_up_to, multiply
from skewpbw.presentation import Presentation
from skewpbw.scalars import Scalar


class NormalityError(ValueError):
    pass


def central_probe(f: Polynomial) -> bool:
    """Whether f commutes with every generator and with the field.

    Generators plus scalars generate the algebra, so this decides f in Z(A).
    The scalar half needs sigma^alpha to fix the field, exponent 1, for
    every exponent alpha in the support.
    """
    pres = f.pres
    if not pres.sigma_all_identity and any(pres.sigma_power(e) != 1 for e, _ in f.raw):
        return False
    for j in range(pres.n):
        xj = Polynomial.variable(pres, j)
        if multiply(f, xj) != multiply(xj, f):
            return False
    return True


@dataclass
class NormalityVerdict:
    status: str  # "normal" | "not_normal" | "unknown"
    certificate: Optional[dict] = None
    counter_witness: Optional[tuple] = None  # (direction, witness)

    def is_normal(self) -> bool:
        return self.status == "normal"


def normal_from_parts(
    pres: Presentation, c: Scalar, alpha: tuple, h: Polynomial
) -> Tuple[Polynomial, NormalityVerdict]:
    """c * x^alpha * h with h central: normal by structure over a
    quasi-commutative presentation."""
    c = pres.field.coerce(c)
    if c.is_zero():
        raise NormalityError("leading scalar must be nonzero")
    if not pres.quasi_commutative:
        raise NormalityError("structural normality needs a quasi-commutative presentation")
    if h.pres is not pres:
        raise NormalityError("central part from a different presentation")
    if not central_probe(h):
        raise NormalityError("h is not central")
    f = multiply(Polynomial.monomial(pres, alpha, c), h)
    verdict = NormalityVerdict(
        "normal",
        certificate={"kind": "structure", "c": c, "alpha": tuple(alpha), "h": h},
    )
    return f, verdict


def is_normal(f: Polynomial) -> NormalityVerdict:
    """Decide Af = fA through generator-wise witness solves.

    For each generator: find g with f*g = x_j*f and g' with g'*f = f*x_j
    among the polynomials of degree <= 1. In a bijective skew PBW extension
    lm(f*g) = lm f + lm g, so a witness has degree exactly one and a
    higher degree adds only unknowns that must be zero. All solvable =>
    normal with recorded witnesses; any infeasible solve => not_normal
    with the failing generator.
    """
    if f.is_zero():
        raise NormalityError("normality of the zero polynomial is undefined")
    pres = f.pres
    field = pres.field

    # scalar direction: every sigma^alpha on supp(f) must be the same map
    K = pres.sigma_power(f.raw[0][0])
    if not pres.sigma_all_identity and any(pres.sigma_power(e) != K for e, _ in f.raw):
        return NormalityVerdict("not_normal", counter_witness=("scalar", field.primitive()))

    monos = exponents_up_to(pres.n, 1)
    witnesses: Dict[int, tuple] = {}
    for j in range(pres.n):
        xj = Polynomial.variable(pres, j)
        # right witness: g' * f = f * x_j, unknowns appear untwisted
        target = multiply(f, xj)
        basis_products = [
            Polynomial.monomial(pres, b) * f for b in monos
        ]
        gprime = _solve_combination(basis_products, target, monos, pres)
        if gprime is None:
            return NormalityVerdict("not_normal", counter_witness=("right", j))
        # left witness: f * g = x_j * f; substituting v = sigma^alpha(g)
        # (one map z |-> z^K by the scalar check) makes the system linear in v
        target = multiply(xj, f)
        basis_products = [f * Polynomial.monomial(pres, b) for b in monos]
        v = _solve_combination(basis_products, target, monos, pres)
        if v is None:
            return NormalityVerdict("not_normal", counter_witness=("left", j))
        if K == 1:
            g = v
        else:
            k_inv = pow(K, -1, field.m)
            g = Polynomial.from_raw(
                pres, [(b, field.raw_galois(c, k_inv)) for b, c in v.raw], ordered=True
            )
        if multiply(f, g) != multiply(xj, f):
            # only possible when sigma twists vary over the support in a way
            # the scalar probe cannot see; report honestly
            return NormalityVerdict("unknown")
        witnesses[j] = (g, gprime)
    return NormalityVerdict(
        "normal", certificate={"kind": "witnesses", "per_generator": witnesses}
    )


def _solve_combination(products, target, monos, pres) -> Optional[Polynomial]:
    """Scalars v_b with sum v_b * products[b] = target, as a polynomial.

    The target is reduced against the products; a product that depends on
    the ones before it gets v_b = 0.
    """
    field = pres.field
    echelon = linalg.Echelon(field)
    for b, p in zip(monos, products):
        echelon.reduce(b, dict(p.raw))
    relation = echelon.reduce(None, dict(target.raw))
    if relation is None:
        return None
    del relation[None]
    return Polynomial.from_raw(pres, [(b, field.raw_neg(c)) for b, c in relation.items()])
