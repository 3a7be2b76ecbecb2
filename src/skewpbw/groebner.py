"""Division, left Groebner bases, two-sided saturation and intersection.

The division algorithm peels leading terms: a term whose monomial is
divisible by some divisor's leading monomial is cancelled exactly (over a
field the coefficient condition is always solvable), otherwise it moves to
the remainder. Completion is Buchberger-style on left S-elements with the
normal selection strategy and Gebauer-Moller's chain criterion.

One routine computes left and two-sided bases: a two-sided basis is a left
basis that is also closed under right multiples. It alternates left
completion with adjoining the reduced right multiples of the newly added
elements by a list of right factors: none for a left ideal, the variables
(and the field primitive when some sigma is not the identity) for a
two-sided one. Budgets make `unknown` a first class outcome: right
closure need not terminate in general.
"""

from __future__ import annotations

import heapq
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

from skewpbw.poly import (
    DEGLEX,
    MonomialOrder,
    Polynomial,
    _acc,
    _mono_times_dict,
    divides,
    exp_max,
    exp_sub,
    find_divisor,
    multiply,
)
from skewpbw.presentation import Presentation, extend_with_central
from skewpbw.scalars import Scalar


class GroebnerError(ValueError):
    pass


@dataclass
class Budget:
    """Caps for completion/saturation work; exceeding one yields `unknown`.

    - max_degree: a queued S-pair whose lcm has a higher total degree is
      skipped, and the result is `unknown`;
    - max_pairs: the S-elements one completion may form;
    - max_rounds: the right-closure rounds of a two-sided saturation. A
      round adjoins the reduced right multiples of the elements the last
      completion added; if the round that reaches the cap still adds
      elements, the result is `unknown`. The first round always runs, so
      0 acts as 1. A left basis runs no round and never reads it.

    Pairs pruned by the chain criterion are never formed: they count
    nowhere and never trip the degree budget. So a budget goes further
    than it would without the criterion, and an input that ran out of it
    there may be decided here. A proper or unit answer is exact whatever
    the budget; budgets count work, never time.
    """

    max_degree: int = 12
    max_pairs: int = 100_000
    max_rounds: int = 50


DEFAULT_BUDGET = Budget()


# ---------------------------------------------------------------------------
# division


class DivisionResult:
    """f = sum quotients[i] * divisors[i] + remainder.

    The quotients are built from their raw dicts on first access: callers
    that need only the remainder never pay for them.
    """

    def __init__(self, pres: Presentation, raw_quotients: List[dict], remainder: Polynomial):
        self.remainder = remainder
        self._pres = pres
        self._raw_quotients = raw_quotients

    @cached_property
    def quotients(self) -> List[Polynomial]:
        return [Polynomial.from_raw(self._pres, q) for q in self._raw_quotients]

    def reconstruct(self, divisors: Sequence[Polynomial]) -> Polynomial:
        out = self.remainder
        for q, g in zip(self.quotients, divisors):
            out = out + q * g
        return out


def divide(
    f: Polynomial,
    divisors: Sequence[Polynomial],
    order: MonomialOrder = DEGLEX,
) -> DivisionResult:
    """f = sum q_i * f_i + h with h reduced w.r.t. the divisors.

    Reduced means no term of h has a monomial divisible by any lm(f_i);
    terms are processed largest first, so lm(f) = max of the partial
    product leads and lm(h). Raises on an empty divisor list or a zero
    divisor.
    """
    if not divisors:
        raise GroebnerError("division requires at least one divisor")
    pres = f.pres
    lead_exps = []
    for g in divisors:
        if g.pres is not pres:
            raise GroebnerError("divisors from a different presentation")
        lead = g.leading(order)
        if lead is None:
            raise GroebnerError("division by the zero polynomial")
        lead_exps.append(lead[0])

    field = pres.field
    add, mul, neg, inv, zero = (
        field.raw_add, field.raw_mul, field.raw_neg, field.raw_inv, field.raw_zero
    )
    key = order.key
    div_dicts = [None] * len(divisors)  # raw dicts, made when first used
    work = f.raw_dict()
    # a min-heap on negated order keys pops the largest term first
    heap = [(tuple(map(operator.neg, key(e))), e) for e in work]
    heapq.heapify(heap)
    quotients: List[dict] = [dict() for _ in divisors]
    remainder: dict = {}

    while heap:
        _, exp = heapq.heappop(heap)
        coeff = work.pop(exp, None)
        if coeff is None:
            continue  # stale entry
        i = find_divisor(lead_exps, exp)
        if i < 0:
            remainder[exp] = coeff
            continue
        theta = exp_sub(exp, lead_exps[i])
        d = div_dicts[i]
        if d is None:
            d = div_dicts[i] = divisors[i].raw_dict()
        prod = _mono_times_dict(pres, theta, d)
        lead_c = prod.get(exp)
        if lead_c is None or lead_c == zero:
            raise GroebnerError(
                "monomial order is not multiplicative for this presentation"
            )
        r = mul(coeff, inv(lead_c))
        _acc(quotients[i], theta, r, add, zero)
        r = neg(r)
        for e, c in prod.items():
            if e == exp:
                continue
            cur = work.get(e)
            if cur is None:
                work[e] = mul(r, c)  # nonzero: r and c are
                heapq.heappush(heap, (tuple(map(operator.neg, key(e))), e))
            else:
                cur = add(cur, mul(r, c))
                if cur == zero:
                    del work[e]  # its heap entry goes stale
                else:
                    work[e] = cur

    # the heap pops terms in descending order, which under deglex is the
    # order of Polynomial.terms
    rem = Polynomial.from_raw(pres, remainder, ordered=order.kind == "deglex")
    return DivisionResult(pres, quotients, rem)


def remainder_of(f: Polynomial, basis: Sequence[Polynomial], order: MonomialOrder) -> Polynomial:
    if not basis or f.is_zero():
        return f
    return divide(f, basis, order).remainder


def normal_form_rows(
    pres: Presentation,
    exps: Sequence[tuple],
    basis: Sequence[Polynomial],
    order: MonomialOrder,
) -> List[list]:
    """Matrix of the linear map f -> remainder_of(f, basis, order) on span(x^exps).

    Column k is the normal form of x^(exps[k]); its nullspace is the part
    of the span that reduces to zero.
    """
    zero = pres.field.zero
    cols = [
        remainder_of(Polynomial.monomial(pres, e), basis, order).to_dict()
        for e in exps
    ]
    support = sorted(set().union(*cols))
    return [[col.get(mu, zero) for col in cols] for mu in support]


# ---------------------------------------------------------------------------
# ideal handles

LEFT = "left"
TWO_SIDED = "two-sided"

PROPER = "proper"
UNIT = "unit"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class IdealHandle:
    """Generators plus resolution status and (when proper) a left GB.

    For two-sided handles the basis is additionally closed under reduced
    right multiples, so left membership against it decides two-sided
    membership.
    """

    presentation: Presentation
    generators: Tuple[Polynomial, ...]
    sidedness: str
    status: str
    order: MonomialOrder
    basis: Tuple[Polynomial, ...] = ()
    certificates: Optional[tuple] = None  # per basis element: ((p, gen_idx, q), ...)
    note: str = ""

    def __repr__(self):
        body = ", ".join(str(g) for g in self.basis)
        return f"IdealHandle({self.sidedness}, {self.status}, basis=[{body}])"


# internal: basis items carry a certificate, a tuple of triples
# (p, gen_index, q) with element == sum p * gens[gen_index] * q, where
# gen_index counts the generators as given, zeros included; the
# certificate is None when nobody asked for one


def _cert_sum(parts) -> tuple:
    """Certificate of sum w * element over (w, cert) parts, merged per
    (gen_index, q) in one pass.

    w multiplies each p on the left and is a Polynomial, or None for 1; a
    constant w scales p, the same product without normal ordering.
    """
    merged: dict = {}
    for w, cert in parts:
        c = w.terms[0][1] if w is not None and w.is_constant() else None
        for p, i, q in cert:
            if c is not None:
                p = p.scale(c)
            elif w is not None:
                p = multiply(w, p)
            prev = merged.get((i, q))
            merged[(i, q)] = p if prev is None else prev + p
    return tuple((p, i, q) for (i, q), p in merged.items() if not p.is_zero())


def _reduce_with_cert(
    f: Polynomial,
    cert,
    basis: List[Polynomial],
    certs: List,
    order: MonomialOrder,
):
    if not basis or f.is_zero():
        return f, cert
    res = divide(f, basis, order)
    if cert is not None:
        cert = _cert_sum(
            [(None, cert)]
            + [(-q, c) for q, c in zip(res.quotients, certs) if not q.is_zero()]
        )
    return res.remainder, cert


def _monic(g: Polynomial, cert, order: MonomialOrder):
    """g and its certificate scaled to lead coefficient 1; no work if it is 1."""
    lc = g.leading(order)[1]
    if lc == lc.field.one:
        return g, cert
    u = lc.inv()
    if cert is not None:
        cert = _cert_sum([(Polynomial.constant(g.pres, u), cert)])
    return g.scale(u), cert


def _completion(
    items: List[Tuple[Polynomial, Optional[tuple]]],
    order: MonomialOrder,
    budget: Budget,
    done: int = 0,
):
    """Left Buchberger completion of nonzero items; returns (status, items, note).

    The first `done` items must already be a left GB of monic nonconstant
    elements: no pair among them is formed, and they lead the returned
    items unchanged. status UNIT means a nonzero constant was derived; the
    single returned item is then 1.

    Pairs are managed with Gebauer-Moller's chain criterion only (the
    product criterion fails for these algebras). It is sound because in a
    bijective skew PBW extension lm(x^a * g) = x^(a + lm g) with a nonzero
    coefficient, so S-elements of a chain i-k-j whose lcms divide the lcm
    of i and j combine into a standard representation of the S-element of
    i and j.
    """
    if not items:
        return PROPER, [], ""
    pres = items[0][0].pres
    basis: List[Polynomial] = []
    certs: List = []
    leads: List[tuple] = []
    pairs: dict = {}  # queued pair (i, j), i < j -> lcm of the two leads
    heap: list = []  # (order key of the lcm, i, j); pairs pruned later go stale

    def add(g: Polynomial, cert):
        k = len(basis)
        lead = g.leading(order)[0]
        # B_k: a queued pair (i, j) whose lcm lead divides, by a chain
        # through k with both lcms different from it, is redundant
        for (i, j), gamma in list(pairs.items()):
            if (
                divides(lead, gamma)
                and exp_max(leads[i], lead) != gamma
                and exp_max(leads[j], lead) != gamma
            ):
                del pairs[(i, j)]
        # M: drop a new pair whose lcm another new lcm properly divides;
        # F: keep one new pair per lcm
        lcms = [exp_max(lead_i, lead) for lead_i in leads]
        fresh: dict = {}
        for i, gamma in enumerate(lcms):
            if gamma in fresh or any(
                other != gamma and divides(other, gamma) for other in lcms
            ):
                continue
            fresh[gamma] = i
        for gamma, i in fresh.items():
            pairs[(i, k)] = gamma
            heapq.heappush(heap, (order.key(gamma), i, k))
        basis.append(g)
        certs.append(cert)
        leads.append(lead)

    for g, cert in items[:done]:
        basis.append(g)
        certs.append(cert)
        leads.append(g.leading(order)[0])
    for g, cert in items[done:]:
        g, cert = _monic(g, cert, order)
        if g.is_constant():
            return UNIT, [(g, cert)], "derived a nonzero constant"
        add(g, cert)

    processed = 0
    skipped = False
    while heap:
        _, i, j = heapq.heappop(heap)
        gamma = pairs.pop((i, j), None)
        if gamma is None:
            continue  # pruned by B_k after it was queued
        if sum(gamma) > budget.max_degree:
            skipped = True
            continue
        processed += 1
        if processed > budget.max_pairs:
            return UNKNOWN, list(zip(basis, certs)), "pair budget exhausted"

        s, cert_s = _s_element(pres, basis, certs, i, j, gamma, order)
        if s.is_zero():
            continue
        rem, cert_s = _reduce_with_cert(s, cert_s, basis, certs, order)
        if rem.is_zero():
            continue
        rem, cert_s = _monic(rem, cert_s, order)
        if rem.is_constant():
            return UNIT, [(rem, cert_s)], "derived a nonzero constant"
        add(rem, cert_s)

    if skipped:
        return UNKNOWN, list(zip(basis, certs)), "degree budget exhausted"
    return PROPER, list(zip(basis, certs)), ""


def _s_element(pres, basis, certs, i, j, gamma, order):
    """Left S-element of basis[i], basis[j] w.r.t. the common multiple gamma."""
    field = pres.field
    add, mul, zero = field.raw_add, field.raw_mul, field.raw_zero
    gi, gj = basis[i], basis[j]
    ti = exp_sub(gamma, gi.leading(order)[0])
    tj = exp_sub(gamma, gj.leading(order)[0])
    pi = _mono_times_dict(pres, ti, gi.raw_dict())
    pj = _mono_times_dict(pres, tj, gj.raw_dict())
    ci = pi.get(gamma)
    cj = pj.get(gamma)
    if ci is None or cj is None or ci == zero or cj == zero:
        raise GroebnerError(
            "monomial order is not multiplicative for this presentation"
        )
    ui, uj = field.raw_inv(ci), field.raw_neg(field.raw_inv(cj))
    out = {e: mul(ui, c) for e, c in pi.items()}
    for e, c in pj.items():
        _acc(out, e, mul(uj, c), add, zero)
    s = Polynomial.from_raw(pres, out)
    cert = None
    if certs[i] is not None:
        cert = _cert_sum((
            (Polynomial.monomial(pres, ti, Scalar(field, ui)), certs[i]),
            (Polynomial.monomial(pres, tj, Scalar(field, uj)), certs[j]),
        ))
    return s, cert


def _inter_reduce(basis, certs, order):
    """Reduced GB from a left GB of monic elements, sorted by lead.

    Drops each element whose lead another lead divides (the first of equal
    leads stays), then tail-reduces each survivor once against the others.
    The surviving leads are fixed and pairwise non-dividing, so one pass
    leaves every tail reduced and every lead coefficient 1.
    """
    leads = [g.leading(order)[0] for g in basis]
    keep = [
        k
        for k, lead in enumerate(leads)
        if not any(
            divides(other, lead) and (other != lead or j < k)
            for j, other in enumerate(leads)
            if j != k
        )
    ]
    basis = [basis[k] for k in keep]
    certs = [certs[k] for k in keep]
    out = []
    for k in range(len(basis)):
        others = basis[:k] + basis[k + 1 :]
        other_certs = certs[:k] + certs[k + 1 :]
        out.append(_reduce_with_cert(basis[k], certs[k], others, other_certs, order))
    out.sort(key=lambda item: order.key(item[0].leading(order)[0]))
    return out


def _groebner(
    gens: Tuple[Polynomial, ...],
    order: MonomialOrder,
    budget: Optional[Budget],
    right_factors: Optional[List[Polynomial]],
    one: Optional[Polynomial],
) -> IdealHandle:
    """Reduced left basis of the ideal of gens closed under right multiples
    by right_factors; None asks for the left ideal.

    Each round completes the left basis, then adjoins the reduced right
    multiples of the elements that completion added: an earlier right
    multiple lies in the left ideal already, which only grows. A left
    ideal stops after its one completion. `one` is the polynomial 1 when
    elements carry certificates, seeding generator k's as ((1, k, 1),),
    and None when they carry none.
    """
    budget = budget or DEFAULT_BUDGET
    items = [
        (g, None if one is None else ((one, k, one),))
        for k, g in enumerate(gens)
        if not g.is_zero()
    ]
    done = rounds = 0
    while True:
        status, items, note = _completion(items, order, budget, done)
        if status != PROPER:
            break
        basis = [g for g, _ in items]
        certs = [c for _, c in items]
        new_items = []
        for g, cert in items[done:] if right_factors else ():
            for w in right_factors:
                cw = None if cert is None else tuple(
                    (p, i, multiply(q, w)) for p, i, q in cert
                )
                rem, cw = _reduce_with_cert(multiply(g, w), cw, basis, certs, order)
                if not rem.is_zero():
                    new_items.append((rem, cw))
        if not new_items:
            items = _inter_reduce(basis, certs, order)
            break
        rounds += 1
        done = len(items)
        items = items + new_items
        if rounds >= budget.max_rounds:
            status, note = UNKNOWN, "saturation round budget exhausted"
            break
    return IdealHandle(
        gens[0].pres if gens else None,
        gens,
        LEFT if right_factors is None else TWO_SIDED,
        status,
        order,
        tuple(g for g, _ in items),
        None if one is None else tuple(c for _, c in items),
        note,
    )


def left_groebner(
    gens: Sequence[Polynomial],
    order: MonomialOrder = DEGLEX,
    budget: Optional[Budget] = None,
    track: bool = False,
) -> IdealHandle:
    """Left Groebner basis of the left ideal generated by gens."""
    gens = tuple(gens)
    one = Polynomial.one(gens[0].pres) if track and gens else None
    return _groebner(gens, order, budget, None, one)


def is_member_left(f: Polynomial, handle: IdealHandle) -> str:
    """'yes', 'no' or 'unknown' membership of f in the handle's ideal."""
    if handle.status == UNIT:
        return "yes"
    if handle.status == UNKNOWN:
        # the partial basis can still certify membership, never refute it
        if handle.basis and remainder_of(f, handle.basis, handle.order).is_zero():
            return "yes"
        return "unknown"
    if f.is_zero():
        return "yes"
    if not handle.basis:
        return "no"
    rem = remainder_of(f, handle.basis, handle.order)
    return "yes" if rem.is_zero() else "no"


def two_sided_saturate(
    gens: Sequence[Polynomial],
    order: MonomialOrder = DEGLEX,
    budget: Optional[Budget] = None,
    track: bool = False,
) -> IdealHandle:
    """Left basis of the two-sided ideal of gens, by right-closure rounds.

    The right factors are every variable, and the field primitive when
    some sigma is not the identity, so closure under right scalar
    multiplication holds too.
    """
    gens = tuple(gens)
    if not gens:
        return _groebner(gens, order, budget, [], None)
    pres = gens[0].pres
    right_factors = [Polynomial.variable(pres, j) for j in range(pres.n)]
    if not pres.sigma_all_identity:
        prim = pres.field.primitive()
        if prim is not None:
            right_factors.append(Polynomial.constant(pres, prim))
    one = Polynomial.one(pres) if track else None
    return _groebner(gens, order, budget, right_factors, one)


# ---------------------------------------------------------------------------
# intersection of left ideals (central-variable elimination)


@dataclass
class IntersectionResult:
    elements: List[Polynomial]
    complete: bool
    note: str = ""


def intersect_left(
    I: IdealHandle,
    J: IdealHandle,
    budget: Optional[Budget] = None,
) -> IntersectionResult:
    """Generators of the intersection of two proper left ideals.

    Joins t*gens(I) with (1-t)*gens(J) over an added central variable t and
    eliminates t with a block order; the t-free basis elements generate
    I ∩ J (substituting t at 0 and 1 is a ring map because t is central).
    """
    if I.presentation is not J.presentation:
        raise GroebnerError("ideals over different presentations")
    if I.status != PROPER or J.status != PROPER:
        raise GroebnerError("intersection needs both ideals proper")
    pres = I.presentation
    budget = budget or DEFAULT_BUDGET
    ext = extend_with_central(pres)
    block = MonomialOrder.block([0], ext.n)

    def lift(f: Polynomial, tdeg: int) -> Polynomial:
        return Polynomial(
            ext, tuple(((tdeg,) + e, c) for e, c in f.terms)
        )

    gens = [lift(f, 1) for f in I.generators if not f.is_zero()]
    one_minus_t = Polynomial.one(ext) - Polynomial.variable(ext, 0)
    for g in J.generators:
        if not g.is_zero():
            gens.append(multiply(one_minus_t, lift(g, 0)))
    handle = left_groebner(gens, block, budget)
    if handle.status == UNIT:
        # 1 is t-free and lies in both ideals only if both are improper;
        # cannot happen for proper inputs, but the elimination ideal may
        # still contain units of the extension: keep the contract honest.
        raise GroebnerError("elimination produced a unit from proper ideals")
    out = []
    for g in handle.basis:
        if all(e[0] == 0 for e, _ in g.terms):
            out.append(
                Polynomial(pres, tuple((e[1:], c) for e, c in g.terms))
            )
    complete = handle.status == PROPER
    return IntersectionResult(
        out, complete, "" if complete else handle.note
    )
