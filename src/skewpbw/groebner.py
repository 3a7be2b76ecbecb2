"""Division, left Groebner bases, two-sided saturation and intersection.

The division algorithm peels leading terms: a term whose monomial is
divisible by some divisor's leading monomial is cancelled exactly (over a
field the coefficient condition is always solvable), otherwise it moves to
the remainder. Completion is Buchberger-style on left S-elements with the
normal selection strategy and Gebauer-Moller's chain criterion.

One routine computes left and two-sided bases: a two-sided basis is a left
basis that is also closed under right multiples. It alternates left
completion with adjoining the reduced right multiples of the newly added
elements that no other lead divides, by a list of right factors: none for
a left ideal, the variables (and the field primitive when some sigma is
not the identity) for a two-sided one. Budgets make `unknown` a first
class outcome: right closure need not terminate in general.
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
    _var_times_dict,
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
    nowhere and never trip the degree budget. A saturation round
    multiplies only the new elements whose lead no other lead divides, so
    fewer right multiples feed the next completion. So a budget goes
    further than it would without the criterion and with every right
    multiple, and an input that ran out of it there may be decided here.
    A proper or unit answer is exact whatever the budget; budgets count
    work, never time.
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
    that need only the remainder never pay for them. A division run for
    its remainder alone records no quotients, and reading them raises.
    """

    def __init__(
        self, pres: Presentation, raw_quotients: Optional[List[dict]], remainder: Polynomial
    ):
        self.remainder = remainder
        self._pres = pres
        self._raw_quotients = raw_quotients

    @cached_property
    def quotients(self) -> List[Polynomial]:
        if self._raw_quotients is None:
            raise GroebnerError("this division recorded no quotients")
        return [Polynomial.from_raw(self._pres, q.items()) for q in self._raw_quotients]

    def reconstruct(self, divisors: Sequence[Polynomial]) -> Polynomial:
        out = self.remainder
        for q, g in zip(self.quotients, divisors):
            out = out + q * g
        return out


class _Memo:
    """The basis of one Groebner computation with its caches; dropped
    when the computation returns.

    The basis only grows by appending, so a position names one element for
    the whole computation and the maps stay valid:
    - `first`: exponent -> (position of the first lead dividing it, or -1;
      number of leads checked), so a miss is searched again only among
      the leads appended since;
    - `multiples`: (position k, mu) -> raw dict of x^theta * basis[k] with
      theta = mu - lm(basis[k]), so mu is the multiple's lead monomial;
    - `products`: (k, mu) -> (that dict, inverse of its lead coefficient),
      for the keys a caller asked for: the exponent `divide` cancels, or
      the lcm an S-element is formed at. Both callers hold mu already.

    A multiple is built by a ladder of one variable step per rung. With
    x_f the first variable of theta, x^theta * g = x_f * (x^(theta - e_f) * g)
    exactly: x_f * x^(theta - e_f) is already the normal monomial x^theta,
    and `poly._mono_times_dict` applies the same steps in the same order,
    the last variable first. So each rung is `_var_times_dict` of the rung
    below it, equal to the one-shot product term for term, in the same
    dict order. A new multiple walks down from mu to the nearest cached
    rung, or to mu = lm(g) whose rung is g's own dict, then climbs back one
    step per rung, caching each; the walk is a loop, so its depth is
    bounded by deg theta and not by the recursion limit. Rungs carry no
    inverse: only the keys callers ask for pay for one.
    """

    __slots__ = ("pres", "basis", "leads", "first", "multiples", "products")

    def __init__(self, pres: Presentation):
        self.pres = pres
        self.basis: List[Polynomial] = []
        self.leads: List[tuple] = []
        self.first: dict = {}
        self.multiples: dict = {}
        self.products: dict = {}

    def append(self, g: Polynomial, lead: tuple) -> None:
        self.basis.append(g)
        self.leads.append(lead)

    def product(self, k: int, mu: tuple):
        """(x^theta * basis[k] as a raw dict, inverse of its lead
        coefficient), for the theta with theta + lm(basis[k]) = mu."""
        key = (k, mu)
        hit = self.products.get(key)
        if hit is None:
            prod = self._multiple(k, mu)
            field = self.pres.field
            lead_c = prod.get(mu)
            if lead_c is None or lead_c == field.raw_zero:
                raise GroebnerError(
                    "monomial order is not multiplicative for this presentation"
                )
            hit = self.products[key] = (prod, field.raw_inv(lead_c))
        return hit

    def _multiple(self, k: int, mu: tuple) -> dict:
        """The rung (k, mu) of basis[k]'s ladder; see the class docstring."""
        multiples, lead = self.multiples, self.leads[k]
        n = len(lead)
        steps = []  # (first variable of theta, mu) from mu down
        f = 0  # theta's first variable only moves right as theta shrinks
        d = multiples.get((k, mu))
        while d is None:
            while f < n and mu[f] == lead[f]:
                f += 1
            if f == n:  # mu = lead
                d = multiples[(k, mu)] = dict(self.basis[k].raw)
                break
            steps.append((f, mu))
            mu = mu[:f] + (mu[f] - 1,) + mu[f + 1 :]
            d = multiples.get((k, mu))
        pres = self.pres
        for f, mu in reversed(steps):
            d = multiples[(k, mu)] = _var_times_dict(pres, f, d)
        return d


def divide(
    f: Polynomial,
    divisors: Sequence[Polynomial],
    order: MonomialOrder = DEGLEX,
    *,
    memo: Optional[_Memo] = None,
    _quotients: bool = True,
) -> DivisionResult:
    """f = sum q_i * f_i + h with h reduced w.r.t. the divisors.

    Reduced means no term of h has a monomial divisible by any lm(f_i);
    terms are processed largest first, so lm(f) = max of the partial
    product leads and lm(h). Raises on an empty divisor list or a zero
    divisor. `memo` and `_quotients` are internal: the caches of the
    Groebner computation whose whole basis `divisors` is, and False when
    only the remainder is read, so that no quotient is recorded.
    """
    if not divisors:
        raise GroebnerError("division requires at least one divisor")
    pres = f.pres
    if memo is None:
        memo = _divisor_memo(pres, divisors, order)

    field = pres.field
    add, mul, neg, zero = field.raw_add, field.raw_mul, field.raw_neg, field.raw_zero
    key = order.key
    leads, first, product = memo.leads, memo.first, memo.product
    n = len(leads)
    work = dict(f.raw)
    # a min-heap on negated order keys pops the largest term first
    heap = [(tuple(map(operator.neg, key(e))), e) for e in work]
    heapq.heapify(heap)
    quotients = [dict() for _ in range(n)] if _quotients else None
    remainder: dict = {}

    while heap:
        _, exp = heapq.heappop(heap)
        coeff = work.pop(exp, None)
        if coeff is None:
            continue  # stale entry
        hit = first.get(exp)
        if hit is None:
            i = find_divisor(leads, exp)
            first[exp] = (i, n)
        elif hit[0] < 0 and hit[1] < n:
            i = find_divisor(leads, exp, hit[1])
            first[exp] = (i, n)
        else:
            i = hit[0]
        if i < 0:
            remainder[exp] = coeff
            continue
        prod, inv_lc = product(i, exp)
        r = mul(coeff, inv_lc)
        if quotients is not None:
            _acc(quotients[i], exp_sub(exp, leads[i]), r, add, zero)
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
    # order of Polynomial.raw
    rem = Polynomial.from_raw(pres, remainder.items(), ordered=order.kind == "deglex")
    return DivisionResult(pres, quotients, rem)


def _divisor_memo(
    pres: Presentation, divisors: Sequence[Polynomial], order: MonomialOrder
) -> _Memo:
    """A memo whose basis is the divisors; refuses a zero divisor or one
    from another presentation."""
    memo = _Memo(pres)
    for g in divisors:
        if g.pres is not pres:
            raise GroebnerError("divisors from a different presentation")
        lead = g.leading(order)
        if lead is None:
            raise GroebnerError("division by the zero polynomial")
        memo.append(g, lead[0])
    return memo


def remainder_of(f: Polynomial, basis: Sequence[Polynomial], order: MonomialOrder) -> Polynomial:
    if not basis or f.is_zero():
        return f
    return divide(f, basis, order, _quotients=False).remainder


def normal_form_rows(
    pres: Presentation,
    exps: Sequence[tuple],
    basis: Sequence[Polynomial],
    order: MonomialOrder,
) -> List[list]:
    """Matrix of the linear map f -> remainder_of(f, basis, order) on span(x^exps).

    Column k is the normal form of x^(exps[k]), in raw field values; its
    nullspace is the part of the span that reduces to zero. Every column
    divides by the same basis, so they share one memo: each multiple
    x^theta * g is formed once per matrix.
    """
    zero = pres.field.raw_zero
    monos = [Polynomial.monomial(pres, e) for e in exps]
    if basis:
        memo = _divisor_memo(pres, basis, order)
        monos = [
            divide(m, basis, order, memo=memo, _quotients=False).remainder
            for m in monos
        ]
    cols = [dict(m.raw) for m in monos]
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
        c = w.constant_value() if w is not None and w.is_constant() else None
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
    memo: Optional[_Memo] = None,
):
    """f reduced by basis, with its certificate; memo: as for `divide`.
    Only a certificate reads the quotients, so none are recorded without."""
    if not basis or f.is_zero():
        return f, cert
    res = divide(f, basis, order, memo=memo, _quotients=cert is not None)
    if cert is not None:
        cert = _cert_sum(
            [(None, cert)]
            + [(-q, c) for q, c in zip(res.quotients, certs) if not q.is_zero()]
        )
    return res.remainder, cert


def _monic(g: Polynomial, cert, order: MonomialOrder):
    """g and its certificate scaled to lead coefficient 1; no work if it is 1."""
    lc = g.leading(order)[1]
    field = g.pres.field
    if lc == field.raw_one:
        return g, cert
    u = Scalar(field, field.raw_inv(lc))
    if cert is not None:
        # a nonzero scale creates no zero part and merges no two parts
        cert = tuple((p.scale(u), i, q) for p, i, q in cert)
    return g.scale(u), cert


def _completion(
    items: List[Tuple[Polynomial, Optional[tuple]]],
    order: MonomialOrder,
    budget: Budget,
    done: int,
    memo: _Memo,
):
    """Left Buchberger completion of nonzero items; returns (status, items, note).

    The first `done` items must already be a left GB of monic nonconstant
    elements, and they must be the memo's basis: no pair among them is
    formed, and they lead the returned items unchanged. Every element the
    completion adds is appended to the memo. status UNIT means a nonzero
    constant was derived; the single returned item is then 1.

    Pairs are managed with Gebauer-Moller's chain criterion only (the
    product criterion fails for these algebras). It is sound because in a
    bijective skew PBW extension lm(x^a * g) = x^(a + lm g) with a nonzero
    coefficient, so S-elements of a chain i-k-j whose lcms divide the lcm
    of i and j combine into a standard representation of the S-element of
    i and j. `_gebauer_moller` updates the queue on each insertion; its M
    step compares each new lcm only with kept lcms of lower total degree,
    the only ones that can divide it properly.

    The same multiplicativity keys the memo's products by their lead: the
    S-element of i and j is formed from the products of basis[i] and
    basis[j] with lead gamma, and a division step cancels exponent mu with
    the product of lead mu, so neither computes theta on a cache hit. A
    new product climbs basis[k]'s ladder from its nearest cached rung, one
    variable step per rung; the rungs are exact (they equal the one-shot
    product term for term), so the products many divisions and S-elements
    form share their lower multiples, for this completion and the rounds
    after it, until the computation returns and its memo goes.
    Divisions here record quotients only for certificates.
    """
    if not items:
        return PROPER, [], ""
    basis, leads = memo.basis, memo.leads
    certs: List = [cert for _, cert in items[:done]]
    pairs: dict = {}  # queued pair (i, j), i < j -> lcm of the two leads
    heap: list = []  # (order key of the lcm, i, j); pairs pruned later go stale

    def add(g: Polynomial, cert):
        k = len(basis)
        lead = g.leading(order)[0]
        for gamma, i in _gebauer_moller(pairs, leads, lead).items():
            pairs[(i, k)] = gamma
            heapq.heappush(heap, (order.key(gamma), i, k))
        memo.append(g, lead)
        certs.append(cert)

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

        s, cert_s = _s_element(memo, certs, i, j, gamma)
        if s.is_zero():
            continue
        rem, cert_s = _reduce_with_cert(s, cert_s, basis, certs, order, memo)
        if rem.is_zero():
            continue
        rem, cert_s = _monic(rem, cert_s, order)
        if rem.is_constant():
            return UNIT, [(rem, cert_s)], "derived a nonzero constant"
        add(rem, cert_s)

    if skipped:
        return UNKNOWN, list(zip(basis, certs)), "degree budget exhausted"
    return PROPER, list(zip(basis, certs)), ""


def _gebauer_moller(pairs: dict, leads: Sequence[tuple], lead: tuple) -> dict:
    """Gebauer-Moller update for a new element with this lead, after
    `leads`: drops the queued pairs it makes redundant from `pairs`, a
    dict (i, j) -> lcm, and returns its new pairs to queue as {lcm: i}.

    B_k drops a queued pair (i, j) whose lcm the new lead divides, by a
    chain through the new element with both lcms different from it. M
    drops a new pair whose lcm another new lcm properly divides; F keeps
    one new pair per lcm, the first position. A proper divisor has a
    lower total degree, so M visits the new lcms by (degree, position) and
    tests each only against the kept lcms of lower degree: by
    transitivity, a dropped lcm divides nothing a kept one does not.
    """
    lcms = [exp_max(lead_i, lead) for lead_i in leads]
    for ij in [
        ij
        for ij, gamma in pairs.items()
        if divides(lead, gamma) and lcms[ij[0]] != gamma and lcms[ij[1]] != gamma
    ]:
        del pairs[ij]
    fresh: dict = {}
    lower: list = []  # kept lcms of degree below the current one
    level: list = []  # kept lcms of the current degree
    degree = -1
    for d, i, gamma in sorted([(sum(gamma), i, gamma) for i, gamma in enumerate(lcms)]):
        if d != degree:
            lower += level
            level = []
            degree = d
        if gamma in fresh or any(divides(other, gamma) for other in lower):
            continue
        fresh[gamma] = i
        level.append(gamma)
    return fresh


def _s_element(memo: _Memo, certs, i, j, gamma):
    """Left S-element of basis[i], basis[j] w.r.t. the common multiple gamma."""
    pres = memo.pres
    field = pres.field
    add, mul, zero = field.raw_add, field.raw_mul, field.raw_zero
    pi, ui = memo.product(i, gamma)
    pj, uj = memo.product(j, gamma)
    uj = field.raw_neg(uj)
    out = {e: mul(ui, c) for e, c in pi.items()}
    for e, c in pj.items():
        _acc(out, e, mul(uj, c), add, zero)
    s = Polynomial.from_raw(pres, out.items())
    cert = None
    if certs[i] is not None:
        ti = exp_sub(gamma, memo.leads[i])
        tj = exp_sub(gamma, memo.leads[j])
        cert = _cert_sum((
            (Polynomial.from_raw(pres, ((ti, ui),), ordered=True), certs[i]),
            (Polynomial.from_raw(pres, ((tj, uj),), ordered=True), certs[j]),
        ))
    return s, cert


def _minimal(leads: Sequence[tuple], start: int = 0) -> List[int]:
    """Positions from `start` on whose lead no other lead divides; of equal
    leads, only the first position counts."""
    return [
        k
        for k in range(start, len(leads))
        if not any(
            divides(other, leads[k]) and (other != leads[k] or j < k)
            for j, other in enumerate(leads)
            if j != k
        )
    ]


def _inter_reduce(basis, certs, leads, order):
    """Reduced GB from a left GB of monic elements with these leads,
    sorted by lead.

    Drops each element that is not `_minimal`, then tail-reduces each
    survivor once against the others. The surviving leads are fixed and
    pairwise non-dividing, so one pass leaves every tail reduced and every
    lead coefficient 1.
    """
    keep = _minimal(leads)
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
    multiples of the elements that completion added and that are minimal:
    no other lead divides theirs (of equal leads, the first counts). A
    left ideal stops after its one completion. `one` is the polynomial 1
    when elements carry certificates, seeding generator k's as
    ((1, k, 1),), and None when they carry none.

    Why the minimal elements suffice. Let G be the left GB a completion
    returns, L its left ideal and G' its minimal elements. Every lead in G
    is divisible by a lead in G', so G' is a left GB of L as well, and each
    g in G reduces to 0 by G': g = sum a_h * h over h in G', hence
    g * w = sum a_h * (h * w) for each right factor w. For an h this
    completion added, h * w is adjoined now; an h from an earlier round
    lies in that round's left ideal, whose products with w were adjoined
    then, by the same argument. So after the round the left ideal contains
    L * w, as if every element of G had been multiplied.

    The computation owns one `_Memo`; its caches go when this returns.
    """
    budget = budget or DEFAULT_BUDGET
    pres = gens[0].pres if gens else None
    if any(g.pres is not pres for g in gens):
        raise GroebnerError("generators from a different presentation")
    items = [
        (g, None if one is None else ((one, k, one),))
        for k, g in enumerate(gens)
        if not g.is_zero()
    ]
    memo = _Memo(pres)
    done = rounds = 0
    while True:
        status, items, note = _completion(items, order, budget, done, memo)
        if status != PROPER:
            break
        basis = memo.basis
        certs = [c for _, c in items]
        new_items = []
        for k in _minimal(memo.leads, done) if right_factors else ():
            g, cert = items[k]
            for w in right_factors:
                cw = None if cert is None else tuple(
                    (p, i, multiply(q, w)) for p, i, q in cert
                )
                rem, cw = _reduce_with_cert(
                    multiply(g, w), cw, basis, certs, order, memo
                )
                if not rem.is_zero():
                    new_items.append((rem, cw))
        if not new_items:
            items = _inter_reduce(basis, certs, memo.leads, order)
            break
        rounds += 1
        done = len(items)
        items = items + new_items
        if rounds >= budget.max_rounds:
            status, note = UNKNOWN, "saturation round budget exhausted"
            break
    return IdealHandle(
        pres,
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
        # a common t-degree keeps the deglex order of the terms
        return Polynomial.from_raw(
            ext, [((tdeg,) + e, c) for e, c in f.raw], ordered=True
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
        if all(e[0] == 0 for e, _ in g.raw):
            out.append(
                Polynomial.from_raw(pres, [(e[1:], c) for e, c in g.raw], ordered=True)
            )
    complete = handle.status == PROPER
    return IntersectionResult(
        out, complete, "" if complete else handle.note
    )
